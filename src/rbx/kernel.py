"""Exact scalars (rationals and prime fields) and dense matrix/tensor ops.

Conventions used throughout the toolkit:

* a field handle fixes the stored form of its scalars: plain ints in
  [0, p) over GF(p), and over the rationals `_QFraction`, a private
  subclass of `fractions.Fraction`.  Matrices, tensors and structure tables
  hold their entries in that form, and every kernel operation reduces each
  output entry once, so arithmetic never rounds and equality is
  structural;
* a Q entry is still a `Fraction` to every caller: `isinstance`, `==`,
  `hash` and `str` are `Fraction`'s, and `repr` reads `Fraction(n, d)`.
  The subclass exists for speed alone: +, -, * and / with its own type or
  an int go straight from numerators and denominators to the result in
  lowest terms, since `Fraction`'s generic operator dispatch and
  normalising constructor cost more than the arithmetic on small values;
* `GFElement` is the public GF(p) scalar returned by `of`, `parse` and
  `elements`; `coerce` turns it (or any int) into the stored int and
  refuses a scalar of another field;
* `_Quadratic`, a GF(p) polynomial scalar of degree at most 2, is private
  to the search compile; GF(p) containers hold it as they are handed it,
  since `PrimeField.coerce` passes it through on its own modulus;
* vectors are plain tuples of scalars.  The vector helpers (`vadd`, `vneg`,
  ...) know no field and do not reduce, so over GF(p) they may return ints
  outside [0, p); every matrix and structure operation accepts such
  vectors and reduces what it returns;
* a linear map is a square `Matrix` whose column j is the image of basis
  vector j, so map composition is matrix multiplication and applying a map
  to a vector is `m.apply(v)`;
* `Matrix`, `Tensor2` and `Tensor3` share one private base, `_Container`,
  which holds their common contract: entrywise +, -, negation and
  `scale`, the zero test, equality and hash, and `render()`, the nonzero
  entries as `[i,j]=x`.  Containers over different fields never combine:
  `FieldError`.  `show` renders one scalar; an integer part past Python's
  int/str digit limit reads as its digit count instead of raising;
* the bilinear ops work on stored scalars.  Over GF(p) the products run
  generated straight-line functions (`_codelet`): the sum of products for
  every output entry written out with int indices, and one `% p` per
  output entry, compiled on first use and kept in a bounded cache (the
  codelets of Frigo, *A Fast Fourier Transform Compiler*, PLDI 1999), for
  the small carriers of this toolkit.  A table's `mul` kernel is keyed by
  its dimension and the positions of its nonzero constants (`_Pattern`)
  and takes the constants as an argument, so tables that share a pattern
  share a kernel and no entry value is ever in generated source.  Over Q
  the ops loop: they skip every product with a zero factor, sum the
  products' numerators and denominators as ints, and normalise each output
  entry once (`_q_lowest`, whose every zero is the one stored zero).
  Every contraction is one matrix product (`_product`, a kernel per shape
  over GF(p), the loop `_dots` over Q), on operands or reshapes of them:
  `Matrix.apply`, `@`, `leg_apply`, `leg_apply3`, a coalgebra's `delta`
  and coapplies, a bilinear form's `value` and a linear combination
  (`combine`: the row of nonzero coefficients times their stacked
  matrices), and a placement product is one table `mul` per pair of free
  indices.  Outside elimination (`det`, `inverse`) these accumulators, the
  codelets, `_dots` and a table's `_mul`, are the only sums of products of
  stored scalars.  An all-zero operand costs no kernel: the product
  returns the stored zero result at once.  Zero
  tests read `any` on GF(p) entries and the `_numerator` slot on Q entries
  (`_all_zero`), never the Python-level `Fraction.__bool__`;
* operands are checked once, where data enter.  Each public op checks its
  operands and then calls its private core: a vector in any other form
  goes to stored form once, through the field's `reduce` (`_operand`),
  which refuses a scalar of another field, zero or not, with `FieldError`,
  and lengths, shapes, fields and legs are checked as each op documents.
  A core (`Matrix._apply`, `_matmul`, `_leg_apply`, `_leg_apply3`,
  `_combine`, and in `structures` `_mul`, `_delta`, the coapplies' cores,
  `_placement_product` and `BilinearForm._value`) checks nothing: it takes
  operands in stored form, of the right length and over its own field.
  The identity catalog calls only the cores, on the data of an
  `identities.Ctx`, whose checker has applied its shape rules and which
  holds stored containers and tables and coerced scalars; what the vector
  helpers return from stored vectors is stored too, up to GF(p) ints
  outside [0, p), which every core accepts, since it reduces what it
  returns.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import add, attrgetter, neg, sub

from .errors import FieldError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GFElement:
    """Residue in GF(p).  Interoperates with int, never with Fraction.

    It equals an int only when the int is its residue in [0, p), so that
    equal values hash equal."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldError(f"mixing GF({self.p}) with GF({other.p})")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else GFElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else GFElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else GFElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else GFElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return GFElement(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GFElement(-self.val, self.p)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __repr__(self):
        return str(self.val)


class _Quadratic:
    """Polynomial of total degree at most 2 in numbered variables over GF(p),
    `p` its modulus; private to the search compile, which evaluates each
    identity step once on components whose entries are variables.  `terms`
    maps each monomial, () or (v,) or (v, w) with v >= w, to its nonzero
    coefficient, reduced mod p.  Over GF(2) a square y*y folds into y, which
    is exact on GF(2)^n.  A product of degree above 2 raises `RuntimeError`,
    and a scalar of another field `FieldError`.  A result without terms is
    the int 0."""

    __slots__ = ("terms", "p")

    def __init__(self, terms: dict, p: int):
        self.terms = terms
        self.p = p

    def _terms(self, other):
        """`other` as terms, or None for a type that this class leaves alone."""
        if type(other) is _Quadratic:
            if other.p != self.p:
                raise FieldError(f"mixing GF({self.p}) with GF({other.p})")
            return other.terms
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldError(f"GF({other.p}) element in GF({self.p}) context")
            other = other.val
        elif isinstance(other, Fraction):
            raise FieldError(f"rational {other} in GF({self.p}) context")
        elif not isinstance(other, int):
            return None
        return {(): other} if other else {}

    def _new(self, terms):
        return _Quadratic(terms, self.p) if terms else 0

    def _plus(self, other, sign):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        out, p = self.terms.copy(), self.p
        for m, c in terms.items():
            c = (out.get(m, 0) + sign * c) % p
            if c:
                out[m] = c
            else:
                out.pop(m, None)
        return self._new(out)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        p = self.p
        return _Quadratic({m: -c % p for m, c in self.terms.items()}, p)

    def __mul__(self, other):
        p = self.p
        if type(other) is int:
            other %= p
            return self._new({m: c * other % p for m, c in self.terms.items()}
                             if other else {})
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        out = {}
        for m, a in self.terms.items():
            for n, b in terms.items():
                key = tuple(sorted(set(m + n) if p == 2 else m + n, reverse=True))  # y^2 = y
                if len(key) > 2:
                    raise RuntimeError("a product of degree above 2")
                out[key] = (out.get(key, 0) + a * b) % p
        return self._new({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __mod__(self, modulus):
        if modulus != self.p:
            raise FieldError(f"reducing GF({self.p}) modulo {modulus}")
        return self

    def __bool__(self):
        return bool(self.terms)


_new = object.__new__


def _q(n: int, d: int) -> _QFraction:
    """The stored rational n/d, which must be in lowest terms with d > 0."""
    x = _new(_QFraction)
    x._numerator = n
    x._denominator = d
    return x


def _q_sum(na, da, nb, db):
    """na/da + nb/db in lowest terms (Knuth, TAOCP Vol. 2, 4.5.1)."""
    if db == 1:
        n, d = na + nb * da, da
    elif da == 1:
        n, d = na * db + nb, db
    else:
        g = gcd(da, db)
        if g == 1:
            n, d = na * db + nb * da, da * db
        else:
            s = da // g
            n, d = na * (db // g) + nb * s, s * db
            g = gcd(n, g)
            if g > 1:
                n //= g
                d //= g
    x = _new(_QFraction)
    x._numerator = n
    x._denominator = d
    return x


def _q_prod(na, da, nb, db):
    """(na/da) * (nb/db) in lowest terms, for da, db > 0."""
    g = gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    x = _new(_QFraction)
    x._numerator = na * nb
    x._denominator = da * db
    return x


class _QFraction(Fraction):
    """The stored form of a rational scalar: a `Fraction` whose +, -, * and /
    with its own type or an int compute the lowest-terms result directly,
    without `Fraction`'s generic operator dispatch and normalising
    constructor.  Every other operand goes to `Fraction`'s own operator, so
    mixed arithmetic stays exact (and returns a plain `Fraction`).
    Equality, hashing and `str` are `Fraction`'s, and `repr` reads
    `Fraction(n, d)`."""

    __slots__ = ()

    def __add__(a, b):
        if type(b) is _QFraction:
            return _q_sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return _q(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        if type(b) is int:
            return _q(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        if type(b) is _QFraction:
            return _q_sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if type(b) is int:
            return _q(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return _q(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        if type(b) is _QFraction:
            return _q_prod(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return _q_prod(a._numerator, a._denominator, b, 1)
        return Fraction.__mul__(a, b)

    def __rmul__(a, b):
        if type(b) is int:
            return _q_prod(a._numerator, a._denominator, b, 1)
        return Fraction.__rmul__(a, b)

    def __truediv__(a, b):
        if type(b) is _QFraction:
            nb, db = b._numerator, b._denominator
        elif type(b) is int:
            nb, db = b, 1
        else:
            return Fraction.__truediv__(a, b)
        if nb > 0:
            return _q_prod(a._numerator, a._denominator, db, nb)
        if nb < 0:
            return _q_prod(a._numerator, a._denominator, -db, -nb)
        return Fraction.__truediv__(a, b)  # Fraction's own ZeroDivisionError

    def __neg__(a):
        x = _new(_QFraction)
        x._numerator = -a._numerator
        x._denominator = a._denominator
        return x

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


_Q_ZERO, _Q_ONE = _q(0, 1), _q(1, 1)
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _digit_limit() -> int:
    """Python's int/str conversion limit in digits; 0 means none."""
    get = getattr(sys, "get_int_max_str_digits", None)  # Python >= 3.10.7
    return get() if get else 4300


class Rationals:
    """Handle for the rational field.  Scalars are `fractions.Fraction`s;
    the stored form is the private subclass `_QFraction`, whose arithmetic
    with its own type and with ints skips `Fraction`'s generic dispatch.
    `of`, `coerce`, `parse` and `reduce` return it, so a container built
    from plain `Fraction` or int entries converts them once."""

    char = 0
    modulus = None
    stored = _QFraction

    def zero(self):
        return _Q_ZERO

    def one(self):
        return _Q_ONE

    def of(self, num, den=1):
        return _QFraction(num, den)

    def coerce(self, x):
        if type(x) is _QFraction:
            return x
        if isinstance(x, Fraction):
            return _q(x._numerator, x._denominator)
        if isinstance(x, int):
            return _q(int(x), 1)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def reduce(self, values) -> tuple:
        """The values as a tuple of stored scalars."""
        stored = self.stored
        return tuple([x if type(x) is stored else self.coerce(x) for x in values])

    def div(self, a, b):
        return a / b

    def parse(self, text: str):
        """A literal such as `3/7`, `-1.5` or `2e3`, read as `Fraction` reads
        it.  A literal whose power of ten, numerator or denominator would
        have more digits than `sys.get_int_max_str_digits()` is refused, so
        the value it gives can be rendered, and the exponent is checked
        before any power is computed, so a huge one cannot hang the parse."""
        limit = _digit_limit()
        exp = _EXPONENT.search(text)
        if limit and exp:
            digits = exp.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or int(digits or 0) > limit:
                raise FieldError(f"bad rational literal {text!r}: its power of ten "
                                 f"has more than {limit} digits")
        try:
            x = _QFraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc
        big = max(abs(x._numerator), x._denominator)
        if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise FieldError(f"bad rational literal {text!r}: more than {limit} digits")
        return x

    def elements(self):
        raise FieldError("the rational field is infinite")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """Handle for GF(p), p prime; stored scalars are ints in [0, p)."""

    stored = int

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.modulus = p
        self.char = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, num, den=1):
        x = GFElement(num, self.modulus)
        if den == 1:
            return x
        if den % self.modulus == 0:
            raise FieldError(f"{num}/{den} has no value in GF({self.modulus}): "
                             f"its denominator is divisible by {self.modulus}")
        return x / GFElement(den, self.modulus)

    def coerce(self, x):
        if type(x) is int:
            return x % self.modulus
        if isinstance(x, GFElement):
            if x.p != self.modulus:
                raise FieldError(f"GF({x.p}) element in GF({self.modulus}) context")
            return x.val
        if isinstance(x, int):
            return int(x) % self.modulus
        if isinstance(x, _Quadratic):  # the search compile's scalar stays as it is
            if x.p != self.modulus:
                raise FieldError(f"GF({x.p}) polynomial in GF({self.modulus}) context")
            return x
        raise FieldError(f"cannot coerce {x!r} into GF({self.modulus})")

    def reduce(self, values) -> tuple:
        """The values as a tuple of stored scalars: ints reduced mod p."""
        p = self.modulus
        return tuple([x % p if type(x) is int else self.coerce(x) for x in values])

    def div(self, a, b):
        b %= self.modulus
        if b == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.modulus})")
        return a * pow(b, -1, self.modulus) % self.modulus

    def parse(self, text: str):
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.of(int(num), int(den))
            return self.of(int(text))
        except (ValueError, FieldError) as exc:
            raise FieldError(f"bad GF({self.modulus}) literal {text!r}") from exc

    def elements(self):
        return tuple(GFElement(i, self.modulus) for i in range(self.modulus))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("GF", self.modulus))

    def __repr__(self):
        return f"GF {self.modulus}"


def field_make(spec: str):
    """Build a field handle from a spec string: "rationals"/"Q" or "prime p"/"GF p"."""
    text = spec.strip()
    low = text.lower()
    if low in ("rationals", "q", "qq"):
        return Rationals()
    for prefix in ("prime", "gf"):
        if low.startswith(prefix):
            tail = low[len(prefix):].strip().lstrip("(").rstrip(")").strip()
            try:
                p = int(tail)
            except ValueError as exc:
                raise FieldError(f"bad field spec {spec!r}") from exc
            return PrimeField(p)
    raise FieldError(f"bad field spec {spec!r}")


def same_field(a, b):
    """Refuse to combine data over two different fields."""
    if a is not b and a != b:
        raise FieldError(f"mixing {a!r} with {b!r}")


def reduce_entries(field, out) -> tuple:
    """Output entries of a kernel operation on stored scalars, reduced."""
    p = field.modulus
    return tuple([x % p for x in out]) if p else tuple(out)


def _all_zero(p, v) -> bool:
    """Whether every entry of `v`, stored scalars of the field of modulus
    `p` (None over Q), is zero.  A Q entry is read on its `_numerator` slot,
    since `Fraction.__bool__` is a Python-level call."""
    if p:
        return not any(v)
    for x in v:
        if x._numerator:
            return False
    return True


# ---------------------------------------------------------------------------
# vectors (plain tuples)

def bv(field, n, i):
    """Basis vector e_i."""
    z, o = field.zero(), field.one()
    return tuple(o if k == i else z for k in range(n))


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(u):
    """-u; an all-zero int vector is returned as it is."""
    if u and type(u[0]) is int and not any(u):
        return u
    return tuple(map(neg, u))


def vscale(c, u):
    return tuple(c * a for a in u)


# ---------------------------------------------------------------------------
# containers

def show(x) -> str:
    """`str(x)` of a scalar, except that a numerator or denominator past
    Python's int/str digit limit reads as its sign and digit count, as in
    `-<8001 digits>/3`: an exact residual can outgrow the limit that parsed
    literals keep to."""
    try:
        return str(x)
    except ValueError:
        n, d = x.numerator, x.denominator
        return _digits(n) if d == 1 else f"{_digits(n)}/{_digits(d)}"


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        m = abs(n)
        d = int(m.bit_length() * 0.30103)  # about log10(m), then exact
        while 10 ** d <= m:
            d += 1
        while 10 ** (d - 1) > m:
            d -= 1
        return f"{'-' if n < 0 else ''}<{d} digits>"


def _operand(field, v):
    """A vector operand of a kernel op: `v` itself when it is a tuple whose
    every entry has the field's stored type, else `field.reduce(v)`, which
    converts each entry once and refuses a scalar of another field with
    `FieldError`.  Over GF(p) an int outside [0, p) passes as it is, since
    every op takes one `% p` per output entry."""
    if type(v) is tuple:
        stored = field.stored
        for x in v:
            if type(x) is not stored:
                break
        else:
            return v
    return field.reduce(v)


def _q_lowest(n: int, d: int) -> _QFraction:
    """The stored rational n/d, for d > 0, in lowest terms: the one
    normalisation of a Q output entry that a kernel op sums as ints.  Every
    zero is the one stored zero."""
    if not n:
        return _Q_ZERO
    if d != 1:
        g = gcd(n, d)
        if g > 1:
            n //= g
            d //= g
    x = _new(_QFraction)
    x._numerator = n
    x._denominator = d
    return x


def _dots(vs, ent, n) -> tuple:
    """Over Q, the dot product of each stored vector of `vs`, in turn, with
    each n-entry row of the stored entries `ent`: the loop of `_product`.
    A zero vector of `vs` gives its row of stored zeros at once.  Otherwise
    it skips every product with a zero factor, tested on the `_numerator`
    slot, sums the products' numerators and denominators as ints, and
    normalises each output entry once (`_q_lowest`)."""
    rows = range(0, len(ent), n)
    zeros = (_Q_ZERO,) * len(rows)
    out = []
    for v in vs:
        terms = [(j, x._numerator, x._denominator) for j, x in enumerate(v) if x._numerator]
        if not terms:
            out += zeros
            continue
        for b in rows:
            num, den = 0, 1  # the sum so far, not in lowest terms
            for j, nx, dx in terms:
                c = ent[b + j]
                nc = c._numerator
                if nc:
                    dc = c._denominator * dx
                    if dc == den:
                        num += nc * nx
                    else:
                        num, den = num * dc + nc * nx * den, den * dc
            out.append(_q_lowest(num, den))
    return tuple(out)


def _product(F, a, r, k, b, m, op="@") -> tuple:
    """The core of every matrix product of the kernel, on operands in stored
    form: the r x k row-major entries `a` times the k x m entries `b` (op
    "@"), or times the transpose of the m x k entries `b` (op "@T"), as the
    r * m output entries.  It checks nothing: the public ops (`Matrix.apply`,
    `@`, `leg_apply`, `leg_apply3`, `combine`, a coalgebra's `delta` and
    coapplies) check their operands and call it, and so do their private
    cores, which catalog code calls on the data of a `Ctx`.  A zero operand
    gives the stored zero result at once (over Q, `_dots` gives a zero row
    of `a` its zero row of output at once); otherwise GF(p) runs the
    generated kernel of `op` on (r, k, m) (`_codelet`), and Q the loop
    `_dots` on the rows of `a` and the columns of `b`."""
    p = F.modulus
    if p:
        if any(a) and any(b):
            return _codelet(op, (r, k, m))(a, b, None, p)
        return (0,) * (r * m)
    if _all_zero(None, b):
        return (_Q_ZERO,) * (r * m)
    return _dots(_rows(a, k) if r > 1 else (a,), b if op == "@T" else _transposed(b, m), k)


def _summed(terms) -> str:
    """The source of the sum of `terms`, added as a balanced tree, so that a
    long sum nests log2(len(terms)) deep, within the compiler's recursion
    limit."""
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return f"({_summed(terms[:half])}+{_summed(terms[half:])})"


def _codelet_source(op, shape) -> str:
    """The body of the generated GF(p) kernel of `op` on `shape`: a tuple
    expression in the operands `a` and `b`, the nonzero constants `c` of a
    table and the modulus `p`, with one `% p` per output entry, built from
    int indices and operators alone:

    * "@" on (r, k, m): the r x k matrix `a` times the k x m matrix `b`,
      row-major (`Matrix.apply` is m = 1, and leg 1 of `leg_apply` the map
      times the tensor's grid);
    * "@T" on (r, k, m): `a` times the transpose of the m x k matrix `b`
      (leg 2 of `leg_apply`: the grid times the transposed map);
    * "mul" on a table's `_Pattern`: entry k sums a[i] * b[j] * c[n] over
      the positions (i, j, k) of the nonzero constants c[n].

    An entry with no product is the stored zero 0."""
    if op == "mul":
        sums = [[] for _ in range(shape.dim)]
        for n, (i, j, k) in enumerate(shape.positions):
            sums[k].append(f"a[{i}]*b[{j}]*c[{n}]")
    else:
        r, k, m = shape
        col = (lambda t, j: t * m + j) if op == "@" else (lambda t, j: j * k + t)
        sums = [[f"a[{i * k + t}]*b[{col(t, j)}]" for t in range(k)]
                for i in range(r) for j in range(m)]
    entries = [f"{_summed(terms)}%p" if terms else "0" for terms in sums]
    return f"({','.join(entries)},)" if entries else "()"


@lru_cache(maxsize=256)
def _codelet(op, shape):
    """The generated GF(p) kernel of `op` on `shape` (`_codelet_source`),
    compiled on first use: `fn(a, b, c, p)`, which returns the output
    entries reduced mod p.  The only place in the package that compiles
    code; the cache keeps the 256 kernels used last.  A kernel is one
    function whatever the shape, so its source and its compile time grow
    with its number of products, and a compile costs about as much as a
    few hundred runs of the kernel.  The generator is meant for the small
    carriers of this toolkit, dimension 2 to 4, whose kernels compile in
    under 1 ms each; a 40 x 40 matrix product compiles its 64,000 products
    in about 1 s (2-core VM, CPython 3.11)."""
    namespace = {"__builtins__": {}}
    exec(compile(f"def fn(a, b, c, p): return {_codelet_source(op, shape)}",
                 f"<rbx {op} kernel>", "exec"), namespace)
    return namespace["fn"]


class _Pattern:
    """The dimension and the (i, j, k) positions of the nonzero constants of
    a structure table, the shape of the table's generated GF(p) `mul` kernel.
    `_pattern` gives one object per pattern, and `_codelet`'s cache hashes
    it by identity, so a kernel lookup costs no hash over the positions;
    pickling and copying go back through `_pattern`."""

    __slots__ = ("dim", "positions")

    def __init__(self, dim, positions):
        self.dim, self.positions = dim, positions

    def __reduce__(self):
        return _pattern, (self.dim, self.positions)


@lru_cache(maxsize=256)
def _pattern(dim, positions) -> _Pattern:
    """The `_Pattern` of `dim` and the tuple `positions`, one object for
    each of the 256 patterns asked for last; a pattern asked for again after
    it has left the cache gets a new object, and so its kernels are
    compiled again."""
    return _Pattern(dim, positions)


def _rows(ent, n) -> list:
    """The n-entry rows of row-major entries."""
    return [ent[b:b + n] for b in range(0, len(ent), n)]


def _transposed(ent, n) -> tuple:
    """Row-major entries with n columns, transposed."""
    return tuple([x for j in range(n) for x in ent[j::n]])


class _Container:
    """The contract of the kernel's containers `Matrix`, `Tensor2` and
    `Tensor3`: `entries`, an immutable tuple of stored scalars of one
    `field`, row-major on a fixed shape.

    * `+` and `-` take a container of the same type, field and shape and
      work entry by entry, as negation and `scale` do; each result entry is
      reduced once, and a zero container negates to itself.  Another type
      gives `TypeError`, another field `FieldError`, and another shape
      `_mismatch` (`TypeError`, or `ValueError` for a `Matrix`);
    * two containers are equal when type, field, shape and entries agree;
      the hash is that of `_key`, the shape and then the entries;
    * `render()` gives the nonzero entries as `[i,j]=x` strings, the form
      that violations and tensor reprs print;
    * a map applied to a vector, the product of two matrices and a map on
      one leg of a 2-tensor are rows times vectors on stored scalars: a
      generated kernel per shape over GF(p) (`_codelet`), the loop `_dots`
      over Q.

    A subclass's own slots are its shape, which `_key` and `_head` (the
    field and the shape, as `_make` takes them) read.  The constructors
    here are the tensors', with `dim ** _order` entries; `Matrix` replaces
    them with its `rows` x `cols` ones."""

    __slots__ = ("field", "entries")
    _mismatch = TypeError

    def __init_subclass__(cls):
        shape = cls.__slots__
        cls._key = attrgetter(*shape, "entries")
        cls._head = attrgetter("field", *shape)

    def __init__(self, field, dim, entries):
        self.field = field
        self.dim = dim
        self.entries = self._reduced(field, entries, dim ** self._order)

    def _reduced(self, field, entries, size) -> tuple:
        """The entries reduced; refused unless there are `size` of them."""
        entries = field.reduce(entries)
        if len(entries) != size:
            shape = "x".join(map(str, self._axes()))
            raise ValueError(f"{shape} {type(self).__name__.lower()} needs {size} "
                             f"entries, got {len(entries)}")
        return entries

    @classmethod
    def _make(cls, field, dim, entries):
        """Trusted constructor: `entries` is already a tuple of stored scalars."""
        t = _new(cls)
        t.field = field
        t.dim = dim
        t.entries = entries
        return t

    @classmethod
    def zero(cls, field, dim):
        return cls._make(field, dim, (field.zero(),) * dim ** cls._order)

    def _axes(self) -> tuple:
        """The range of each index."""
        return (self.dim,) * self._order

    def _shared_head(self, other):
        """The field and shape that `other`, a container of this type, shares
        with this one: another field raises `FieldError`, another shape
        `_mismatch`."""
        same_field(self.field, other.field)
        head = self._head(self)
        if head != other._head(other):  # the fields are equal by now
            raise self._mismatch("shape mismatch")
        return head

    def _combine(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        head = self._shared_head(other)
        out = list(map(op, self.entries, other.entries))
        return self._make(*head, reduce_entries(self.field, out))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        e, p = self.entries, self.field.modulus
        if _all_zero(p, e):
            return self
        out = [-a % p for a in e] if p else [-a for a in e]
        return self._make(*self._head(self), tuple(out))

    def scale(self, c):
        c = self.field.coerce(c)
        return self._make(*self._head(self),
                          reduce_entries(self.field, [c * a for a in self.entries]))

    def is_zero(self):
        return _all_zero(self.field.modulus, self.entries)

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self._key(self) == other._key(other))

    def __hash__(self):
        return hash(self._key(self))

    def render(self) -> tuple:
        """The nonzero entries as `[i,j]=x` strings (`[i,j,k]=x` in a
        `Tensor3`), in row-major order."""
        index = product(*map(range, self._axes()))
        return tuple(f"[{','.join(map(str, i))}]={show(x)}"
                     for i, x in zip(index, self.entries) if x)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(self.render()) or '0'})"


class Matrix(_Container):
    """Dense matrix over one field, `rows` x `cols`, row-major."""

    __slots__ = ("rows", "cols")
    _mismatch = ValueError

    def __init__(self, field, rows, cols, entries):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = self._reduced(field, entries, rows * cols)

    @classmethod
    def _make(cls, field, rows, cols, entries):
        """Trusted constructor: `entries` is already a tuple of stored scalars."""
        m = _new(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def zero(cls, field, n, m=None):
        m = n if m is None else m
        return cls._make(field, n, m, (field.zero(),) * (n * m))

    def _axes(self) -> tuple:
        return self.rows, self.cols

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(field, len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def from_cols(cls, field, cols):
        return cls.from_rows(field, cols).transpose()

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls._make(field, n, n, tuple(o if i == j else z
                                            for i in range(n) for j in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return self.entries[j::self.cols]

    def apply(self, v):
        """The map applied to a vector, which goes to stored form first (a
        scalar of another field raises `FieldError`)."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix application")
        return self._apply(_operand(self.field, v))

    def _apply(self, v):
        """The core of `apply`: `v` is a tuple of `cols` stored scalars, read
        as a 1 x cols row times the transposed map (`_product`)."""
        return _product(self.field, v, 1, self.cols, self.entries, self.rows, "@T")

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return self._matmul(other)

    def _matmul(self, other):
        """The core of `@`: `other` is a Matrix over this field with `cols`
        rows."""
        return Matrix._make(self.field, self.rows, other.cols, _product(
            self.field, self.entries, self.rows, self.cols, other.entries, other.cols))

    def transpose(self):
        return Matrix._make(self.field, self.cols, self.rows,
                            _transposed(self.entries, self.cols))

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        F = self.field
        n = self.rows
        work = [list(self.row(i)) for i in range(n)]
        result = F.one()
        for c in range(n):
            pivot = next((r for r in range(c, n) if work[r][c]), None)
            if pivot is None:
                return F.zero()
            if pivot != c:
                work[c], work[pivot] = work[pivot], work[c]
                result = -result
            pv = work[c][c]
            result = result * pv
            for r in range(c + 1, n):
                f = F.div(work[r][c], pv)
                if f:
                    work[r] = F.reduce([a - f * b for a, b in zip(work[r], work[c])])
        return F.coerce(result)

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        F = self.field
        n = self.rows
        work = [list(self.row(i)) + list(bv(F, n, i)) for i in range(n)]
        for c in range(n):
            pivot = next((r for r in range(c, n) if work[r][c]), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            work[c], work[pivot] = work[pivot], work[c]
            pv = work[c][c]
            work[c] = [F.div(a, pv) for a in work[c]]
            for r in range(n):
                if r != c and work[r][c]:
                    f = work[r][c]
                    work[r] = F.reduce([a - f * b for a, b in zip(work[r], work[c])])
        return Matrix.from_rows(F, [row[n:] for row in work])

    def __repr__(self):
        rows = [" ".join(show(x) for x in self.row(i)) for i in range(self.rows)]
        return "[" + "; ".join(rows) + "]"


def det(m: Matrix):
    return m.det()


def combine(field, n, coeffs, mat) -> Matrix:
    """The n x n matrix sum_k coeffs[k] * mat(k) over the nonzero
    coefficients (`_combine`).  The coefficients go to stored form first
    (`_operand`), so one of another field, zero or not, raises
    `FieldError`; so does a matrix it folds over another field, and one of
    another shape than n x n raises `ValueError`."""
    def checked(k):
        m = mat(k)
        same_field(field, m.field)
        if (m.rows, m.cols) != (n, n):
            raise ValueError(f"combine needs {n} x {n} matrices, got {m.rows} x {m.cols}")
        return m
    return _combine(field, n, _operand(field, coeffs), checked)


def _combine(field, n, coeffs, mat) -> Matrix:
    """The core of `combine`: `coeffs` is a tuple of stored scalars, and the
    sum is the row of the nonzero ones times their matrices' entries,
    stacked as rows (`_product`, which gives the zero matrix for none)."""
    p = field.modulus
    row, stacked = (), ()
    for k, c in enumerate(coeffs):
        if (c if p else c._numerator):
            row += (c,)
            stacked += mat(k).entries
    return Matrix._make(field, n, n, _product(field, row, 1, len(row), stacked, n * n))


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    same_field(a.field, b.field)
    n, m = a.rows, b.rows
    ent = list(Matrix.zero(a.field, n + m, n + m).entries)
    for i in range(n):
        for j in range(n):
            ent[i * (n + m) + j] = a[i, j]
    for i in range(m):
        for j in range(m):
            ent[(n + i) * (n + m) + (n + j)] = b[i, j]
    return Matrix._make(a.field, n + m, n + m, tuple(ent))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; with row-major vec(f), kron(a, I) represents f -> a @ f."""
    same_field(a.field, b.field)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    ent = []
    for i in range(rows):
        ai, bi = divmod(i, b.rows)
        for j in range(cols):
            aj, bj = divmod(j, b.cols)
            ent.append(a[ai, aj] * b[bi, bj])
    return Matrix._make(a.field, rows, cols, reduce_entries(a.field, ent))


# ---------------------------------------------------------------------------
# tensors

class Tensor2(_Container):
    """Element of V (x) V on a chosen basis; entry (i, j) weights e_i (x) e_j."""

    __slots__ = ("dim",)
    _order = 2

    @classmethod
    def from_terms(cls, field, dim, terms):
        """terms: iterable of (i, j, coeff)."""
        ent = [field.zero()] * (dim * dim)
        for i, j, c in terms:
            ent[i * dim + j] = ent[i * dim + j] + field.coerce(c)
        return cls(field, dim, ent)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.dim + j]

    def flip(self):
        return Tensor2._make(self.field, self.dim, _transposed(self.entries, self.dim))

    def is_antisymmetric(self):
        return self.flip() == -self

    def is_symmetric(self):
        return self.flip() == self

    def as_map(self) -> Matrix:
        """Read the grid as a map from the dual space: e_i* maps to sum_j t[i][j] e_j."""
        return Matrix._make(self.field, self.dim, self.dim, self.entries).transpose()


class Tensor3(_Container):
    """Element of V (x) V (x) V; entry (i, j, k) weights e_i (x) e_j (x) e_k."""

    __slots__ = ("dim",)
    _order = 3

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.entries[(i * self.dim + j) * self.dim + k]

    def permute(self, sigma):
        """Entry (i0,i1,i2) of the result is entry (i_sigma[0], i_sigma[1], i_sigma[2])."""
        d = self.dim
        out = []
        for i0 in range(d):
            for i1 in range(d):
                for i2 in range(d):
                    idx = (i0, i1, i2)
                    src = (idx[sigma[0]], idx[sigma[1]], idx[sigma[2]])
                    out.append(self[src])
        return Tensor3._make(self.field, d, tuple(out))


def leg_apply(t: Tensor2, m: Matrix, leg: int) -> Tensor2:
    """Apply a map to one tensor leg: leg 1 gives (m (x) id)t, leg 2 gives
    (id (x) m)t.  A zero tensor or a zero map gives the zero tensor at once."""
    if m.rows != m.cols or m.rows != t.dim:
        raise ValueError("dimension mismatch in leg application")
    same_field(t.field, m.field)
    if leg not in (1, 2):
        raise ValueError("leg must be 1 or 2")
    return _leg_apply(t, m, leg)


def _leg_apply(t, m, leg) -> Tensor2:
    """The core of `leg_apply`, on a d x d map over the tensor's field and
    leg 1 or 2: leg 1 is m times the grid, entry (a, b) the sum of
    m[a, u] t[u, b], and leg 2 the grid times m transposed, entry (a, b)
    the sum of t[a, v] m[b, v] (`_product`)."""
    F, d = t.field, t.dim
    if leg == 1:
        return Tensor2._make(F, d, _product(F, m.entries, d, d, t.entries, d))
    return Tensor2._make(F, d, _product(F, t.entries, d, d, m.entries, d, "@T"))


def leg_apply3(t: Tensor3, m: Matrix, leg: int) -> Tensor3:
    """Apply a map to one leg of a 3-tensor, as a product with a reshape of
    its entries (`_leg_apply3`)."""
    if m.rows != m.cols or m.rows != t.dim:
        raise ValueError("dimension mismatch in leg application")
    if leg not in (1, 2, 3):
        raise ValueError("leg must be 1, 2 or 3")
    same_field(t.field, m.field)
    return _leg_apply3(t, m, leg)


def _leg_apply3(t, m, leg) -> Tensor3:
    """The core of `leg_apply3`, on a d x d map over the tensor's field and
    leg 1, 2 or 3: leg 1 is m times the d x d^2 reshape, leg 3 the d^2 x d
    reshape times m transposed, and leg 2 m times each d x d slice t[i]
    (`_product`)."""
    F, d, te, me = t.field, t.dim, t.entries, m.entries
    n = d * d
    if leg == 1:
        out = _product(F, me, d, d, te, n)
    elif leg == 3:
        out = _product(F, te, n, d, me, d, "@T")
    else:
        out = tuple(x for i in range(0, n * d, n) for x in _product(F, me, d, d, te[i:i + n], d))
    return Tensor3._make(F, d, out)
