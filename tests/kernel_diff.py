"""Differential check of the sparse kernel ops against dense reference loops.

Standard library only, so it runs under any interpreter the package
supports, with or without pytest:

    PYTHONPATH=src python tests/kernel_diff.py [rounds] [seed]

Each round draws a field (GF(2), GF(3), GF(5), GF(11) or Q), a dimension
from 1 to 3, and a dense, sparse or zero structure-constant table.  It runs
`Matrix.apply`, `Matrix @`, `leg_apply` on both legs, `mul`, `delta`,
`coapply_first`/`coapply_second` and `placement_product` on random operands,
whose vector entries mix the field's stored scalars with the other forms
the ops accept (ints of any sign, same-field `GFElement`s over GF(p), plain
`Fraction`s and ints over Q), and compares each result with a dense loop
over plain ints or `Fraction`s that tests nothing for zero: the values must
agree, and every result entry must be a stored scalar (an int in [0, p), or
`Rationals.stored` in lowest terms).  Each round also runs every op with an
all-zero operand: a zero vector in each accepted form of zero, a zero
`Matrix`, `Tensor2` and table, where a container result must also have its
type, field and shape.  And it checks `identities._sum`, which adds only
the nonzero summands of an identity, against a plain left fold of all of
them: vectors over GF(p) (ints of any sign, or the search compile's
`_Quadratic` entries) and over Q (stored, or with a plain `Fraction` or
int entry), `Tensor2` and `Tensor3` terms.  It prints one summary line and
exits 1 on the first mismatch.  The test suite imports the same references.
"""

import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import add

from rbx.identities import _sum
from rbx.kernel import (GFElement, Matrix, PrimeField, Rationals, Tensor2, Tensor3,
                        _Quadratic, leg_apply)
from rbx.structures import Algebra, Coalgebra, placement_product

MODULI = (2, 3, 5, 11, None)  # None is Q
PLACEMENTS = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))


def field_of(p):
    return Rationals() if p is None else PrimeField(p)


def plain(x):
    """The value of an accepted scalar as an int or a `Fraction`."""
    return x.val if isinstance(x, GFElement) else x


# --- dense references: every term summed, nothing tested for zero ----------

def ref_apply(m, v):
    return [sum(c * x for c, x in zip(row, v)) for row in m]


def ref_matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def ref_leg_apply(t, m, leg):
    d = len(t)
    if leg == 1:
        return [[sum(m[a][u] * t[u][b] for u in range(d)) for b in range(d)] for a in range(d)]
    return [[sum(t[a][v] * m[b][v] for v in range(d)) for b in range(d)] for a in range(d)]


def ref_mul(table, x, y):
    d = len(table)
    return [sum(x[i] * y[j] * table[i][j][k] for i in range(d) for j in range(d))
            for k in range(d)]


def ref_delta(table, x):
    d = len(table)
    return [[sum(x[i] * table[i][j][k] for i in range(d)) for k in range(d)] for j in range(d)]


def ref_coapply(table, t, first):
    d = len(table)
    out = [[[0] * d for _ in range(d)] for _ in range(d)]
    for u, v, j, k in product(range(d), repeat=4):
        if first:  # t[u][v] Delta(e_u) (x) e_v
            out[j][k][v] += t[u][v] * table[u][j][k]
        else:  # t[u][v] e_u (x) Delta(e_v)
            out[u][j][k] += t[u][v] * table[v][j][k]
    return out


def ref_placement(table, x, px, y, py):
    d = len(table)
    (s,) = set(px) & set(py)
    out = [[[0] * d for _ in range(d)] for _ in range(d)]
    for u, v, w, t, k in product(range(d), repeat=5):
        xlegs, ylegs = dict(zip(px, (u, v))), dict(zip(py, (w, t)))
        pos = {**xlegs, **ylegs, s: k}
        out[pos[1]][pos[2]][pos[3]] += x[u][v] * y[w][t] * table[xlegs[s]][ylegs[s]][k]
    return out


def flat(nested):
    """The entries of nested lists, row-major."""
    if isinstance(nested, (list, tuple)):
        return [x for part in nested for x in flat(part)]
    return [nested]


def agree(field, got, want, what):
    """Raise `AssertionError` unless `got` holds stored scalars equal to the
    reference values `want`, entry by entry."""
    got, want = tuple(got), flat(want)
    p = field.modulus
    if p:
        want = [x % p for x in want]
    for g, w in zip(got, want):
        stored = type(g) is field.stored and (
            0 <= g < p if p else g.denominator > 0 and gcd(g.numerator, g.denominator) == 1)
        if not (stored and g == w):
            raise AssertionError(f"{what} over {field!r}: got {got!r}, want {tuple(want)!r}")
    if len(got) != len(want):
        raise AssertionError(f"{what} over {field!r}: {len(got)} entries, want {len(want)}")


def agree_container(field, got, cls, shape, want, what):
    """`agree` on the entries of `got`, which must be a `cls` over `field`
    whose shape slots (`rows`, `cols` or `dim`) read `shape`."""
    if (type(got) is not cls or got.field != field
            or tuple(getattr(got, slot) for slot in cls.__slots__) != shape):
        raise AssertionError(f"{what} over {field!r}: got {got!r}, want a {cls.__name__} "
                             f"of shape {shape}")
    agree(field, got.entries, want, what)


# --- random operands --------------------------------------------------------

def draw(rng, field, zeros):
    """One scalar in a form the ops accept: zero with probability `zeros`."""
    p = field.modulus
    if rng.random() < zeros:
        return rng.choice((0, field.zero(), Fraction(0) if p is None else GFElement(0, p)))
    if p:
        k = rng.randint(-3 * p, 3 * p)
        return rng.choice((k, k % p, GFElement(k, p)))
    n, d = rng.randint(-30, 30), rng.randint(1, 12)
    return rng.choice((n, Fraction(n, d), field.of(n, d)))


def vector(rng, field, d, zeros=0.3):
    return tuple(draw(rng, field, zeros) for _ in range(d))


def table(rng, field, d):
    """A d x d x d table of stored scalars: dense, sparse or zero."""
    zeros = rng.choice((0.0, 0.75, 1.0))
    return [[field.reduce(vector(rng, field, d, zeros)) for _ in range(d)] for _ in range(d)]


def kernel_round(rng, field):
    """`Matrix.apply`, `@` and `leg_apply` on one random instance; the
    number of ops checked."""
    d = rng.randint(1, 3)
    rows = [field.reduce(vector(rng, field, d, rng.random())) for _ in range(d)]
    other = [field.reduce(vector(rng, field, d, rng.random())) for _ in range(d)]
    m, n = Matrix.from_rows(field, rows), Matrix.from_rows(field, other)
    t = Tensor2(field, d, [x for row in other for x in row])
    v = vector(rng, field, d, rng.random())
    agree(field, m.apply(v), ref_apply(rows, [plain(x) for x in v]), "apply")
    agree(field, (m @ n).entries, ref_matmul(rows, other), "@")
    for leg in (1, 2):
        agree(field, leg_apply(t, m, leg).entries, ref_leg_apply(other, rows, leg),
              f"leg_apply on leg {leg}")
    return 4


def structures_round(rng, field):
    """`mul`, `delta`, `coapply_first`/`coapply_second` and
    `placement_product` on one random table; the number of ops checked."""
    d = rng.randint(1, 3)
    consts = table(rng, field, d)
    A, C = Algebra(field, consts, raw=True), Coalgebra(field, consts, raw=True)
    x, y = vector(rng, field, d, rng.random()), vector(rng, field, d, rng.random())
    px = rng.choice(PLACEMENTS)
    py = rng.choice([q for q in PLACEMENTS if len(set(q) & set(px)) == 1])
    s, u = (field.reduce(vector(rng, field, d * d, rng.random())) for _ in range(2))
    ts, tu = Tensor2(field, d, s), Tensor2(field, d, u)
    grid = [[list(s[i * d:(i + 1) * d]) for i in range(d)],
            [list(u[i * d:(i + 1) * d]) for i in range(d)]]
    plain_x, plain_y = [plain(a) for a in x], [plain(a) for a in y]
    agree(field, A.mul(x, y), ref_mul(consts, plain_x, plain_y), "mul")
    agree(field, C.delta(x).entries, ref_delta(consts, plain_x), "delta")
    agree(field, C.coapply_first(ts).entries, ref_coapply(consts, grid[0], True),
          "coapply_first")
    agree(field, C.coapply_second(ts).entries, ref_coapply(consts, grid[0], False),
          "coapply_second")
    agree(field, placement_product(A, ts, px, tu, py).entries,
          ref_placement(consts, grid[0], px, grid[1], py), f"placement_product {px} {py}")
    return 5


# --- zero operands ----------------------------------------------------------

def zero_vectors(field, d):
    """A zero vector of dimension d in each accepted form of zero (0,
    `field.zero()`, and `Fraction(0)` over Q or a same-field `GFElement`
    over GF(p)), and one that mixes the three."""
    p = field.modulus
    forms = (0, field.zero(), Fraction(0) if p is None else GFElement(0, p))
    return [(z,) * d for z in forms] + [tuple(forms[k % 3] for k in range(d))]


def kernel_zero_round(rng, field):
    """`Matrix.apply`, `@` and `leg_apply` on both legs, each with an all-zero
    operand: every zero vector of `zero_vectors`, a zero `Matrix` and a zero
    `Tensor2`, beside random operands; the number of ops checked."""
    d = rng.randint(1, 3)
    rows = [field.reduce(vector(rng, field, d)) for _ in range(d)]
    grid = [list(field.reduce(vector(rng, field, d))) for _ in range(d)]
    m, t = Matrix.from_rows(field, rows), Tensor2(field, d, [x for row in grid for x in row])
    zm, zt, zeros = Matrix.zero(field, d), Tensor2.zero(field, d), [[0] * d] * d
    applied = [(m, z, rows) for z in zero_vectors(field, d)]
    applied.append((zm, vector(rng, field, d), zeros))
    for a, v, ra in applied:
        got = a.apply(v)
        if type(got) is not tuple:
            raise AssertionError(f"apply of {v!r} over {field!r}: got {got!r}, want a tuple")
        agree(field, got, ref_apply(ra, [plain(x) for x in v]), "apply with a zero operand")
    products = ((zm, m, zeros, rows), (m, zm, rows, zeros), (zm, zm, zeros, zeros))
    for a, b, ra, rb in products:
        agree_container(field, a @ b, Matrix, (d, d), ref_matmul(ra, rb), "@ with a zero matrix")
    legs = [(leg, s, n, rs, rn) for leg in (1, 2)
            for s, n, rs, rn in ((zt, m, zeros, rows), (t, zm, grid, zeros),
                                 (zt, zm, zeros, zeros))]
    for leg, s, n, rs, rn in legs:
        agree_container(field, leg_apply(s, n, leg), Tensor2, (d,),
                        ref_leg_apply(rs, rn, leg), f"zero leg_apply on leg {leg}")
    return len(applied) + len(products) + len(legs)


def table_zero_round(rng, field):
    """`mul`, `delta`, `coapply_first`/`coapply_second` and
    `placement_product`, each with an all-zero operand (every zero vector of
    `zero_vectors`, or a zero `Tensor2`) on a random table, and with random
    operands on the zero table; the number of ops checked."""
    d = rng.randint(1, 3)
    zero = [[[field.zero()] * d for _ in range(d)] for _ in range(d)]
    x, y = vector(rng, field, d), vector(rng, field, d)
    plain_x, plain_y = [plain(a) for a in x], [plain(a) for a in y]
    grid = [list(field.reduce(vector(rng, field, d))) for _ in range(d)]
    t = Tensor2(field, d, [a for row in grid for a in row])
    zt, zeros = Tensor2.zero(field, d), [[0] * d] * d
    px = rng.choice(PLACEMENTS)
    py = rng.choice([q for q in PLACEMENTS if len(set(q) & set(px)) == 1])
    ops = 0
    for consts in (table(rng, field, d), zero):
        A, C = Algebra(field, consts, raw=True), Coalgebra(field, consts, raw=True)
        vectors = zero_vectors(field, d) + ([x] if consts is zero else [])
        for z in vectors:
            plain_z = [plain(a) for a in z]
            for got, want in ((A.mul(z, y), ref_mul(consts, plain_z, plain_y)),
                              (A.mul(x, z), ref_mul(consts, plain_x, plain_z))):
                if type(got) is not tuple:
                    raise AssertionError(f"mul over {field!r}: got {got!r}, want a tuple")
                agree(field, got, want, "mul with a zero factor")
            agree_container(field, C.delta(z), Tensor2, (d,), ref_delta(consts, plain_z),
                            "delta of a zero vector")
            ops += 3
        for s, rs in ((zt, zeros),) + (((t, grid),) if consts is zero else ()):
            for expand, first in ((C.coapply_first, True), (C.coapply_second, False)):
                agree_container(field, expand(s), Tensor3, (d,),
                                ref_coapply(consts, rs, first), "zero coapply")
            for a, b, ra, rb in ((s, t, rs, grid), (t, s, grid, rs)):
                agree_container(field, placement_product(A, a, px, b, py), Tensor3, (d,),
                                ref_placement(consts, ra, px, rb, py),
                                f"zero placement_product {px} {py}")
            ops += 4
    return ops


# --- identity sums ----------------------------------------------------------

def poly(p, x):
    """A GF(p) entry, int or `_Quadratic`, as its reduced terms."""
    if type(x) is _Quadratic:
        return {m: c % p for m, c in x.terms.items() if c % p}
    return {(): x % p} if x % p else {}


def summand(rng, field, d, kind):
    """One summand of kind "vector", "quadratic", "tensor2" or "tensor3":
    zero with probability 1/2, else random."""
    p = field.modulus
    if kind == "tensor2":
        return Tensor2(field, d, vector(rng, field, d * d, rng.choice((0.3, 1.0))))
    if kind == "tensor3":
        return Tensor3(field, d, vector(rng, field, d ** 3, rng.choice((0.3, 1.0))))
    if rng.random() < 0.5:
        return (0 if p else field.zero(),) * d
    if kind == "quadratic":
        return tuple(rng.randint(-p, p) if rng.random() < 0.3 else _Quadratic(
            {(rng.randrange(4),): rng.randrange(1, p), (): rng.randrange(p)}, p)
            for _ in range(d))
    if p:  # ints of any sign, as the vector helpers leave them
        return tuple(rng.randint(-3 * p, 3 * p) if rng.random() < 0.7 else 0 for _ in range(d))
    v = vector(rng, field, d)
    return field.reduce(v) if rng.random() < 0.7 else v


def sum_round(rng, field):
    """`identities._sum` on one random list of summands of each kind that the
    field has, against a plain left fold: equal values, and over Q a stored
    entry wherever every summand's entry was stored; the number of sums."""
    p, d = field.modulus, rng.randint(1, 3)
    kinds = ("vector", "tensor2", "tensor3") + (("quadratic",) if p else ())
    for kind in kinds:
        terms = [summand(rng, field, d, kind) for _ in range(rng.randint(1, 5))]
        got = _sum(terms)
        if kind.startswith("tensor"):
            ok = got == reduce(add, terms)
        else:
            fold = tuple(reduce(add, col) for col in zip(*terms))
            if p:
                ok = [poly(p, x) for x in got] == [poly(p, x) for x in fold]
            else:
                ok = got == fold and all(
                    type(g) is field.stored and gcd(g.numerator, g.denominator) == 1
                    for g, col in zip(got, zip(*terms))
                    if all(type(x) is field.stored for x in col))
        if not ok:
            raise AssertionError(f"sum of {kind} summands over {field!r}: got {got!r} "
                                 f"for {terms!r}")
    return len(kinds)


def main(rounds=20000, seed=1):
    rng, ops = random.Random(seed), 0
    fields = [field_of(p) for p in MODULI]
    for _ in range(rounds):
        field = rng.choice(fields)
        try:
            ops += (kernel_round(rng, field) + structures_round(rng, field)
                    + kernel_zero_round(rng, field) + table_zero_round(rng, field)
                    + sum_round(rng, field))
        except AssertionError as exc:
            sys.exit(f"mismatch: {exc}")
    print(f"Python {sys.version.split()[0]}: {ops} ops in {rounds} rounds, seed {seed}: "
          "all equal to the dense reference and the left fold")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:3]))
