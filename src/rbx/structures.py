"""Structure-constant (co)algebras, bilinear forms, duals, and axiom checks.

An `Algebra` stores a rank-3 coefficient tensor c with e_i . e_j =
sum_k c[i][j][k] e_k; a `Coalgebra` stores d with Delta(e_i) =
sum_{j,k} d[i][j][k] e_j (x) e_k.  Both families share one base, `_Table`,
which stores and checks the table, gives equality and hash, and on
construction verifies the class's defining axioms (associativity /
coassociativity, or the Lie counterparts) unless the caller tags the data
`raw`, which is how candidate products awaiting checks are carried around.
The bundled carriers are sparse (`fix_a` has 2 nonzero constants of 8), so
every table lists its nonzero constants once, as (i, j, k, c), when it is
built, and `mul`, `delta`, `coapply_first`/`coapply_second` and
`placement_product` loop over those alone, on stored scalars in the
kernel's per-field style: int sums with one `% p` per output entry over
GF(p), where `mul` returns the zero product before its loop when a factor
is zero, and over Q products with a zero factor skipped and each output
entry normalised once (Gustavson, *Two fast algorithms for sparse
matrices*, ACM TOMS 4, 1978).  `check_axioms` runs one (tags, ctx) per
axiom kind (`_axiom_identities`) through `identities.run_identities`,
which shares the verdict inside a `shared_verdicts` scope.

All identities are checked on basis tuples only; multilinearity makes that
exhaustive.
"""

from __future__ import annotations

import itertools

from .errors import PayloadError, StructureError
from .kernel import (Matrix, Tensor2, Tensor3, _dots, _operand, _q_lowest, bv, combine,
                     leg_apply, reduce_entries, vadd, vneg, vsub)
from .identities import Ctx, identity, run_identities
from .report import Violation, make_report


class _Table:
    """A dim x dim x dim table of structure constants in stored form, with
    basis labels and cached basis vectors; the base of both families of
    (co)algebras.  Construction checks the table's shape, sets the derived
    data (`_derive`: the nonzero constants `_nonzero`, which every bilinear
    op reads, plus the family's own), and then runs the class's axiom kind
    `_axiom`, refusing a failing table with `_refusal`, unless the caller
    passes `raw`.  Pickling and copying carry the derived data along.  Two
    tables are equal when type, field, table and basis agree."""

    _what = "structure-constant table"

    def __init__(self, field, table, basis=None, raw=False):
        self.field = field
        self.dim = len(table)
        self.table = tuple(tuple(field.reduce(cell) for cell in row) for row in table)
        for row in self.table:
            if len(row) != self.dim or any(len(cell) != self.dim for cell in row):
                raise ValueError(f"{self._what} must be dim x dim x dim")
        self.basis = tuple(basis) if basis else tuple(f"e{i}" for i in range(self.dim))
        if len(self.basis) != self.dim:
            raise ValueError("basis label count mismatch")
        self._basis_vectors = tuple(bv(field, self.dim, i) for i in range(self.dim))
        self._derive()
        if not raw:
            rep = check_axioms(self._axiom, self)
            if not rep.passed:
                raise StructureError(self._refusal, rep)

    def _derive(self):
        """Set the derived data: here `_nonzero`, the (i, j, k, c) of every
        nonzero constant c = table[i][j][k] in row-major order, which the
        bilinear ops loop over; each family adds its own."""
        self._nonzero = tuple((i, j, k, c) for i, row in enumerate(self.table)
                              for j, cell in enumerate(row)
                              for k, c in enumerate(cell) if c)

    def basis_vector(self, i):
        return self._basis_vectors[i]

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.table == other.table and self.basis == other.basis)

    def __hash__(self):
        return hash((type(self).__name__, self.table))


class _Multiplicative(_Table):
    """A bilinear product given by structure constants."""

    def product(self, i, j):
        """Product of basis vectors e_i and e_j, as a coefficient tuple."""
        return self.table[i][j]

    def mul(self, x, y):
        """The product of two vectors, which go to stored form first: one
        pass over the nonzero constants (`_nonzero`).  Over GF(p) a zero
        factor returns the zero product before the pass; over Q the pass
        skips each product with a zero factor, tested on `_numerator`, and
        a zero entry of the result is the stored zero (`_q_lowest`)."""
        F = self.field
        x, y = _operand(F, x), _operand(F, y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch in product")
        p = F.modulus
        if p:
            if not (any(x) and any(y)):
                return (0,) * self.dim
            out = [0] * self.dim
            for i, j, k, c in self._nonzero:
                out[k] += x[i] * y[j] * c
            return tuple([o % p for o in out])
        num, den = [0] * self.dim, [1] * self.dim  # sums so far, not in lowest terms
        for i, j, k, c in self._nonzero:
            a, b = x[i], y[j]
            na, nb = a._numerator, b._numerator
            if na and nb:
                n = na * nb * c._numerator
                m = a._denominator * b._denominator * c._denominator
                dk = den[k]
                if dk == m:
                    num[k] += n
                else:
                    num[k], den[k] = num[k] * m + n * dk, dk * m
        return tuple(map(_q_lowest, num, den))

    def _derive(self):
        super()._derive()
        self._left = self._right = None  # built on first use

    def left_mult_basis(self, i) -> Matrix:
        if self._left is None:
            self._left = tuple(
                Matrix.from_cols(self.field, [self.table[k][j] for j in range(self.dim)])
                for k in range(self.dim)
            )
        return self._left[i]

    def right_mult_basis(self, i) -> Matrix:
        if self._right is None:
            self._right = tuple(
                Matrix.from_cols(self.field, [self.table[j][k] for j in range(self.dim)])
                for k in range(self.dim)
            )
        return self._right[i]

    def left_mult(self, x) -> Matrix:
        """Matrix of y -> x . y."""
        return combine(self.field, self.dim, x, self.left_mult_basis)

    def right_mult(self, x) -> Matrix:
        """Matrix of y -> y . x."""
        return combine(self.field, self.dim, x, self.right_mult_basis)

    def is_commutative(self):
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(self.dim) for j in range(self.dim))

    def __repr__(self):
        terms = []
        for i in range(self.dim):
            for j in range(self.dim):
                cell = [f"{c} {self.basis[k]}" for k, c in enumerate(self.table[i][j]) if c]
                if cell:
                    terms.append(f"{self.basis[i]}*{self.basis[j]}=" + "+".join(cell))
        return f"{type(self).__name__}(dim={self.dim}, " + ("; ".join(terms) or "zero") + ")"


class Algebra(_Multiplicative):
    _axiom, _refusal = "associative", "product is not associative"


class LieAlgebra(_Multiplicative):
    _axiom, _refusal = "lie", "bracket is not a Lie bracket"

    def bracket(self, x, y):
        return self.mul(x, y)


class _Comultiplicative(_Table):
    """A comultiplication given by structure constants."""

    _what = "comultiplication table"

    def _derive(self):
        super()._derive()
        d = self.dim
        self._deltas = tuple(Tensor2._make(self.field, d, tuple(x for row in cell for x in row))
                             for cell in self.table)
        # per basis vector e_i, the (flat index j*d + k, c) of each nonzero
        # constant of Delta(e_i)
        cells = [[] for _ in range(d)]
        for i, j, k, c in self._nonzero:
            cells[i].append((j * d + k, c))
        self._cells = tuple(map(tuple, cells))

    def delta_basis(self, i) -> Tensor2:
        return self._deltas[i]

    def delta(self, x) -> Tensor2:
        """The coproduct of a vector, which goes to stored form first: one
        pass over the nonzero constants (`_cells`)."""
        F, d = self.field, self.dim
        x = _operand(F, x)
        if len(x) != d:
            raise ValueError("dimension mismatch in coproduct")
        p = F.modulus
        out = [F.zero()] * (d * d)
        for xi, cell in zip(x, self._cells):
            if (xi if p else xi._numerator):
                for f, c in cell:
                    out[f] += xi * c
        return Tensor2._make(F, d, reduce_entries(F, out))

    def coapply_first(self, t: Tensor2) -> Tensor3:
        """Expand the first leg: sum t[u][v] Delta(e_u) (x) e_v."""
        return self._coapply(t, True)

    def coapply_second(self, t: Tensor2) -> Tensor3:
        """Expand the second leg: sum t[u][v] e_u (x) Delta(e_v)."""
        return self._coapply(t, False)

    def _coapply(self, t: Tensor2, first) -> Tensor3:
        F, d = self.field, self.dim
        if t.dim != d:
            raise ValueError("dimension mismatch in coproduct application")
        p = F.modulus
        out = [F.zero()] * d ** 3
        for (u, v), c in zip(itertools.product(range(d), repeat=2), t.entries):
            if (c if p else c._numerator):
                # entry f of Delta(e_k) lands at f*d + v in Delta(e_u) (x) e_v,
                # and at u*d*d + f in e_u (x) Delta(e_v)
                k, stride, base = (u, d, v) if first else (v, 1, u * d * d)
                for f, x in self._cells[k]:
                    out[base + f * stride] += c * x
        return Tensor3._make(F, d, reduce_entries(F, out))

    def is_cocommutative(self):
        return all(self._deltas[i].is_symmetric() for i in range(self.dim))

    def __repr__(self):
        terms = []
        for i in range(self.dim):
            cell = [f"{self._deltas[i][j, k]} ({self.basis[j]},{self.basis[k]})"
                    for j in range(self.dim) for k in range(self.dim) if self._deltas[i][j, k]]
            if cell:
                terms.append(f"D({self.basis[i]})=" + "+".join(cell))
        return f"{type(self).__name__}(dim={self.dim}, " + ("; ".join(terms) or "zero") + ")"


class Coalgebra(_Comultiplicative):
    _axiom, _refusal = "coassociative", "comultiplication is not coassociative"


class LieCoalgebra(_Comultiplicative):
    _axiom, _refusal = "lie_coalgebra", "cobracket is not a Lie cobracket"


class BilinearForm:
    """Form B(x, y) = x^T . gram . y on the space carrying `gram`."""

    def __init__(self, field, gram: Matrix):
        if gram.rows != gram.cols:
            raise ValueError("gram matrix must be square")
        self.field = field
        self.gram = gram
        self.dim = gram.rows

    def value(self, x, y):
        """B(x, y), as x times `gram.apply(y)` through `kernel._dots`; both
        vectors go to stored form first, so a scalar of another field, zero
        or not, raises `FieldError`."""
        F = self.field
        x = _operand(F, x)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch in bilinear form")
        return _dots(F, (x,), self.gram.apply(y), self.dim)[0]

    def is_symmetric(self):
        return self.gram == self.gram.transpose()

    def is_nondegenerate(self):
        return bool(self.gram.det())

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __repr__(self):
        return f"BilinearForm({self.gram!r})"


def placement_product(A, x: Tensor2, px, y: Tensor2, py) -> Tensor3:
    """Product of two 2-tensors placed on legs of a triple tensor space.

    px and py are leg placements like (1, 2) or (1, 3); they must share
    exactly one leg, where the components multiply (x's factor on the left).
    """
    shared = set(px) & set(py)
    if len(shared) != 1:
        raise ValueError("placements must share exactly one leg")
    s = shared.pop()
    d = A.dim
    if x.dim != d or y.dim != d:
        raise ValueError("dimension mismatch in placement product")
    stride = (d * d, d, 1)  # of each leg in the flat index of the result
    out_s = stride[s - 1]
    out_x = stride[(px[1] if px[0] == s else px[0]) - 1]
    out_y = stride[(py[1] if py[0] == s else py[0]) - 1]
    F = A.field
    p = F.modulus

    def by_shared(t, placement, offset):
        """The nonzero entries of t, grouped by their shared-leg index, as
        (offset of the free-leg index in the result, coefficient)."""
        groups = [[] for _ in range(d)]
        for (u, v), c in zip(itertools.product(range(d), repeat=2), t.entries):
            if (c if p else c._numerator):
                sh, fr = (u, v) if placement[0] == s else (v, u)
                groups[sh].append((fr * offset, c))
        return groups

    xs, ys = by_shared(x, px, out_x), by_shared(y, py, out_y)
    out = [F.zero()] * d ** 3
    for i, j, k, c in A._nonzero:
        for fx, cx in xs[i]:
            for fy, cy in ys[j]:
                out[fx + fy + k * out_s] += cx * cy * c
    return Tensor3._make(F, d, reduce_entries(F, out))


# ---------------------------------------------------------------------------
# identity catalog entries: structural axioms


@identity("associativity", ("A", "A", "A"))
def _assoc(ctx, idx):
    i, j, k = idx
    A = ctx.A
    return [A.mul(A.product(i, j), A.basis_vector(k)),
            vneg(A.mul(A.basis_vector(i), A.product(j, k)))]


@identity("coassociativity", ("C",))
def _coassoc(ctx, idx):
    (i,) = idx
    C = ctx.C
    d = C.delta_basis(i)
    return [C.coapply_first(d), -C.coapply_second(d)]


@identity("lie:antisymmetry", ("A", "A"))
def _lie_antisym(ctx, idx):
    i, j = idx
    return [ctx.A.product(i, j), ctx.A.product(j, i)]


@identity("lie:jacobi", ("A", "A", "A"))
def _lie_jacobi(ctx, idx):
    i, j, k = idx
    A = ctx.A
    return [A.mul(A.product(i, j), A.basis_vector(k)),
            A.mul(A.product(j, k), A.basis_vector(i)),
            A.mul(A.product(k, i), A.basis_vector(j))]


@identity("colie:antisymmetry", ("C",))
def _colie_antisym(ctx, idx):
    (i,) = idx
    d = ctx.C.delta_basis(i)
    return [d, d.flip()]


@identity("colie:jacobi", ("C",))
def _colie_jacobi(ctx, idx):
    (i,) = idx
    C = ctx.C
    u = C.coapply_second(C.delta_basis(i))
    return [u, u.permute((1, 2, 0)), u.permute((2, 0, 1))]


@identity("eq:1.2a", ("A", "A", "A"))
def _dend_a(ctx, idx):
    i, j, k = idx
    P, S = ctx.prec, ctx.succ
    return [P.mul(P.product(i, j), P.basis_vector(k)),
            vneg(P.mul(P.basis_vector(i), vadd(P.product(j, k), S.product(j, k))))]


@identity("eq:1.2b", ("A", "A", "A"))
def _dend_b(ctx, idx):
    i, j, k = idx
    P, S = ctx.prec, ctx.succ
    return [S.mul(S.basis_vector(i), P.product(j, k)),
            vneg(P.mul(S.product(i, j), P.basis_vector(k)))]


@identity("eq:1.2c", ("A", "A", "A"))
def _dend_c(ctx, idx):
    i, j, k = idx
    P, S = ctx.prec, ctx.succ
    return [S.mul(S.basis_vector(i), S.product(j, k)),
            vneg(S.mul(vadd(P.product(i, j), S.product(i, j)), S.basis_vector(k)))]


@identity("prelie", ("A", "A", "A"))
def _prelie(ctx, idx):
    i, j, k = idx
    A = ctx.A
    ei, ej, ek = (A.basis_vector(t) for t in idx)
    return [A.mul(A.product(i, j), ek), vneg(A.mul(ei, A.product(j, k))),
            vneg(A.mul(A.product(j, i), ek)), A.mul(ej, A.product(i, k))]


@identity("perm:leftcommutativity", ("A", "A", "A"))
def _perm_lc(ctx, idx):
    i, j, k = idx
    A = ctx.A
    ek = A.basis_vector(k)
    return [A.mul(A.product(i, j), ek), vneg(A.mul(A.product(j, i), ek))]


@identity("de:cv#1", ("A", "A"))
def _asi_1(ctx, idx):
    i, j = idx
    A, C = ctx.A, ctx.C
    da, db = C.delta_basis(i), C.delta_basis(j)
    return [C.delta(A.product(i, j)),
            -leg_apply(da, A.right_mult_basis(j), 1),
            -leg_apply(db, A.left_mult_basis(i), 2)]


@identity("de:cv#2", ("A", "A"))
def _asi_2(ctx, idx):
    i, j = idx
    A, C = ctx.A, ctx.C
    da, db = C.delta_basis(i), C.delta_basis(j)
    La, Lb = A.left_mult_basis(i), A.left_mult_basis(j)
    Ra, Rb = A.right_mult_basis(i), A.right_mult_basis(j)
    return [leg_apply(da, Rb, 2), leg_apply(db.flip(), Ra, 1),
            -leg_apply(da, Lb, 1), -leg_apply(db.flip(), La, 2)]


@identity("frobenius:invariance", ("A", "A", "A"))
def _frob_inv(ctx, idx):
    i, j, k = idx
    A, B = ctx.A, ctx.B
    return [B.value(A.product(i, j), A.basis_vector(k)),
            -B.value(A.basis_vector(i), A.product(j, k))]


@identity("lie-bialgebra:cocycle", ("A", "A"))
def _lie_cocycle(ctx, idx):
    i, j = idx
    g, C = ctx.A, ctx.C
    adi, adj = g.left_mult_basis(i), g.left_mult_basis(j)
    di, dj = C.delta_basis(i), C.delta_basis(j)
    return [C.delta(g.product(i, j)),
            -leg_apply(dj, adi, 1), -leg_apply(dj, adi, 2),
            leg_apply(di, adj, 1), leg_apply(di, adj, 2)]


# special apre-perm structures; ctx carries gt (right-pointing product),
# lt (left-pointing product), circ = gt + lt, eta, theta

@identity("de:hf#1", ("A", "A"))
def _apre_lt_comm(ctx, idx):
    i, j = idx
    return [ctx.lt.product(i, j), vneg(ctx.lt.product(j, i))]


@identity("de:hf#3a", ("A", "A", "A"))
def _apre_3a(ctx, idx):
    i, j, k = idx
    circ, lt = ctx.circ, ctx.lt
    return [lt.mul(circ.product(i, j), lt.basis_vector(k)),
            vneg(circ.mul(circ.basis_vector(i), lt.product(j, k)))]


@identity("de:hf#3b", ("A", "A", "A"))
def _apre_3b(ctx, idx):
    i, j, k = idx
    circ, lt = ctx.circ, ctx.lt
    return [circ.mul(circ.basis_vector(i), lt.product(j, k)),
            lt.mul(lt.basis_vector(i), lt.product(j, k))]


@identity("de:hg#1", ("C",))
def _apre_hg1(ctx, idx):
    (i,) = idx
    eta = ctx.eta
    d = eta.delta_basis(i)
    return [eta.coapply_first(d), -eta.coapply_second(d)]


@identity("de:hg#2", ("C",))
def _apre_hg2(ctx, idx):
    (i,) = idx
    eta = ctx.eta
    d = eta.delta_basis(i)
    return [eta.coapply_second(d), -eta.coapply_first(d).permute((1, 0, 2))]


@identity("de:hg#3", ("C",))
def _apre_hg3(ctx, idx):
    (i,) = idx
    th = ctx.theta.delta_basis(i)
    return [th, -th.flip()]


@identity("de:hg#4", ("C",))
def _apre_hg4(ctx, idx):
    (i,) = idx
    eta, theta = ctx.eta, ctx.theta
    return [eta.coapply_first(theta.delta_basis(i)),
            -theta.coapply_second(eta.delta_basis(i))]


@identity("de:hg#5", ("C",))
def _apre_hg5(ctx, idx):
    (i,) = idx
    eta, theta = ctx.eta, ctx.theta
    return [theta.coapply_second(eta.delta_basis(i)),
            theta.coapply_second(theta.delta_basis(i))]


def _eta_of(ctx, vec):
    return ctx.eta.delta(vec)


@identity("de:hi#1", ("A", "A"))
def _apre_hi1(ctx, idx):
    i, j = idx
    circ, theta, eta = ctx.circ, ctx.theta, ctx.eta
    return [eta.delta(circ.product(i, j)),
            -leg_apply(eta.delta_basis(j), circ.left_mult_basis(i), 1),
            leg_apply(theta.delta_basis(i), circ.right_mult_basis(j), 2)]


@identity("de:hi#2", ("A", "A"))
def _apre_hi2(ctx, idx):
    i, j = idx
    circ, lt, eta = ctx.circ, ctx.lt, ctx.eta
    return [eta.delta(circ.product(i, j)),
            -leg_apply(eta.delta_basis(i), circ.right_mult_basis(j), 2),
            leg_apply(eta.delta_basis(j), lt.left_mult_basis(i), 1)]


@identity("de:hi#3", ("A", "A"))
def _apre_hi3(ctx, idx):
    # third composite-coproduct display, with the sign of the theta term
    # matching the first display (the construction from averaging data
    # satisfies this variant identically)
    i, j = idx
    circ, theta, eta = ctx.circ, ctx.theta, ctx.eta
    return [eta.delta(circ.product(i, j)),
            -leg_apply(eta.delta_basis(j), circ.left_mult_basis(i), 2),
            leg_apply(theta.delta_basis(i), circ.left_mult_basis(j), 1)]


@identity("de:hi#4", ("A", "A"))
def _apre_hi4(ctx, idx):
    i, j = idx
    lt, eta = ctx.lt, ctx.eta
    return [eta.delta(lt.product(i, j)),
            -leg_apply(eta.delta_basis(j), lt.left_mult_basis(i), 2),
            -leg_apply(eta.delta_basis(i), lt.left_mult_basis(j), 2).flip()]


@identity("de:hi#5", ("A", "A"))
def _apre_hi5(ctx, idx):
    i, j = idx
    v = ctx.eta.delta(ctx.lt.product(i, j))
    return [v, -v.flip()]


@identity("de:hi#6", ("A", "A"))
def _apre_hi6(ctx, idx):
    i, j = idx
    circ, theta = ctx.circ, ctx.theta
    return [theta.delta(circ.product(i, j)),
            -leg_apply(theta.delta_basis(j), circ.left_mult_basis(i), 2),
            -leg_apply(theta.delta_basis(i), circ.left_mult_basis(j), 1)]


@identity("de:hi#7", ("A", "A"))
def _apre_hi7(ctx, idx):
    i, j = idx
    circ, theta = ctx.circ, ctx.theta
    return [theta.delta(circ.product(i, j)), -theta.delta(circ.product(j, i))]


# covariant bialgebras; ctx carries A, d1, d2 (derivation comultiplications)
# and DT (the coalgebra comultiplication)

def _derivation_terms(ctx, idx, dmap):
    i, j = idx
    A = ctx.A
    return [dmap.delta(A.product(i, j)),
            -leg_apply(dmap.delta_basis(i), A.right_mult_basis(j), 2),
            -leg_apply(dmap.delta_basis(j), A.left_mult_basis(i), 1)]


@identity("de:1.1#deriv1", ("A", "A"))
def _cov_deriv1(ctx, idx):
    return _derivation_terms(ctx, idx, ctx.d1)


@identity("de:1.1#deriv2", ("A", "A"))
def _cov_deriv2(ctx, idx):
    return _derivation_terms(ctx, idx, ctx.d2)


@identity("de:1.1#cov1", ("A", "A"))
def _cov_1(ctx, idx):
    i, j = idx
    A = ctx.A
    return [ctx.DT.delta(A.product(i, j)),
            -leg_apply(ctx.d2.delta_basis(i), A.right_mult_basis(j), 2),
            -leg_apply(ctx.DT.delta_basis(j), A.left_mult_basis(i), 1)]


@identity("de:1.1#cov2", ("A", "A"))
def _cov_2(ctx, idx):
    i, j = idx
    A = ctx.A
    return [ctx.DT.delta(A.product(i, j)),
            -leg_apply(ctx.DT.delta_basis(i), A.right_mult_basis(j), 2),
            -leg_apply(ctx.d1.delta_basis(j), A.left_mult_basis(i), 1)]


# ---------------------------------------------------------------------------
# axiom-kind dispatch

def _expect(payload, types, kind):
    if not isinstance(payload, types):
        names = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise PayloadError(f"kind {kind!r} expects {names}, got {type(payload).__name__}")
    return payload


def _pair(payload, kind, t1, t2):
    if not (isinstance(payload, tuple) and len(payload) == 2
            and isinstance(payload[0], t1) and isinstance(payload[1], t2)):
        raise PayloadError(f"kind {kind!r} expects a ({t1.__name__}, {t2.__name__}) pair")
    a, b = payload
    if a.dim != b.dim:
        raise PayloadError(f"kind {kind!r} needs equal dimensions, got {a.dim} and {b.dim}")
    return a, b


def _mult_payload(payload, kind):
    return _expect(payload, _Multiplicative, kind)


def _table_sum(p: _Table, q: _Table, cls, what):
    """Entrywise sum of two tables on the same space, as a raw `cls`."""
    if p.dim != q.dim or p.field != q.field:
        raise PayloadError(f"{what} live on different spaces")
    table = [[vadd(a, b) for a, b in zip(rp, rq)] for rp, rq in zip(p.table, q.table)]
    return cls(p.field, table, basis=p.basis, raw=True)


def add_products(p: _Multiplicative, q: _Multiplicative) -> Algebra:
    return _table_sum(p, q, Algebra, "products")


def add_comults(p: _Comultiplicative, q: _Comultiplicative) -> Coalgebra:
    return _table_sum(p, q, Coalgebra, "comultiplications")


# the apre-perm algebra and coalgebra identities, in report order
_HF_TAGS = ("de:hf#1", "associativity", "perm:leftcommutativity", "de:hf#3a", "de:hf#3b")
_HG_TAGS = ("de:hg#1", "de:hg#2", "de:hg#3", "de:hg#4", "de:hg#5")


def _axiom_identities(kind, payload):
    """The (tags, ctx) that `check_axioms` runs for one axiom kind, after
    its payload rules."""
    if kind == "associative":
        A = _mult_payload(payload, kind)
        return ("associativity",), Ctx({"A": A.basis}, A=A)
    if kind == "coassociative":
        C = _expect(payload, _Comultiplicative, kind)
        return ("coassociativity",), Ctx({"C": C.basis}, C=C)
    if kind == "lie":
        A = _mult_payload(payload, kind)
        return ("lie:antisymmetry", "lie:jacobi"), Ctx({"A": A.basis}, A=A)
    if kind == "lie_coalgebra":
        C = _expect(payload, _Comultiplicative, kind)
        return ("colie:antisymmetry", "colie:jacobi"), Ctx({"C": C.basis}, C=C)
    if kind == "dendriform":
        prec, succ = _pair(payload, kind, _Multiplicative, _Multiplicative)
        return (("eq:1.2a", "eq:1.2b", "eq:1.2c"),
                Ctx({"A": prec.basis}, prec=prec, succ=succ))
    if kind == "prelie":
        A = _mult_payload(payload, kind)
        return ("prelie",), Ctx({"A": A.basis}, A=A)
    if kind == "perm":
        A = _mult_payload(payload, kind)
        return ("associativity", "perm:leftcommutativity"), Ctx({"A": A.basis}, A=A)
    if kind == "asi_bialgebra":
        A, C = _pair(payload, kind, _Multiplicative, _Comultiplicative)
        return (("associativity", "coassociativity", "de:cv#1", "de:cv#2"),
                Ctx({"A": A.basis, "C": C.basis}, A=A, C=C))
    if kind == "lie_bialgebra":
        g, C = _pair(payload, kind, _Multiplicative, _Comultiplicative)
        return (("lie:antisymmetry", "lie:jacobi", "colie:antisymmetry", "colie:jacobi",
                 "lie-bialgebra:cocycle"), Ctx({"A": g.basis, "C": C.basis}, A=g, C=C))
    if kind == "apreperm_algebra":
        gt, lt = _pair(payload, kind, _Multiplicative, _Multiplicative)
        circ = add_products(gt, lt)
        return _HF_TAGS, Ctx({"A": gt.basis}, gt=gt, lt=lt, circ=circ, A=circ)
    if kind == "apreperm_coalgebra":
        vartheta, theta = _pair(payload, kind, _Comultiplicative, _Comultiplicative)
        eta = add_comults(theta, vartheta)
        return _HG_TAGS, Ctx({"C": eta.basis}, eta=eta, theta=theta, vartheta=vartheta)
    if kind == "apreperm_bialgebra":
        if not (isinstance(payload, tuple) and len(payload) == 4):
            raise PayloadError("kind 'apreperm_bialgebra' expects (gt, lt, vartheta, theta)")
        gt, lt, vartheta, theta = payload
        _, alg = _axiom_identities("apreperm_algebra", (gt, lt))
        _, coalg = _axiom_identities("apreperm_coalgebra", (vartheta, theta))
        return (_HF_TAGS + _HG_TAGS + tuple(f"de:hi#{k}" for k in range(1, 8)),
                Ctx(alg.spaces | coalg.spaces, **vars(alg), **vars(coalg)))
    if kind == "covariant_bialgebra":
        if not (isinstance(payload, tuple) and len(payload) == 4):
            raise PayloadError("kind 'covariant_bialgebra' expects (A, d1, d2, Delta)")
        A, d1, d2, DT = payload
        return (("associativity", "coassociativity", "de:1.1#deriv1", "de:1.1#deriv2",
                 "de:1.1#cov1", "de:1.1#cov2"),
                Ctx({"A": A.basis, "C": DT.basis}, A=A, d1=d1, d2=d2, DT=DT, C=DT))
    if kind == "frobenius":
        A, B = payload if isinstance(payload, tuple) else (None, None)
        if not (isinstance(A, _Multiplicative) and isinstance(B, BilinearForm)):
            raise PayloadError("kind 'frobenius' expects (Algebra, BilinearForm)")
        if A.dim != B.dim:
            raise PayloadError("form dimension does not match the algebra")
        return ("frobenius:invariance",), Ctx({"A": A.basis}, A=A, B=B)
    raise PayloadError(f"unknown axiom kind {kind!r}")


def check_axioms(kind, payload):
    """Run the defining identities of one axiom kind; report every violation."""
    rep = run_identities(f"axioms:{kind}", *_axiom_identities(kind, payload))
    if kind == "frobenius" and not payload[1].is_nondegenerate():
        extra = Violation("frobenius:nondegenerate", (), (str(payload[1].gram.det()),))
        rep = make_report(rep.check, rep.violations + (extra,))
    return rep


def square_on(carrier, *data):
    """The shape rule of maps and 2-tensors on a carrier: refuse, with
    `PayloadError`, a datum that is not dim x dim for the carrier's dim;
    None passes."""
    square = (carrier.dim, carrier.dim)
    for x in data:
        if x is not None and x._axes() != square:
            what = "map" if isinstance(x, Matrix) else "tensor"
            raise PayloadError(f"{what} dimension does not match the carrier")


# ---------------------------------------------------------------------------
# duals, commutators, pairing form, form adjoint

def dualize(C: _Comultiplicative) -> Algebra:
    """Algebra on the dual space: (e_j* . e_k*)(e_i) = d[i][j][k]."""
    n = C.dim
    table = [[tuple(C.table[i][j][k] for i in range(n)) for k in range(n)] for j in range(n)]
    basis = tuple(b[:-1] if b.endswith("*") else f"{b}*" for b in C.basis)
    cls = LieAlgebra if isinstance(C, LieCoalgebra) else Algebra
    return cls(C.field, table, basis=basis, raw=True)


def dualize_alg(A: _Multiplicative) -> Coalgebra:
    """Coalgebra on the dual space; inverse of `dualize` up to relabeling."""
    n = A.dim
    table = [[tuple(A.table[j][k][i] for k in range(n)) for j in range(n)] for i in range(n)]
    basis = tuple(b[:-1] if b.endswith("*") else f"{b}*" for b in A.basis)
    cls = LieCoalgebra if isinstance(A, LieAlgebra) else Coalgebra
    return cls(A.field, table, basis=basis, raw=True)


def commutator(A: _Multiplicative) -> LieAlgebra:
    table = [[vsub(A.table[i][j], A.table[j][i]) for j in range(A.dim)] for i in range(A.dim)]
    return LieAlgebra(A.field, table, basis=A.basis)


def cocommutator(C: _Comultiplicative) -> LieCoalgebra:
    table = [
        [tuple(C.table[i][j][k] - C.table[i][k][j] for k in range(C.dim)) for j in range(C.dim)]
        for i in range(C.dim)
    ]
    return LieCoalgebra(C.field, table, basis=C.basis)


def pairing_form(field, dim_a: int) -> BilinearForm:
    """Canonical pairing on V + V*: B(x + a*, y + b*) = <x, b*> + <a*, y>."""
    n = 2 * dim_a
    z, o = field.zero(), field.one()
    gram = Matrix(field, n, n,
                  [o if abs(i - j) == dim_a else z for i in range(n) for j in range(n)])
    return BilinearForm(field, gram)


def form_adjoint(B: BilinearForm, R: Matrix) -> Matrix:
    """The map R^ with B(R(a), b) = B(a, R^(b)); needs B nondegenerate."""
    if R.rows != B.dim:
        raise ValueError("map dimension does not match the form")
    if not B.is_nondegenerate():
        raise StructureError("form is degenerate; adjoint undefined")
    g = B.gram
    return g.inverse() @ R.transpose() @ g
