"""Operator systems on (co)algebras: checkers and constructive functors.

An `OperatorSystem` bundles a carrier algebra (associative or Lie) with one
or two linear maps and, for weighted kinds, a weight.  The checkers
evaluate the defining identities on every basis pair; the constructive
operations re-verify their hypotheses before building anything, so garbage
never propagates silently.  `check_operator_system` and `check_cosystem`
are one `run_identities` call each, on the (tags, ctx) that search also
compiles, so inside `identities.shared_verdicts` a repeat is served from
the memo.
"""

from __future__ import annotations

from .errors import PayloadError, require
from .kernel import Matrix, Tensor2, leg_apply, vadd, vneg, vscale, vsub
from .identities import Ctx, identity, run_identities
from .report import Violation, make_report
from .structures import (Algebra, LieAlgebra, LieCoalgebra,
                         _Comultiplicative, _Multiplicative, commutator,
                         cocommutator, placement_product, square_on)


class OperatorSystem:
    """Carrier algebra with maps (R, S) and an optional weight."""

    def __init__(self, carrier, R: Matrix, S: Matrix | None = None, weight=None):
        if not isinstance(carrier, _Multiplicative):
            raise PayloadError("carrier must be an algebra or Lie algebra")
        square_on(carrier, R, S)
        self.carrier = carrier
        self.R = R
        self.S = S
        self.weight = None if weight is None else carrier.field.coerce(weight)

    def swap(self):
        return OperatorSystem(self.carrier, self.S, self.R, self.weight)

    def __repr__(self):
        return f"OperatorSystem(dim={self.carrier.dim}, two_maps={self.S is not None})"


class CoOperatorSystem:
    """Carrier coalgebra with maps (Q, T) and an optional weight."""

    def __init__(self, carrier, Q: Matrix, T: Matrix | None = None, weight=None):
        if not isinstance(carrier, _Comultiplicative):
            raise PayloadError("carrier must be a coalgebra or Lie coalgebra")
        square_on(carrier, Q, T)
        self.carrier = carrier
        self.Q = Q
        self.T = T
        self.weight = None if weight is None else carrier.field.coerce(weight)

    def swap(self):
        return CoOperatorSystem(self.carrier, self.T, self.Q, self.weight)


# ---------------------------------------------------------------------------
# operator identities on algebras; the weighted and averaging Lie bialgebra
# displays de:he#2/#3 and de:ev#2a/#3a restate the weighted and averaging
# conditions on a Lie (co)algebra and share their bodies

@identity("eq:cee", ("A", "A"))
@identity("de:he#2", ("A", "A"))
def _rb_weight(ctx, idx):
    i, j = idx
    A, R, lam = ctx.A, ctx.R, ctx.lam
    a, b = A.basis_vector(i), A.basis_vector(j)
    Ra, Rb = R.col(i), R.col(j)
    return [A.mul(Ra, Rb),
            vneg(R.apply(A.mul(Ra, b))),
            vneg(R.apply(A.mul(a, Rb))),
            vneg(R.apply(vscale(lam, A.product(i, j))))]


def _paired_terms(ctx, idx, outer, first, second):
    """outer(a)outer(b) - outer(first(a) b) - outer(a second(b))."""
    i, j = idx
    A = ctx.A
    a, b = A.basis_vector(i), A.basis_vector(j)
    return [A.mul(outer.col(i), outer.col(j)),
            vneg(outer.apply(A.mul(first.col(i), b))),
            vneg(outer.apply(A.mul(a, second.col(j))))]


# one body each for R(a)R(b) = R(R(a)b + aS(b)) and its S mirror, under the
# tags of the plain, symmetric and Lie kinds

@identity("eq:rbs1", ("A", "A"))
@identity("eq:ea0#1", ("A", "A"))
@identity("eq:gh0", ("A", "A"))
def _r_rs(ctx, idx):
    return _paired_terms(ctx, idx, ctx.R, ctx.R, ctx.S)


@identity("eq:rbs2", ("A", "A"))
@identity("eq:ea1#1", ("A", "A"))
@identity("eq:gh1", ("A", "A"))
def _s_rs(ctx, idx):
    return _paired_terms(ctx, idx, ctx.S, ctx.R, ctx.S)


@identity("eq:ea0#2", ("A", "A"))
def _ea0b(ctx, idx):
    return _paired_terms(ctx, idx, ctx.R, ctx.S, ctx.R)


@identity("eq:ea1#2", ("A", "A"))
def _ea1b(ctx, idx):
    return _paired_terms(ctx, idx, ctx.S, ctx.S, ctx.R)


@identity("eq:et1#1", ("A", "A"))
@identity("de:ev#2a", ("A", "A"))
def _avg1(ctx, idx):
    i, j = idx
    A, R = ctx.A, ctx.R
    return [A.mul(R.col(i), R.col(j)), vneg(R.apply(A.mul(R.col(i), A.basis_vector(j))))]


@identity("eq:et1#2", ("A", "A"))
def _avg2(ctx, idx):
    i, j = idx
    A, R = ctx.A, ctx.R
    return [A.mul(R.col(i), R.col(j)), vneg(R.apply(A.mul(A.basis_vector(i), R.col(j))))]


@identity("eq:ew1", ("A", "A"))
def _nijenhuis(ctx, idx):
    i, j = idx
    A, N = ctx.A, ctx.R
    a, b = A.basis_vector(i), A.basis_vector(j)
    return [A.mul(N.col(i), N.col(j)),
            N.apply(N.apply(A.product(i, j))),
            vneg(N.apply(A.mul(N.col(i), b))),
            vneg(N.apply(A.mul(a, N.col(j))))]


# operator identities on coalgebras; Sweedler sums become leg operations

def _cos_terms(ctx, i, outer, first, second):
    """(outer (x) outer)D(c) - (first (x) id)D(outer c) - (id (x) second)D(outer c)."""
    C = ctx.C
    d = C.delta_basis(i)
    douter = C.delta(outer.col(i))
    return [leg_apply(leg_apply(d, outer, 1), outer, 2),
            -leg_apply(douter, first, 1),
            -leg_apply(douter, second, 2)]


@identity("eq:cu#1", ("C",))
@identity("eq:ek0", ("C",))
def _q_qt(ctx, idx):
    return _cos_terms(ctx, idx[0], ctx.Q, ctx.Q, ctx.T)


@identity("eq:cu#2", ("C",))
def _cu2(ctx, idx):
    return _cos_terms(ctx, idx[0], ctx.Q, ctx.T, ctx.Q)


@identity("eq:cu1#1", ("C",))
@identity("eq:ek1", ("C",))
def _t_qt(ctx, idx):
    return _cos_terms(ctx, idx[0], ctx.T, ctx.Q, ctx.T)


@identity("eq:cu1#2", ("C",))
def _cu1_2(ctx, idx):
    return _cos_terms(ctx, idx[0], ctx.T, ctx.T, ctx.Q)


@identity("rmk:gb#2", ("C",))
@identity("de:he#3", ("A",))
def _rb_coweight(ctx, idx):
    (i,) = idx
    C, Q, lam = ctx.C, ctx.Q, ctx.lam
    d = C.delta_basis(i)
    dq = C.delta(Q.col(i))
    return [leg_apply(leg_apply(d, Q, 1), Q, 2),
            -leg_apply(dq, Q, 1), -leg_apply(dq, Q, 2), -dq.scale(lam)]


@identity("eq:et2#1", ("C",))
@identity("de:ev#3a", ("A",))
def _coavg1(ctx, idx):
    (i,) = idx
    C, Q = ctx.C, ctx.Q
    d = C.delta_basis(i)
    return [leg_apply(leg_apply(d, Q, 1), Q, 2), -leg_apply(C.delta(Q.col(i)), Q, 1)]


@identity("eq:et2#2", ("C",))
def _coavg2(ctx, idx):
    (i,) = idx
    C, Q = ctx.C, ctx.Q
    d = C.delta_basis(i)
    return [leg_apply(leg_apply(d, Q, 1), Q, 2), -leg_apply(C.delta(Q.col(i)), Q, 2)]


# symmetric Yang-Baxter pairs; placements multiply in the shared leg

@identity("de:eh#1a", ())
def _ybs_1a(ctx, idx):
    A, r, s = ctx.A, ctx.r, ctx.s
    return [placement_product(A, r, (1, 2), r, (2, 3)),
            -placement_product(A, r, (1, 3), r, (1, 2)),
            -placement_product(A, s, (2, 3), r, (1, 3))]


@identity("de:eh#1b", ())
def _ybs_1b(ctx, idx):
    A, r, s = ctx.A, ctx.r, ctx.s
    return [placement_product(A, r, (1, 2), r, (2, 3)),
            -placement_product(A, r, (1, 3), s, (1, 2)),
            -placement_product(A, r, (2, 3), r, (1, 3))]


@identity("de:eh#2a", ())
def _ybs_2a(ctx, idx):
    A, r, s = ctx.A, ctx.r, ctx.s
    return [placement_product(A, s, (1, 2), s, (2, 3)),
            -placement_product(A, s, (1, 3), r, (1, 2)),
            -placement_product(A, s, (2, 3), s, (1, 3))]


@identity("de:eh#2b", ())
def _ybs_2b(ctx, idx):
    A, r, s = ctx.A, ctx.r, ctx.s
    return [placement_product(A, s, (1, 2), s, (2, 3)),
            -placement_product(A, s, (1, 3), s, (1, 2)),
            -placement_product(A, r, (2, 3), s, (1, 3))]


# ---------------------------------------------------------------------------
# checkers

_ALG_KINDS = {
    "rb_weight": (("eq:cee",), 1, True),
    "rbs": (("eq:rbs1", "eq:rbs2"), 2, False),
    "symmetric_rbs": (("eq:ea0#1", "eq:ea0#2", "eq:ea1#1", "eq:ea1#2"), 2, False),
    "averaging": (("eq:et1#1", "eq:et1#2"), 1, False),
    "nijenhuis": (("eq:ew1",), 1, False),
    "lie_rbs": (("eq:gh0", "eq:gh1"), 2, False),
}

_COALG_KINDS = {
    "symmetric_rb_cosystem": (("eq:cu#1", "eq:cu#2", "eq:cu1#1", "eq:cu1#2"), 2, False),
    "rb_coalgebra_weight": (("rmk:gb#2",), 1, True),
    "coaveraging": (("eq:et2#1", "eq:et2#2"), 1, False),
    "lie_rb_cosystem": (("eq:ek0", "eq:ek1"), 2, False),
}


def operator_system_identities(kind: str, sys: OperatorSystem):
    """The tag tuple and context that `check_operator_system` runs, after its
    payload rules; search compiles its GF(p) rows from the same pair."""
    if kind not in _ALG_KINDS:
        raise PayloadError(f"unknown operator-system kind {kind!r}")
    tags, nmaps, needs_weight = _ALG_KINDS[kind]
    if nmaps == 2 and sys.S is None:
        raise PayloadError(f"kind {kind!r} needs two maps")
    if needs_weight and sys.weight is None:
        raise PayloadError(f"kind {kind!r} needs a weight")
    if kind == "lie_rbs" and not isinstance(sys.carrier, LieAlgebra):
        raise PayloadError("kind 'lie_rbs' needs a Lie-algebra carrier")
    ctx = Ctx({"A": sys.carrier.basis}, A=sys.carrier, R=sys.R, S=sys.S, lam=sys.weight)
    return tags, ctx


def check_operator_system(kind: str, sys: OperatorSystem) -> "Report":
    """Run the defining identities of one operator-system kind on every
    basis pair."""
    return run_identities(f"operator-system:{kind}", *operator_system_identities(kind, sys))


def cosystem_identities(kind: str, sys: CoOperatorSystem):
    """The tag tuple and context that `check_cosystem` runs, after its
    payload rules; search compiles its GF(p) rows from the same pair."""
    if kind not in _COALG_KINDS:
        raise PayloadError(f"unknown cosystem kind {kind!r}")
    tags, nmaps, needs_weight = _COALG_KINDS[kind]
    if nmaps == 2 and sys.T is None:
        raise PayloadError(f"kind {kind!r} needs two maps")
    if needs_weight and sys.weight is None:
        raise PayloadError(f"kind {kind!r} needs a weight")
    if kind == "lie_rb_cosystem" and not isinstance(sys.carrier, LieCoalgebra):
        raise PayloadError("kind 'lie_rb_cosystem' needs a Lie-coalgebra carrier")
    ctx = Ctx({"C": sys.carrier.basis}, C=sys.carrier, Q=sys.Q, T=sys.T, lam=sys.weight)
    return tags, ctx


def check_cosystem(kind: str, sys: CoOperatorSystem) -> "Report":
    """Run the defining identities of one cosystem kind on every basis
    element."""
    return run_identities(f"cosystem:{kind}", *cosystem_identities(kind, sys))


def check_ybpair(A, r: Tensor2, s: Tensor2) -> "Report":
    """Yang-Baxter pair condition (single ordering)."""
    square_on(A, r, s)
    ctx = Ctx({}, A=A, r=r, s=s)
    return run_identities("yb-pair", ("de:eh#1a", "de:eh#2a"), ctx)


_YBPAIR_TAGS = ("de:eh#1a", "de:eh#1b", "de:eh#2a", "de:eh#2b")


def check_symmetric_ybpair(A, r: Tensor2, s: Tensor2) -> "Report":
    """Both orderings: (r, s) and (s, r) each satisfy the pair condition."""
    square_on(A, r, s)
    ctx = Ctx({}, A=A, r=r, s=s)
    return run_identities("symmetric-yb-pair", _YBPAIR_TAGS, ctx)


# ---------------------------------------------------------------------------
# constructive operations

def weight_embed(A, R: Matrix, lam) -> OperatorSystem:
    """Embed a weighted operator as the pair (R, R + lam*id)."""
    square_on(A, R)
    lam = A.field.coerce(lam)
    S = R + Matrix.identity(A.field, A.dim).scale(lam)
    return OperatorSystem(A, R, S)


def _is_central(A, x):
    return all(A.mul(x, A.basis_vector(i)) == A.mul(A.basis_vector(i), x)
               for i in range(A.dim))


def srbs_from_central(A, r_elt, s_elt) -> OperatorSystem:
    """Maps a -> a.r and a -> s.a from central elements with r.s = 0."""
    violations = []
    for name, x in (("r", r_elt), ("s", s_elt)):
        if not _is_central(A, x):
            violations.append(Violation("central-element", (name,),
                                        tuple(str(c) for c in x)))
    prod = A.mul(r_elt, s_elt)
    if any(prod):
        violations.append(Violation("orthogonal-product", ("r", "s"),
                                    tuple(str(c) for c in prod)))
    require(make_report("central-pair", violations), "central-pair hypotheses failed")
    return OperatorSystem(A, A.right_mult(r_elt), A.left_mult(s_elt))


def _sandwich_map(A, t: Tensor2) -> Matrix:
    """Map a -> sum t[u][v] e_u a e_v."""
    cols = []
    for j in range(A.dim):
        acc = [A.field.zero()] * A.dim
        for u in range(A.dim):
            for v in range(A.dim):
                c = t[u, v]
                if c:
                    term = A.mul(A.mul(A.basis_vector(u), A.basis_vector(j)),
                                 A.basis_vector(v))
                    acc = [a + c * x for a, x in zip(acc, term)]
        cols.append(tuple(acc))
    return Matrix.from_cols(A.field, cols)


def srbs_from_ybpair(A, r: Tensor2, s: Tensor2) -> OperatorSystem:
    """Sandwich maps of a symmetric Yang-Baxter pair."""
    require(check_symmetric_ybpair(A, r, s), "hypothesis failed: symmetric Yang-Baxter pair")
    return OperatorSystem(A, _sandwich_map(A, r), _sandwich_map(A, s))


def _product_table(A, fn):
    return [[fn(i, j) for j in range(A.dim)] for i in range(A.dim)]


def split_dendriform(A, R: Matrix, S: Matrix):
    """Two dendriform splittings of a paired system: (aS(b), R(a)b) and (aR(b), S(a)b)."""
    require(check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)),
            "hypothesis failed: symmetric paired system")
    def halves(left_map, right_map):
        prec = Algebra(A.field, _product_table(
            A, lambda i, j: A.mul(A.basis_vector(i), right_map.col(j))),
            basis=A.basis, raw=True)
        succ = Algebra(A.field, _product_table(
            A, lambda i, j: A.mul(left_map.col(i), A.basis_vector(j))),
            basis=A.basis, raw=True)
        return prec, succ
    return halves(R, S), halves(S, R)


def derived_products(A, R: Matrix, S: Matrix):
    """Associative products R(a)b + aS(b), aR(b) + S(a)b and the two
    products R(a)b - bS(a), S(a)b - bR(a) with symmetric associator."""
    require(check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)),
            "hypothesis failed: symmetric paired system")
    star = Algebra(A.field, _product_table(
        A, lambda i, j: vadd(A.mul(R.col(i), A.basis_vector(j)),
                             A.mul(A.basis_vector(i), S.col(j)))),
        basis=A.basis, raw=True)
    starp = Algebra(A.field, _product_table(
        A, lambda i, j: vadd(A.mul(A.basis_vector(i), R.col(j)),
                             A.mul(S.col(i), A.basis_vector(j)))),
        basis=A.basis, raw=True)
    bullet = Algebra(A.field, _product_table(
        A, lambda i, j: vsub(A.mul(R.col(i), A.basis_vector(j)),
                             A.mul(A.basis_vector(j), S.col(i)))),
        basis=A.basis, raw=True)
    bulletp = Algebra(A.field, _product_table(
        A, lambda i, j: vsub(A.mul(S.col(i), A.basis_vector(j)),
                             A.mul(A.basis_vector(j), R.col(i)))),
        basis=A.basis, raw=True)
    return star, starp, bullet, bulletp


@identity("eq:cxx1", ("A", "A"))
def _cxx1(ctx, idx):
    i, j = idx
    A, R, S = ctx.A, ctx.R, ctx.S
    return [A.mul(R.col(i), S.col(j)),
            vneg(R.apply(A.mul(A.basis_vector(i), S.col(j)))),
            vneg(S.apply(A.mul(R.col(i), A.basis_vector(j))))]


@identity("eq:cxx2", ("A", "A"))
def _cxx2(ctx, idx):
    i, j = idx
    A, R, S = ctx.A, ctx.R, ctx.S
    return [A.mul(S.col(i), R.col(j)),
            vneg(S.apply(A.mul(A.basis_vector(i), R.col(j)))),
            vneg(R.apply(A.mul(S.col(i), A.basis_vector(j))))]


def check_crossed_products(A, R: Matrix, S: Matrix) -> "Report":
    """R(a)S(b) = R(aS(b)) + S(R(a)b) and its mirror."""
    ctx = Ctx({"A": A.basis}, A=A, R=R, S=S)
    return run_identities("crossed-products", ("eq:cxx1", "eq:cxx2"), ctx)


def nijenhuis_from_srbs(A, R: Matrix, S: Matrix):
    """(star product, R - S) pairs; both satisfy the Nijenhuis identity."""
    require(check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)),
            "hypothesis failed: symmetric paired system")
    require(check_crossed_products(A, R, S), "hypothesis failed: crossed-product compatibility")
    star, starp, _, _ = derived_products(A, R, S)
    N = R - S
    return OperatorSystem(star, N), OperatorSystem(starp, N)


def commutator_lift(A, R: Matrix, S: Matrix) -> OperatorSystem:
    """Carry the maps onto the commutator bracket [x, y] = xy - yx."""
    require(check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)),
            "hypothesis failed: symmetric paired system")
    return OperatorSystem(commutator(A), R, S)


def cocommutator_lift(C, Q: Matrix, T: Matrix) -> CoOperatorSystem:
    """Carry the maps onto the cocommutator d = Delta - flip(Delta)."""
    require(check_cosystem("symmetric_rb_cosystem", CoOperatorSystem(C, Q, T)),
            "hypothesis failed: symmetric paired cosystem")
    return CoOperatorSystem(cocommutator(C), Q, T)
