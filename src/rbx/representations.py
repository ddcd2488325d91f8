"""Bimodules, representations of paired operator systems, duals, and the
induced module structures (semidirect products, End(M), hat actions).

`bowtie` builds every direct-sum product table in the toolkit: the product
on A + B of a matched pair (`MatchedPairData`), which `semidirect_algebra`
takes with the zero algebra on M and zero actions on A, and the Lie bracket
of `bridges.lie_matched_pair_report` with coadjoint actions.  Its result has
the class of A's carrier.

Right actions are stored as matrices applied to column vectors, with the
composition convention m.r(ab) = (m.r(a)).r(b) encoded as r(b) @ r(a); the
convention is fixed here once and exercised by the bimodule axioms.

Each of the five display families of 8 (`eq:cf*`, `eq:cj*`, `eq:ck*`,
`eq:ck5*`-`eq:ck8*`, `eq:dn*`) has one term helper (`_cf_terms`, ...), in
which a is the display's basis element and m the basis vector of M.  Each
tag keeps its own `def`, which calls its family's helper, and its own
summand order, which seeded faults index.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PayloadError, require
from .kernel import (Matrix, _combine, _leg_apply, block_diag, bv, combine, kron, same_field,
                     vneg, vsub)
from .identities import Ctx, identity, run_identities
from .report import Violation, make_report
from .systems import OperatorSystem, check_operator_system
from .structures import Algebra, square_on


def _act(mats, avec, m):
    """sum_k avec[k] * mats[k](m): the action of the element with
    coordinates `avec` through the per-basis action matrices `mats`, on
    tuples of stored scalars (`kernel._combine`, then `Matrix._apply`)."""
    return _combine(mats[0].field, mats[0].rows, avec, mats.__getitem__)._apply(m)


class Bimodule:
    """Module data: ell(e_i) and r(e_i) as matrices on an mdim-dim space,
    all over one field (another raises `FieldError`)."""

    def __init__(self, mdim, left, right, labels=None):
        self.mdim = mdim
        self.left = tuple(left)
        self.right = tuple(right)
        if len(self.left) != len(self.right):
            raise PayloadError("left/right action lists differ in length")
        for m in self.left + self.right:
            if m.rows != mdim or m.cols != mdim:
                raise PayloadError("action matrix does not match the module dimension")
            same_field(self.left[0].field, m.field)
        self.adim = len(self.left)
        self.labels = tuple(labels) if labels else tuple(f"m{i}" for i in range(mdim))

    @property
    def field(self):
        return self.left[0].field if self.left else None


class Representation:
    def __init__(self, bimodule: Bimodule, alpha: Matrix, beta: Matrix):
        for m in (alpha, beta):
            if m.rows != bimodule.mdim or m.cols != bimodule.mdim:
                raise PayloadError("structure map does not match the module dimension")
        self.bimodule = bimodule
        self.alpha = alpha
        self.beta = beta


def adjoint_bimodule(A) -> Bimodule:
    left = [A.left_mult_basis(i) for i in range(A.dim)]
    right = [A.right_mult_basis(i) for i in range(A.dim)]
    return Bimodule(A.dim, left, right, labels=A.basis)


def dual_bimodule(M: Bimodule) -> Bimodule:
    """Dual module: the left action is the transposed right action and
    conversely."""
    left = [m.transpose() for m in M.right]
    right = [m.transpose() for m in M.left]
    return Bimodule(M.mdim, left, right, labels=tuple(f"{x}*" for x in M.labels))


class MatchedPairData:
    """Two carriers with mutual actions; optionally a map pair on each side.

    Actions follow the module storage convention: `left_a[i]` is the matrix
    of the action of the i-th basis vector of A on B, `right_a[i]` its right
    counterpart, and `left_b`/`right_b` act on A.
    """

    def __init__(self, A, B, left_a, right_a, left_b, right_b,
                 maps_a=None, maps_b=None):
        self.A = A
        self.B = B
        self.left_a = tuple(left_a)
        self.right_a = tuple(right_a)
        self.left_b = tuple(left_b)
        self.right_b = tuple(right_b)
        if len(self.left_a) != A.dim or len(self.right_a) != A.dim:
            raise PayloadError("A-action list length must equal dim A")
        if len(self.left_b) != B.dim or len(self.right_b) != B.dim:
            raise PayloadError("B-action list length must equal dim B")
        for m in self.left_a + self.right_a:
            if m.rows != B.dim or m.cols != B.dim:
                raise PayloadError("A acts on B; matrices must be dim-B square")
        for m in self.left_b + self.right_b:
            if m.rows != A.dim or m.cols != A.dim:
                raise PayloadError("B acts on A; matrices must be dim-A square")
        self.maps_a = maps_a  # (R_A, S_A)
        self.maps_b = maps_b  # (R_B, S_B)

    def module_over_a(self) -> Bimodule:
        return Bimodule(self.B.dim, self.left_a, self.right_a, labels=self.B.basis)

    def module_over_b(self) -> Bimodule:
        return Bimodule(self.A.dim, self.left_b, self.right_b, labels=self.A.basis)


def bowtie(mp: MatchedPairData):
    """Product on A + B built from the mutual actions, as a raw table of
    A's class; for algebras the matched-pair condition is exactly its
    associativity."""
    A, B = mp.A, mp.B
    n, m = A.dim, B.dim
    z = A.field.zero()
    table = [[None] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            table[i][j] = tuple(A.product(i, j)) + (z,) * m
        for v in range(m):
            # e_i . f_v = e_i r_B(f_v) + ell_A(e_i) f_v
            table[i][n + v] = tuple(mp.right_b[v].col(i)) + tuple(mp.left_a[i].col(v))
    for u in range(m):
        for j in range(n):
            # f_u . e_j = ell_B(f_u) e_j + f_u r_A(e_j)
            table[n + u][j] = tuple(mp.left_b[u].col(j)) + tuple(mp.right_a[j].col(u))
        for v in range(m):
            table[n + u][n + v] = (z,) * n + tuple(B.product(u, v))
    return type(A)(A.field, table, basis=A.basis + B.basis, raw=True)


# ---------------------------------------------------------------------------
# identity catalog: bimodule and representation conditions

def _mv(ctx, u):
    return bv(ctx.M.left[0].field, ctx.M.mdim, u)


@identity("eq:cb#1", ("A", "A", "M"))
def _cb1(ctx, idx):
    i, j, u = idx
    M = ctx.M
    m = _mv(ctx, u)
    return [M.left[i]._apply(M.left[j]._apply(m)),
            vneg(_act(M.left, ctx.A.product(i, j), m))]


@identity("eq:cb#2", ("A", "A", "M"))
def _cb2(ctx, idx):
    i, j, u = idx
    M = ctx.M
    m = _mv(ctx, u)
    return [_act(M.right, ctx.A.product(i, j), m),
            vneg(M.right[j]._apply(M.right[i]._apply(m)))]


@identity("eq:cb1", ("A", "A", "M"))
def _cb_mixed(ctx, idx):
    i, j, u = idx
    M = ctx.M
    m = _mv(ctx, u)
    return [M.left[i]._apply(M.right[j]._apply(m)),
            vneg(M.right[j]._apply(M.left[i]._apply(m)))]


def _cf_terms(ctx, idx, acts, outer, y, inner, w):
    """act(outer(a), y(m)) - y(act(inner(a), m)) - y(a.w(m)) through the
    per-basis action matrices `acts` (M's left or right actions)."""
    i, u = idx
    m = _mv(ctx, u)
    return [_act(acts, outer.col(i), y.col(u)),
            vneg(y._apply(_act(acts, inner.col(i), m))),
            vneg(y._apply(acts[i]._apply(w.col(u))))]


@identity("eq:cf#1", ("A", "M"))
@identity("de:eo#1a", ("A", "M"))
def _cf_1(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.left, ctx.R, ctx.alpha, ctx.R, ctx.beta)


@identity("eq:cf#2", ("A", "M"))
@identity("de:eo#1b", ("A", "M"))
def _cf_2(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.left, ctx.R, ctx.alpha, ctx.S, ctx.alpha)


@identity("eq:cf2#1", ("A", "M"))
def _cf2_1(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.right, ctx.R, ctx.alpha, ctx.R, ctx.beta)


@identity("eq:cf2#2", ("A", "M"))
def _cf2_2(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.right, ctx.R, ctx.alpha, ctx.S, ctx.alpha)


@identity("eq:cf1#1", ("A", "M"))
@identity("de:eo#2a", ("A", "M"))
def _cf1_1(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.left, ctx.S, ctx.beta, ctx.R, ctx.beta)


@identity("eq:cf1#2", ("A", "M"))
@identity("de:eo#2b", ("A", "M"))
def _cf1_2(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.left, ctx.S, ctx.beta, ctx.S, ctx.alpha)


@identity("eq:cf3#1", ("A", "M"))
def _cf3_1(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.right, ctx.S, ctx.beta, ctx.R, ctx.beta)


@identity("eq:cf3#2", ("A", "M"))
def _cf3_2(ctx, idx):
    return _cf_terms(ctx, idx, ctx.M.right, ctx.S, ctx.beta, ctx.S, ctx.alpha)


_CF_TAGS = ("eq:cf#1", "eq:cf#2", "eq:cf2#1", "eq:cf2#2",
            "eq:cf1#1", "eq:cf1#2", "eq:cf3#1", "eq:cf3#2")


def _cj_terms(ctx, idx, acts, y, outer, v, inner, swap=False):
    """y(act(outer(a), m)), -v(a.y(m)) and -act(inner(a), y(m)) through
    `acts`; `swap` lists the last two summands the other way round."""
    i, u = idx
    m = _mv(ctx, u)
    first = y._apply(_act(acts, outer.col(i), m))
    by_v = vneg(v._apply(acts[i]._apply(y.col(u))))
    by_inner = vneg(_act(acts, inner.col(i), y.col(u)))
    return [first, by_inner, by_v] if swap else [first, by_v, by_inner]


@identity("eq:cj#1", ("A", "M"))
def _cj_1(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.left, ctx.xi, ctx.R, ctx.xi, ctx.S)


@identity("eq:cj#2", ("A", "M"))
def _cj_2(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.left, ctx.xi, ctx.R, ctx.zeta, ctx.R, swap=True)


@identity("eq:cj1#1", ("A", "M"))
def _cj1_1(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.right, ctx.xi, ctx.R, ctx.xi, ctx.S)


@identity("eq:cj1#2", ("A", "M"))
def _cj1_2(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.right, ctx.xi, ctx.R, ctx.zeta, ctx.R, swap=True)


@identity("eq:cj2#1", ("A", "M"))
def _cj2_1(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.left, ctx.zeta, ctx.S, ctx.xi, ctx.S)


@identity("eq:cj2#2", ("A", "M"))
def _cj2_2(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.left, ctx.zeta, ctx.S, ctx.zeta, ctx.R, swap=True)


@identity("eq:cj3#1", ("A", "M"))
def _cj3_1(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.right, ctx.zeta, ctx.S, ctx.xi, ctx.S)


@identity("eq:cj3#2", ("A", "M"))
def _cj3_2(ctx, idx):
    return _cj_terms(ctx, idx, ctx.M.right, ctx.zeta, ctx.S, ctx.zeta, ctx.R, swap=True)


_CJ_TAGS = ("eq:cj#1", "eq:cj#2", "eq:cj1#1", "eq:cj1#2",
            "eq:cj2#1", "eq:cj2#2", "eq:cj3#1", "eq:cj3#2")


# adjoint and coadjoint admissibility; the Lie bisystem compatibility displays
# eq:emm1#*-emm4#* restate eq:ck#*, ck2#*, ck5#* and ck7#* on a Lie (co)algebra

def _ck_terms(ctx, idx, y, outer, v, inner, opposite=False, swap=False):
    """y(outer(a).b), -v(a.y(b)) and -inner(a).y(b), where a = e_i and
    b = e_j; with `opposite`, every product is taken in the other order and
    a = e_j, b = e_i.  `swap` lists the last two summands the other way round."""
    mul, e = ctx.A._mul, ctx.A.basis_vector
    i, j = idx[::-1] if opposite else idx
    ea, eb, oa, ia, yb = e(i), e(j), outer.col(i), inner.col(i), y.col(j)
    if opposite:
        first, by_v, by_inner = mul(eb, oa), mul(yb, ea), mul(yb, ia)
    else:
        first, by_v, by_inner = mul(oa, eb), mul(ea, yb), mul(ia, yb)
    first, by_v, by_inner = y._apply(first), vneg(v._apply(by_v)), vneg(by_inner)
    return [first, by_inner, by_v] if swap else [first, by_v, by_inner]


@identity("eq:ck#1", ("A", "A"))
@identity("eq:emm1#2", ("A", "A"))
def _ck_1(ctx, idx):
    return _ck_terms(ctx, idx, ctx.Q, ctx.R, ctx.Q, ctx.S)


@identity("eq:ck#2", ("A", "A"))
@identity("eq:emm1#1", ("A", "A"))
def _ck_2(ctx, idx):
    return _ck_terms(ctx, idx, ctx.Q, ctx.R, ctx.T, ctx.R, swap=True)


@identity("eq:ck1#1", ("A", "A"))
def _ck1_1(ctx, idx):
    return _ck_terms(ctx, idx, ctx.Q, ctx.R, ctx.Q, ctx.S, opposite=True)


@identity("eq:ck1#2", ("A", "A"))
def _ck1_2(ctx, idx):
    return _ck_terms(ctx, idx, ctx.Q, ctx.R, ctx.T, ctx.R, opposite=True, swap=True)


@identity("eq:ck2#1", ("A", "A"))
@identity("eq:emm2#2", ("A", "A"))
def _ck2_1(ctx, idx):
    return _ck_terms(ctx, idx, ctx.T, ctx.S, ctx.Q, ctx.S)


@identity("eq:ck2#2", ("A", "A"))
@identity("eq:emm2#1", ("A", "A"))
def _ck2_2(ctx, idx):
    return _ck_terms(ctx, idx, ctx.T, ctx.S, ctx.T, ctx.R)


@identity("eq:ck3#1", ("A", "A"))
def _ck3_1(ctx, idx):
    return _ck_terms(ctx, idx, ctx.T, ctx.S, ctx.Q, ctx.S, opposite=True)


@identity("eq:ck3#2", ("A", "A"))
def _ck3_2(ctx, idx):
    return _ck_terms(ctx, idx, ctx.T, ctx.S, ctx.T, ctx.R, opposite=True)


_CK_TAGS = ("eq:ck#1", "eq:ck#2", "eq:ck1#1", "eq:ck1#2",
            "eq:ck2#1", "eq:ck2#2", "eq:ck3#1", "eq:ck3#2")


def _ck5_terms(ctx, idx, leg, y, x, w, v):
    """y on leg `leg` of Delta(x(a)), -x on the other leg of Delta(w(a)),
    and -(v on leg `leg`, x on the other)Delta(a), where a = e_i."""
    (i,) = idx
    C = ctx.C
    dxa = C._delta(x.col(i))
    dwa = dxa if w is x else C._delta(w.col(i))
    first, second = (v, x) if leg == 1 else (x, v)
    return [_leg_apply(dxa, y, leg), -_leg_apply(dwa, x, 3 - leg),
            -_leg_apply(_leg_apply(C.delta_basis(i), first, 1), second, 2)]


@identity("eq:ck5#1", ("A",))
@identity("eq:emm3#1", ("A",))
def _ck5_1(ctx, idx):
    return _ck5_terms(ctx, idx, 1, ctx.Q, ctx.R, ctx.R, ctx.T)


@identity("eq:ck5#2", ("A",))
@identity("eq:emm3#2", ("A",))
def _ck5_2(ctx, idx):
    return _ck5_terms(ctx, idx, 1, ctx.Q, ctx.R, ctx.S, ctx.Q)


@identity("eq:ck6#1", ("A",))
def _ck6_1(ctx, idx):
    return _ck5_terms(ctx, idx, 2, ctx.Q, ctx.R, ctx.S, ctx.Q)


@identity("eq:ck6#2", ("A",))
def _ck6_2(ctx, idx):
    return _ck5_terms(ctx, idx, 2, ctx.Q, ctx.R, ctx.R, ctx.T)


@identity("eq:ck7#1", ("A",))
@identity("eq:emm4#1", ("A",))
def _ck7_1(ctx, idx):
    return _ck5_terms(ctx, idx, 1, ctx.T, ctx.S, ctx.R, ctx.T)


@identity("eq:ck7#2", ("A",))
@identity("eq:emm4#2", ("A",))
def _ck7_2(ctx, idx):
    return _ck5_terms(ctx, idx, 1, ctx.T, ctx.S, ctx.S, ctx.Q)


@identity("eq:ck8#1", ("A",))
def _ck8_1(ctx, idx):
    return _ck5_terms(ctx, idx, 2, ctx.T, ctx.S, ctx.S, ctx.Q)


@identity("eq:ck8#2", ("A",))
def _ck8_2(ctx, idx):
    return _ck5_terms(ctx, idx, 2, ctx.T, ctx.S, ctx.R, ctx.T)


_CK5_TAGS = ("eq:ck5#1", "eq:ck5#2", "eq:ck6#1", "eq:ck6#2",
             "eq:ck7#1", "eq:ck7#2", "eq:ck8#1", "eq:ck8#2")


def _dn_terms(ctx, idx, acts, y, w, v, x, z):
    """y(a.w(m)) - v(act(x(a), m)) - act(x(a), z(m)) through `acts`."""
    i, u = idx
    m = _mv(ctx, u)
    return [y._apply(acts[i]._apply(w.col(u))),
            vneg(v._apply(_act(acts, x.col(i), m))),
            vneg(_act(acts, x.col(i), z.col(u)))]


@identity("eq:dn#1", ("A", "M"))
def _dn_1(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.right, ctx.xi, ctx.alpha, ctx.xi, ctx.Q, ctx.beta)


@identity("eq:dn#2", ("A", "M"))
def _dn_2(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.right, ctx.xi, ctx.alpha, ctx.zeta, ctx.Q, ctx.alpha)


@identity("eq:dn1#1", ("A", "M"))
def _dn1_1(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.left, ctx.xi, ctx.alpha, ctx.zeta, ctx.Q, ctx.alpha)


@identity("eq:dn1#2", ("A", "M"))
def _dn1_2(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.left, ctx.xi, ctx.alpha, ctx.xi, ctx.Q, ctx.beta)


@identity("eq:dn2#1", ("A", "M"))
def _dn2_1(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.right, ctx.zeta, ctx.beta, ctx.xi, ctx.T, ctx.beta)


@identity("eq:dn2#2", ("A", "M"))
def _dn2_2(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.right, ctx.zeta, ctx.beta, ctx.zeta, ctx.T, ctx.alpha)


@identity("eq:dn3#1", ("A", "M"))
def _dn3_1(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.left, ctx.zeta, ctx.beta, ctx.zeta, ctx.T, ctx.alpha)


@identity("eq:dn3#2", ("A", "M"))
def _dn3_2(ctx, idx):
    return _dn_terms(ctx, idx, ctx.M.left, ctx.zeta, ctx.beta, ctx.xi, ctx.T, ctx.beta)


_DN_TAGS = ("eq:dn#1", "eq:dn#2", "eq:dn1#1", "eq:dn1#2",
            "eq:dn2#1", "eq:dn2#2", "eq:dn3#1", "eq:dn3#2")


@identity("weighted-rep#1", ("A", "M"))
def _wrep_1(ctx, idx):
    i, u = idx
    M, R, al, lam = ctx.M, ctx.R, ctx.alpha, ctx.lam
    m = _mv(ctx, u)
    return [_act(M.left, R.col(i), al.col(u)),
            vneg(al._apply(_act(M.left, R.col(i), m))),
            vneg(al._apply(M.left[i]._apply(al.col(u)))),
            vneg(tuple(lam * x for x in al._apply(M.left[i]._apply(m))))]


@identity("weighted-rep#2", ("A", "M"))
def _wrep_2(ctx, idx):
    i, u = idx
    M, R, al, lam = ctx.M, ctx.R, ctx.alpha, ctx.lam
    m = _mv(ctx, u)
    return [_act(M.right, R.col(i), al.col(u)),
            vneg(al._apply(M.right[i]._apply(al.col(u)))),
            vneg(al._apply(_act(M.right, R.col(i), m))),
            vneg(tuple(lam * x for x in al._apply(M.right[i]._apply(m))))]


@identity("eq:reppreliealg1", ("A", "A", "M"))
def _prelie_rep1(ctx, idx):
    i, j, u = idx
    P, rho = ctx.P, ctx.rho
    m = bv(rho[0].field, rho[0].rows, u)
    comm = vsub(P.product(i, j), P.product(j, i))
    return [_act(rho, comm, m),
            vneg(rho[i]._apply(rho[j]._apply(m))),
            rho[j]._apply(rho[i]._apply(m))]


@identity("eq:reppreliealg2", ("A", "A", "M"))
def _prelie_rep2(ctx, idx):
    i, j, u = idx
    P, rho, phi = ctx.P, ctx.rho, ctx.phi
    m = bv(rho[0].field, rho[0].rows, u)
    return [_act(phi, P.product(i, j), m),
            vneg(rho[i]._apply(phi[j]._apply(m))),
            phi[j]._apply(rho[i]._apply(m)),
            vneg(phi[j]._apply(phi[i]._apply(m)))]


# ---------------------------------------------------------------------------
# checkers

_CB_TAGS = ("eq:cb#1", "eq:cb#2", "eq:cb1")


def _module_ctx(A, M, **maps):
    """The context of a check on the bimodule M over the carrier A, after
    the shape rules, which refuse a mis-shaped datum with `PayloadError`: M
    has one action per basis vector of A, the carrier maps R, S, Q and T are
    square on A (`square_on`), the module maps xi, zeta, alpha and beta are
    mdim x mdim, and tmap, from the module to the carrier, is A.dim x mdim.
    An absent or None map passes."""
    if M.adim != A.dim:
        raise PayloadError("action list length does not match the algebra dimension")
    square_on(A, *(maps.get(name) for name in ("R", "S", "Q", "T")))
    md = M.mdim
    shapes = {"xi": (md, md), "zeta": (md, md), "alpha": (md, md), "beta": (md, md),
              "tmap": (A.dim, md)}
    for name, shape in shapes.items():
        x = maps.get(name)
        if x is not None and x._axes() != shape:
            raise PayloadError(f"map {name} does not match the module dimension")
    return Ctx({"A": A.basis, "M": M.labels}, A=A, M=M, **maps)


def check_bimodule(A, M: Bimodule) -> "Report":
    return run_identities("bimodule", _CB_TAGS, _module_ctx(A, M))


def representation_identities(sys: OperatorSystem, rep: Representation):
    """The tag tuple and context of `check_representation` as one run: its
    violations, the representation conditions' and then the bimodule
    axioms', are those of `all_violations()`."""
    return _CF_TAGS + _CB_TAGS, _module_ctx(sys.carrier, rep.bimodule, R=sys.R, S=sys.S,
                                            alpha=rep.alpha, beta=rep.beta)


def check_representation(sys: OperatorSystem, rep: Representation) -> "Report":
    bi = check_bimodule(sys.carrier, rep.bimodule)
    _, ctx = representation_identities(sys, rep)
    own = run_identities("representation", _CF_TAGS, ctx)
    return make_report("representation", own.violations, subreports=(bi,))


def check_module_admissible(sys: OperatorSystem, M: Bimodule, xi: Matrix,
                            zeta: Matrix) -> "Report":
    """Conditions making the transposed pair a representation on the dual module."""
    ctx = _module_ctx(sys.carrier, M, R=sys.R, S=sys.S, xi=xi, zeta=zeta)
    return run_identities("module-admissible", _CJ_TAGS, ctx)


def adjoint_admissible_identities(A, R, S, Q, T):
    """The tag tuple and context that `adjoint_admissible_report` runs;
    search compiles its GF(p) rows from the same pair."""
    square_on(A, R, S, Q, T)
    return _CK_TAGS, Ctx({"A": A.basis}, A=A, R=R, S=S, Q=Q, T=T)


def adjoint_admissible_report(A, R, S, Q, T) -> "Report":
    return run_identities("adjoint-admissible", *adjoint_admissible_identities(A, R, S, Q, T))


def check_adjoint_admissible(A, R, S, Q, T) -> "Report":
    require(check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)),
            "carrier maps are not a symmetric paired system")
    return adjoint_admissible_report(A, R, S, Q, T)


def coadjoint_admissible_identities(A, C, R, S, Q, T):
    """The tag tuple and context that `coadjoint_admissible_report` runs."""
    square_on(A, C, R, S, Q, T)
    return _CK5_TAGS, Ctx({"A": A.basis}, A=A, C=C, R=R, S=S, Q=Q, T=T)


def coadjoint_admissible_report(A, C, R, S, Q, T) -> "Report":
    return run_identities("coadjoint-admissible",
                          *coadjoint_admissible_identities(A, C, R, S, Q, T))


def dn_identities(M: Bimodule, A, Q, T, alpha, beta, xi, zeta):
    """The tag tuple and context that `check_dn_conditions` runs."""
    return _DN_TAGS, _module_ctx(A, M, Q=Q, T=T, alpha=alpha, beta=beta, xi=xi, zeta=zeta)


def check_dn_conditions(M: Bimodule, A, Q, T, alpha, beta, xi, zeta) -> "Report":
    return run_identities("mixed-module-compat",
                          *dn_identities(M, A, Q, T, alpha, beta, xi, zeta))


def check_prelie_representation(P, rho, phi) -> "Report":
    """P is a product with symmetric associator; rho/phi are per-basis
    matrices, one of each per basis vector of P, all n x n."""
    n = rho[0].rows
    if not len(rho) == len(phi) == P.dim:
        raise PayloadError("action list length does not match the algebra dimension")
    if any(m._axes() != (n, n) for m in (*rho, *phi)):
        raise PayloadError("action matrix does not match the module dimension")
    labels = tuple(f"m{i}" for i in range(n))
    ctx = Ctx({"A": P.basis, "M": labels}, P=P, rho=tuple(rho), phi=tuple(phi))
    return run_identities("prelie-representation",
                          ("eq:reppreliealg1", "eq:reppreliealg2"), ctx)


def check_rep_homomorphism(sys, rep1: Representation, rep2: Representation,
                           f: Matrix) -> "Report":
    """f intertwines actions and structure maps of two representations."""
    M1, M2 = rep1.bimodule, rep2.bimodule
    violations = []
    for i in range(sys.carrier.dim):
        pairs = (("left", f @ M1.left[i], M2.left[i] @ f),
                 ("right", f @ M1.right[i], M2.right[i] @ f))
        for name, lhs, rhs in pairs:
            if lhs != rhs:
                violations.append(Violation("rep-homomorphism",
                                            (name, sys.carrier.basis[i]),
                                            tuple(str(x) for x in (lhs - rhs).entries)))
    for name, lhs, rhs in (("alpha", f @ rep1.alpha, rep2.alpha @ f),
                           ("beta", f @ rep1.beta, rep2.beta @ f)):
        if lhs != rhs:
            violations.append(Violation("rep-homomorphism", (name,),
                                        tuple(str(x) for x in (lhs - rhs).entries)))
    return make_report("rep-homomorphism", violations)


# ---------------------------------------------------------------------------
# constructions

def semidirect_algebra(A, M: Bimodule) -> Algebra:
    """Product (a+m)(b+n) = ab + ell(a)n + m r(b) on A + M, as a raw
    algebra: the `bowtie` of A with the zero algebra on M."""
    md = M.mdim
    zero_m = Algebra(A.field, [[(A.field.zero(),) * md] * md] * md, basis=M.labels, raw=True)
    zero_a = [Matrix.zero(A.field, A.dim)] * md
    return bowtie(MatchedPairData(A, zero_m, M.left, M.right, zero_a, zero_a))


def semidirect(sys: OperatorSystem, rep: Representation) -> OperatorSystem:
    """Paired system on A + M with block maps R+alpha, S+beta."""
    carrier = semidirect_algebra(sys.carrier, rep.bimodule)
    R = block_diag(sys.R, rep.alpha)
    S = block_diag(sys.S, rep.beta)
    return OperatorSystem(carrier, R, S)


def dual_representation(sys: OperatorSystem, M: Bimodule, xi: Matrix, zeta: Matrix):
    """Transposed data on the dual module, plus the report of the conditions
    under which it is a representation."""
    rep = Representation(dual_bimodule(M), xi.transpose(), zeta.transpose())
    return rep, check_module_admissible(sys, M, xi, zeta)


def endo_representation(sys: OperatorSystem, rep: Representation) -> Representation:
    """Induced representation on End(M) by postcomposition."""
    require(check_representation(sys, rep), "input is not a representation")
    M = rep.bimodule
    eye = Matrix.identity(sys.carrier.field, M.mdim)
    left = [kron(M.left[i], eye) for i in range(M.adim)]
    right = [kron(M.right[i], eye) for i in range(M.adim)]
    endo = Bimodule(M.mdim ** 2, left, right,
                    labels=tuple(f"E{p}{q}" for p in range(M.mdim) for q in range(M.mdim)))
    return Representation(endo, kron(rep.alpha, eye), kron(rep.beta, eye))


HatStructures = namedtuple("HatStructures",
                           "star star_module starp starp_module "
                           "bullet bullet_rho bullet_phi bulletp bulletp_rho bulletp_phi")


def hat_structures(sys: OperatorSystem, rep: Representation) -> HatStructures:
    """Module structures over the derived products.

    Over R(a)b + aS(b): ell^(a)m = ell(R(a))m + ell(a)beta(m) and
    m r^(a) = m r(S(a)) + alpha(m) r(a); over the primed product the roles
    of (R, alpha) and (S, beta) swap.  Over R(a)b - bS(a) the pair
    rho(a)m = ell(R(a))m - m r(S(a)), phi(a)m = alpha(m) r(a) - ell(a)beta(m)
    and its primed mirror.
    """
    require(check_representation(sys, rep), "input is not a representation")
    from .systems import derived_products
    A, R, S = sys.carrier, sys.R, sys.S
    M, al, be = rep.bimodule, rep.alpha, rep.beta
    star, starp, bullet, bulletp = derived_products(A, R, S)

    def act_combo(mats, col):
        return combine(A.field, M.mdim, col, mats.__getitem__)

    left1 = [act_combo(M.left, R.col(i)) + M.left[i] @ be for i in range(A.dim)]
    right1 = [act_combo(M.right, S.col(i)) + M.right[i] @ al for i in range(A.dim)]
    left2 = [act_combo(M.left, S.col(i)) + M.left[i] @ al for i in range(A.dim)]
    right2 = [act_combo(M.right, R.col(i)) + M.right[i] @ be for i in range(A.dim)]
    rho1 = [act_combo(M.left, R.col(i)) - act_combo(M.right, S.col(i)) for i in range(A.dim)]
    phi1 = [M.right[i] @ al - M.left[i] @ be for i in range(A.dim)]
    rho2 = [act_combo(M.left, S.col(i)) - act_combo(M.right, R.col(i)) for i in range(A.dim)]
    phi2 = [M.right[i] @ be - M.left[i] @ al for i in range(A.dim)]
    return HatStructures(
        star, Bimodule(M.mdim, left1, right1, labels=M.labels),
        starp, Bimodule(M.mdim, left2, right2, labels=M.labels),
        bullet, tuple(rho1), tuple(phi1),
        bulletp, tuple(rho2), tuple(phi2))


def weight_rep_embed(A, R: Matrix, lam, M: Bimodule, alpha: Matrix):
    """Representation (alpha, alpha + lam*id) of the weight-embedded system."""
    lam = A.field.coerce(lam)
    ctx = _module_ctx(A, M, R=R, alpha=alpha, lam=lam)
    require(run_identities("weighted-representation",
                           ("weighted-rep#1", "weighted-rep#2"), ctx),
            "weighted representation conditions failed")
    from .systems import weight_embed
    beta = alpha + Matrix.identity(A.field, M.mdim).scale(lam)
    return weight_embed(A, R, lam), Representation(M, alpha, beta)
