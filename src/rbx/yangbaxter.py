"""Tensor solutions: the associative Yang-Baxter equation, coboundary
comultiplications, admissibility of a tensor to a map quadruple, weak
O-operators, and the triangular/quasitriangular constructions.

The three products r_12 r_13, r_13 r_23, r_23 r_12 are all instances of
one parameterized contraction (`placement_product`): the two placements
share exactly one leg, where the components multiply.  The twelve `eq:de*`
displays share one term helper, `_de_terms`, which builds only the
multiplication operators that its display reads.

The constructions verify their hypotheses as one `identities.run_parts`
report each and refuse through `errors.require`; the O-operator solution
lives on the semidirect sum that `representations.bowtie` builds.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .errors import FieldError, require
from .kernel import (Matrix, Tensor2, Tensor3, _combine, _leg_apply, _leg_apply3,
                     block_diag, bv, leg_apply, vneg)
from .identities import Ctx, evaluate, identity, run_identities, run_parts
from .report import Violation, make_report
from .structures import Coalgebra, _placement_product, square_on
from .systems import OperatorSystem, operator_system_identities
from .representations import (Bimodule, Representation, _act, _module_ctx,
                              adjoint_admissible_report, check_module_admissible,
                              dn_identities, dual_bimodule,
                              representation_identities, semidirect)
from .bisystems import ASIBisystem


@identity("eq:db4", ())
def _aybe(ctx, idx):
    A, r = ctx.A, ctx.r
    return [_placement_product(A, r, (1, 2), r, (1, 3)),
            _placement_product(A, r, (1, 3), r, (2, 3)),
            -_placement_product(A, r, (2, 3), r, (1, 2))]


@identity("eq:db1", ("A", "A"))
def _db1(ctx, idx):
    i, j = idx
    A, u = ctx.A, ctx.sym
    La, Ra = A.left_mult_basis(i), A.right_mult_basis(i)
    Lb, Rb = A.left_mult_basis(j), A.right_mult_basis(j)
    return [_leg_apply(_leg_apply(u, Lb, 2), La, 1),
            -_leg_apply(_leg_apply(u, Rb, 1), La, 1),
            -_leg_apply(_leg_apply(u, Lb, 2), Ra, 2),
            _leg_apply(_leg_apply(u, Rb, 1), Ra, 2)]


@identity("eq:db2", ("A",))
def _db2(ctx, idx):
    (i,) = idx
    A, res = ctx.A, ctx.aybe
    return [_leg_apply3(res, A.left_mult_basis(i), 3),
            -_leg_apply3(res, A.right_mult_basis(i), 1)]


@identity("eq:dh", ())
def _dh(ctx, idx):
    return [_leg_apply(ctx.r, ctx.Q, 1), -_leg_apply(ctx.r, ctx.R, 2)]


@identity("eq:dh1", ())
def _dh1(ctx, idx):
    return [_leg_apply(ctx.r, ctx.T, 1), -_leg_apply(ctx.r, ctx.S, 2)]


# the twelve compatibility residuals of the coboundary comultiplication,
# written over the four one-leg combinations
#   X1 = (Q (x) id - id (x) R)r      X2 = (id (x) Q - R (x) id)r
#   X3 = (T (x) id - id (x) S)r      X4 = (id (x) T - S (x) id)r

def _de_terms(ctx, idx, *summands):
    """The summands sign * (op on leg `leg` of X), for each (sign, X, op,
    leg), at a = e_i: the op ("L", m) or ("R", m) is the left or right
    multiplication by m(a), and (m, "L") or (m, "R") is m after the left or
    right multiplication by a.  Each op is built when its summand is."""
    (i,) = idx
    A = ctx.A
    out = []
    for sign, X, (first, then), leg in summands:
        if isinstance(first, str):
            op = _combine(A.field, A.dim, then.col(i),
                          A.left_mult_basis if first == "L" else A.right_mult_basis)
        else:
            op = first._matmul((A.left_mult_basis if then == "L" else A.right_mult_basis)(i))
        term = _leg_apply(X, op, leg)
        out.append(term if sign > 0 else -term)
    return out


@identity("eq:de", ("A",))
def _de(ctx, idx):
    X1, X2, X4, Q = ctx.X1, ctx.X2, ctx.X4, ctx.Q
    return _de_terms(ctx, idx, (1, X1, ("L", Q), 2), (-1, X1, (Q, "L"), 2),
                     (1, X2, (Q, "R"), 1), (-1, X4, ("R", Q), 1))


@identity("eq:dede", ("A",))
def _dede(ctx, idx):
    X1, X2, X3, Q = ctx.X1, ctx.X2, ctx.X3, ctx.Q
    return _de_terms(ctx, idx, (1, X3, ("L", Q), 2), (-1, X1, (Q, "L"), 2),
                     (1, X2, (Q, "R"), 1), (-1, X2, ("R", Q), 1))


@identity("eq:de1", ("A",))
def _de1(ctx, idx):
    X1, X3, X4, T = ctx.X1, ctx.X3, ctx.X4, ctx.T
    return _de_terms(ctx, idx, (1, X1, ("L", T), 2), (1, X4, (T, "R"), 1),
                     (-1, X4, ("R", T), 1), (-1, X3, (T, "L"), 2))


@identity("eq:de1de1", ("A",))
def _de1de1(ctx, idx):
    X2, X3, X4, T = ctx.X2, ctx.X3, ctx.X4, ctx.T
    return _de_terms(ctx, idx, (1, X3, ("L", T), 2), (-1, X3, (T, "L"), 2),
                     (1, X4, (T, "R"), 1), (-1, X2, ("R", T), 1))


@identity("eq:de2", ("A",))
def _de2(ctx, idx):
    X1, X3, R, T = ctx.X1, ctx.X3, ctx.R, ctx.T
    return _de_terms(ctx, idx, (1, X1, ("L", R), 2), (-1, X1, ("R", R), 1),
                     (-1, X1, (T, "R"), 1), (-1, X3, (R, "L"), 2))


@identity("eq:de2de2", ("A",))
def _de2de2(ctx, idx):
    X1, R, S, Q = ctx.X1, ctx.R, ctx.S, ctx.Q
    return _de_terms(ctx, idx, (1, X1, ("L", R), 2), (-1, X1, ("R", S), 1),
                     (-1, X1, (Q, "R"), 1), (-1, X1, (R, "L"), 2))


@identity("eq:de3", ("A",))
def _de3(ctx, idx):
    X2, R, S, Q = ctx.X2, ctx.R, ctx.S, ctx.Q
    return _de_terms(ctx, idx, (1, X2, (Q, "L"), 2), (1, X2, ("L", S), 2),
                     (1, X2, (R, "R"), 1), (-1, X2, ("R", R), 1))


@identity("eq:de3de3", ("A",))
def _de3de3(ctx, idx):
    X2, X4, R, T = ctx.X2, ctx.X4, ctx.R, ctx.T
    return _de_terms(ctx, idx, (1, X2, (T, "L"), 2), (1, X2, ("L", R), 2),
                     (-1, X2, ("R", R), 1), (1, X4, (R, "R"), 1))


@identity("eq:de4", ("A",))
def _de4(ctx, idx):
    X3, R, S, T = ctx.X3, ctx.R, ctx.S, ctx.T
    return _de_terms(ctx, idx, (1, X3, ("L", S), 2), (-1, X3, ("R", R), 1),
                     (-1, X3, (T, "R"), 1), (-1, X3, (S, "L"), 2))


@identity("eq:de4de4", ("A",))
def _de4de4(ctx, idx):
    X1, X3, S, Q = ctx.X1, ctx.X3, ctx.S, ctx.Q
    return _de_terms(ctx, idx, (1, X3, ("L", S), 2), (-1, X3, ("R", S), 1),
                     (-1, X3, (Q, "R"), 1), (-1, X1, (S, "L"), 2))


@identity("eq:de5", ("A",))
def _de5(ctx, idx):
    X2, X4, S, Q = ctx.X2, ctx.X4, ctx.S, ctx.Q
    return _de_terms(ctx, idx, (1, X4, (Q, "L"), 2), (1, X4, ("L", S), 2),
                     (-1, X4, ("R", S), 1), (1, X2, (S, "R"), 1))


@identity("eq:de5de5", ("A",))
def _de5de5(ctx, idx):
    X4, R, S, T = ctx.X4, ctx.R, ctx.S, ctx.T
    return _de_terms(ctx, idx, (1, X4, (T, "L"), 2), (1, X4, ("L", R), 2),
                     (-1, X4, ("R", S), 1), (1, X4, (S, "R"), 1))


THM_DE_TAGS = ("eq:de", "eq:dede", "eq:de1", "eq:de1de1", "eq:de2", "eq:de2de2",
               "eq:de3", "eq:de3de3", "eq:de4", "eq:de4de4", "eq:de5", "eq:de5de5")


@identity("eq:db5", ("A",))
def _db5(ctx, idx):
    (i,) = idx
    A = ctx.A
    return [_leg_apply(ctx.Lam, A.left_mult_basis(i), 2),
            -_leg_apply(ctx.Lam, A.right_mult_basis(i), 1)]


@identity("eq:dg#1", ())
def _dg1(ctx, idx):
    return [_leg_apply(ctx.Gam, ctx.Q, 1), -_leg_apply(ctx.Gam, ctx.R, 2)]


@identity("eq:dg#2", ())
def _dg2(ctx, idx):
    return [_leg_apply(ctx.Gam, ctx.T, 1), -_leg_apply(ctx.Gam, ctx.S, 2)]


@identity("eq:dk", ("M", "M"))
def _dk(ctx, idx):
    u, v = idx
    A, M, tm = ctx.A, ctx.M, ctx.tmap
    mu, mv = bv(A.field, M.mdim, u), bv(A.field, M.mdim, v)
    tu, tv = tm.col(u), tm.col(v)
    return [A._mul(tu, tv),
            vneg(tm._apply(_act(M.left, tu, mv))),
            vneg(tm._apply(_act(M.right, tv, mu)))]


@identity("eq:dk1", ("M",))
def _dk1(ctx, idx):
    (u,) = idx
    return [ctx.tmap._apply(ctx.alpha.col(u)), vneg(ctx.R._apply(ctx.tmap.col(u)))]


@identity("eq:dk2", ("M",))
def _dk2(ctx, idx):
    (u,) = idx
    return [ctx.tmap._apply(ctx.beta.col(u)), vneg(ctx.S._apply(ctx.tmap.col(u)))]


@identity("eq:dm1#1", ("A",))
def _dm1a(ctx, idx):
    (i,) = idx
    return [ctx.R._apply(ctx.rplus.col(i)),
            vneg(ctx.rplus._apply(ctx.Q.transpose().col(i)))]


@identity("eq:dm1#2", ("A",))
def _dm1b(ctx, idx):
    (i,) = idx
    return [ctx.S._apply(ctx.rplus.col(i)),
            vneg(ctx.rplus._apply(ctx.T.transpose().col(i)))]


@identity("thm:do#compat1", ("M",))
def _do_compat1(ctx, idx):
    (u,) = idx
    return [ctx.tmap._apply(ctx.xi.col(u)), vneg(ctx.Q._apply(ctx.tmap.col(u)))]


@identity("thm:do#compat2", ("M",))
def _do_compat2(ctx, idx):
    (u,) = idx
    return [ctx.tmap._apply(ctx.zeta.col(u)), vneg(ctx.T._apply(ctx.tmap.col(u)))]


# ---------------------------------------------------------------------------
# operations

def aybe_residual(A, r: Tensor2) -> Tensor3:
    """r_12 r_13 + r_13 r_23 - r_23 r_12; zero iff r solves the equation."""
    square_on(A, r)
    return evaluate("eq:db4", Ctx({}, A=A, r=r), ())


_AYBE_TAGS = ("eq:db4",)


def check_aybe(A, r: Tensor2):
    square_on(A, r)
    return run_identities("aybe", _AYBE_TAGS, Ctx({}, A=A, r=r))


def coboundary_delta(A, r: Tensor2, mode: str = "plain") -> Coalgebra:
    """Comultiplication a -> r1 (x) a.r2 - r1.a (x) r2 (raw; coassociativity
    is reported by downstream checks, never assumed).

    In "quasitriangular" mode the formula is averaged with its flip, which
    amounts to applying the plain formula to the antisymmetric part of r;
    this needs characteristic != 2.
    """
    if mode not in ("plain", "quasitriangular"):
        raise ValueError(f"unknown coboundary mode {mode!r}")
    square_on(A, r)
    base = r
    if mode == "quasitriangular":
        if A.field.char == 2:
            raise FieldError("quasitriangular comultiplication needs characteristic != 2")
        base = (r - r.flip()).scale(A.field.of(1, 2))
    table = []
    for i in range(A.dim):
        t = (leg_apply(base, A.left_mult_basis(i), 2)
             - leg_apply(base, A.right_mult_basis(i), 1))
        table.append([[t[j, k] for k in range(A.dim)] for j in range(A.dim)])
    return Coalgebra(A.field, table, basis=A.basis, raw=True)


def check_asi_coboundary(A, r: Tensor2):
    """Conditions for the coboundary comultiplication of r to yield a
    compatible bialgebra with the product of A."""
    square_on(A, r)
    ctx = Ctx({"A": A.basis}, A=A, r=r, sym=r + r.flip(), aybe=aybe_residual(A, r))
    return run_identities("asi-coboundary", ("eq:db1", "eq:db2"), ctx)


def check_admissible_aybe(A, R, S, Q, T, r: Tensor2):
    """Equation residual plus the two one-leg compatibility residuals."""
    square_on(A, R, S, Q, T, r)
    ctx = Ctx({"A": A.basis}, A=A, R=R, S=S, Q=Q, T=T, r=r)
    return run_identities("admissible-aybe", ("eq:db4", "eq:dh", "eq:dh1"), ctx)


def _antisymmetry_report(r: Tensor2):
    if r.is_antisymmetric():
        return make_report("antisymmetric", ())
    vio = Violation("antisymmetric-tensor", (), (r + r.flip()).render())
    return make_report("antisymmetric", (vio,))


def triangular_bisystem(A, R, S, Q, T, r: Tensor2) -> ASIBisystem:
    """Bisystem with coboundary comultiplication from an antisymmetric
    admissible solution; every hypothesis is verified and named."""
    require(run_parts("triangular-hypotheses", (
        ("operator-system", *operator_system_identities(
            "symmetric_rbs", OperatorSystem(A, R, S))),
        adjoint_admissible_report(A, R, S, Q, T),
        _antisymmetry_report(r),
        check_admissible_aybe(A, R, S, Q, T, r),
    )), "triangular hypotheses failed")
    return ASIBisystem(A, coboundary_delta(A, r), R, S, Q, T)


def check_thm_de(A, R, S, Q, T, r: Tensor2):
    """The twelve residual families tying the coboundary cosystem and
    dual-admissibility conditions to one-leg contractions of r."""
    require(adjoint_admissible_report(A, R, S, Q, T), "maps are not adjoint admissible")
    return run_identities("coboundary-compat", THM_DE_TAGS, thm_de_ctx(A, R, S, Q, T, r))


def thm_de_ctx(A, R, S, Q, T, r: Tensor2) -> Ctx:
    """Context with the four one-leg contractions precomputed (test hook)."""
    square_on(A, R, S, Q, T, r)
    return Ctx({"A": A.basis}, A=A, R=R, S=S, Q=Q, T=T, r=r,
               X1=leg_apply(r, Q, 1) - leg_apply(r, R, 2),
               X2=leg_apply(r, Q, 2) - leg_apply(r, R, 1),
               X3=leg_apply(r, T, 1) - leg_apply(r, S, 2),
               X4=leg_apply(r, T, 2) - leg_apply(r, S, 1))


def r_plus(r: Tensor2) -> Matrix:
    """The grid read as a map from the dual space: <r+(u), v> = <r, u (x) v>."""
    return r.as_map()


@dataclass
class OOperatorData:
    tmap: Matrix            # module -> carrier
    module: Bimodule
    alpha: Matrix
    beta: Matrix
    xi: Matrix | None = None
    zeta: Matrix | None = None
    Q: Matrix | None = None
    T: Matrix | None = None


def check_weak_o_operator(sys: OperatorSystem, data: OOperatorData):
    """Product identity of the module-to-carrier map plus the two
    intertwining conditions with (R, S)."""
    ctx = _module_ctx(sys.carrier, data.module, tmap=data.tmap,
                      alpha=data.alpha, beta=data.beta, R=sys.R, S=sys.S)
    return run_identities("weak-o-operator", ("eq:dk", "eq:dk1", "eq:dk2"), ctx)


def check_o_operator_transport(sys: OperatorSystem, rplus: Matrix, Q, T):
    """R o r+ = r+ o Q^t and S o r+ = r+ o T^t."""
    square_on(sys.carrier, rplus, Q, T)
    ctx = Ctx({"A": sys.carrier.basis}, A=sys.carrier, R=sys.R, S=sys.S,
              Q=Q, T=T, rplus=rplus)
    return run_identities("o-operator-transport", ("eq:dm1#1", "eq:dm1#2"), ctx)


OOperatorSolution = namedtuple("OOperatorSolution",
                               "r system Q T bisystem hypothesis_report")


def o_operator_solution(sys: OperatorSystem, rep: Representation, tmap: Matrix,
                        Q, T, xi, zeta):
    """Antisymmetrized graph tensor of a module-to-carrier map, living on
    the sum of the carrier with the dual module.

    Verifies: the weak-operator identities of tmap, the transport
    conditions tmap o xi = Q o tmap and tmap o zeta = T o tmap, and the
    dual-module admissibility of (xi, zeta).  When the representation,
    adjoint-admissibility and mixed-compatibility conditions also hold, the
    coboundary bisystem on the sum is returned.
    """
    A = sys.carrier
    M = rep.bimodule
    square_on(A, Q, T)
    data = OOperatorData(tmap, M, rep.alpha, rep.beta, xi, zeta, Q, T)
    ctx = Ctx({"M": M.labels}, tmap=tmap, xi=xi, zeta=zeta, Q=Q, T=T)
    require(run_parts("o-operator-hypotheses", (
        check_weak_o_operator(sys, data),
        ("transport", ("thm:do#compat1", "thm:do#compat2"), ctx),
        check_module_admissible(sys, M, xi, zeta),
    )), "weak-operator hypotheses failed")

    dual_rep = Representation(dual_bimodule(M), xi.transpose(), zeta.transpose())
    big = semidirect(sys, dual_rep)
    n, md = A.dim, M.mdim
    dim = n + md
    terms = []
    for u in range(md):
        col = tmap.col(u)
        for j, c in enumerate(col):
            if c:
                terms.append((n + u, j, c))
                terms.append((j, n + u, -c))
    r = Tensor2.from_terms(A.field, dim, terms)
    QQ = block_diag(Q, rep.alpha.transpose())
    TT = block_diag(T, rep.beta.transpose())

    bisystem = None
    hyp = run_parts("bisystem-hypotheses", (
        ("representation", *representation_identities(sys, rep)),
        adjoint_admissible_report(A, sys.R, sys.S, Q, T),
        ("mixed-compat", *dn_identities(M, A, Q, T, rep.alpha, rep.beta, xi, zeta)),
    ))
    if hyp.passed:
        bisystem = ASIBisystem(big.carrier, coboundary_delta(big.carrier, r),
                               big.R, big.S, QQ, TT)
    return OOperatorSolution(r, big, QQ, TT, bisystem, hyp)


def quasi_split(r: Tensor2):
    """Symmetric/antisymmetric split (needs characteristic != 2)."""
    if r.field.char == 2:
        raise FieldError("symmetric/antisymmetric split needs characteristic != 2")
    half = r.field.of(1, 2)
    lam = (r + r.flip()).scale(half)
    gam = (r - r.flip()).scale(half)
    return lam, gam


def check_lr_invariant(A, lam: Tensor2):
    """(id (x) L(a) - R(a) (x) id) annihilates the symmetric part."""
    square_on(A, lam)
    return run_identities("lr-invariant", ("eq:db5",),
                          Ctx({"A": A.basis}, A=A, Lam=lam))


def quasitriangular_bisystem(A, R, S, Q, T, r: Tensor2) -> ASIBisystem:
    """Bisystem with the averaged coboundary comultiplication; hypotheses:
    equation residual zero, invariant symmetric part, one-leg conditions on
    the antisymmetric part, and adjoint admissibility."""
    lam, gam = quasi_split(r)
    require(run_parts("quasitriangular-hypotheses", (
        ("operator-system", *operator_system_identities(
            "symmetric_rbs", OperatorSystem(A, R, S))),
        adjoint_admissible_report(A, R, S, Q, T),
        check_aybe(A, r),
        check_lr_invariant(A, lam),
        ("one-leg", ("eq:dg#1", "eq:dg#2"), Ctx({}, Gam=gam, Q=Q, T=T, R=R, S=S)),
    )), "quasitriangular hypotheses failed")
    return ASIBisystem(A, coboundary_delta(A, r, "quasitriangular"), R, S, Q, T)
