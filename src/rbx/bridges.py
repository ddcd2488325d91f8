"""Bridge checkers and constructions: weighted and averaging compatible
bialgebras (associative and Lie), Lie bisystems, special apre-perm
bialgebras, and covariant bialgebras from Yang-Baxter pairs.

Each bridge has a direct checker, which runs its carriers' axioms and then
the (name, tags, ctx) parts that one helper per checker returns
(`weighted_rb_asi_identities`, ...) through `bisystems._bridge_report`, as
`check_bisystem` does; the regression scans compile the same parts into
GF(p) rows.  `lie_matched_pair_report` runs its four conditions as parts
of `identities.run_parts` too, on the bracket that `representations.bowtie`
builds from the coadjoint actions, and the constructions refuse through
`errors.require`.  The equivalences with the corresponding (co)system
checkers are asserted as properties in the test suite.  A bridge
tag that restates an operator-system, cosystem or admissibility condition on
another carrier is registered on that condition's body: `de:he#2/#3` and
`de:ev#2a/#3a` in `systems`, the Lie bisystem tags `eq:emm*` in
`representations`, and `de:he#4a`, `de:ev#2b/#2c/#3b/#3c` on this module's
`eq:er2`, `eq:et3#*` and `eq:et5#*`.  The Lie-representation displays
`de:eo#1a/#1b/#2a/#2b` sit on `representations`' `eq:cf#1/#2` and
`eq:cf1#1/#2`: `check_lie_representation` runs them on a `Bimodule` whose
left actions are the Lie action.  Each tag keeps its own spaces and its own
seeded faults.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .errors import require
from .kernel import Matrix, _leg_apply, block_diag, leg_apply, vneg, vscale
from .identities import Ctx, identity, run_identities, run_parts
from .report import Violation, make_report
from .structures import (Algebra, Coalgebra, LieAlgebra, LieCoalgebra,
                         _axiom_identities, check_axioms, commutator,
                         cocommutator, dualize, square_on)
from .systems import (CoOperatorSystem, OperatorSystem, check_ybpair,
                      cosystem_identities, operator_system_identities)
from .bisystems import ASIBisystem, _bridge_report, check_bisystem
from .representations import Bimodule, MatchedPairData, _module_ctx, bowtie


# ---------------------------------------------------------------------------
# identity catalog: weighted and averaging compatibility, with the weighted
# and averaging Lie bialgebra displays that restate them

@identity("eq:er1", ("A", "A"))
def _er1(ctx, idx):
    i, j = idx
    A, R, Q, lam = ctx.A, ctx.R, ctx.Q, ctx.lam
    a, b = A.basis_vector(i), A.basis_vector(j)
    return [Q._apply(A._mul(a, R.col(j))),
            vneg(A._mul(Q.col(i), R.col(j))),
            vneg(Q._apply(A._mul(Q.col(i), b))),
            vneg(vscale(lam, A._mul(Q.col(i), b)))]


@identity("eq:er2", ("A", "A"))
@identity("de:he#4a", ("A", "A"))
def _er2(ctx, idx):
    i, j = idx
    A, R, Q, lam = ctx.A, ctx.R, ctx.Q, ctx.lam
    a, b = A.basis_vector(i), A.basis_vector(j)
    return [Q._apply(A._mul(R.col(i), b)),
            vneg(A._mul(R.col(i), Q.col(j))),
            vneg(Q._apply(A._mul(a, Q.col(j)))),
            vneg(vscale(lam, A._mul(a, Q.col(j))))]


@identity("eq:er3", ("A",))
def _er3(ctx, idx):
    (i,) = idx
    C, R, Q, lam = ctx.C, ctx.R, ctx.Q, ctx.lam
    drx = C._delta(R.col(i))
    dx = C.delta_basis(i)
    return [_leg_apply(drx, Q, 2),
            -_leg_apply(_leg_apply(dx, R, 1), Q, 2),
            -_leg_apply(drx, R, 1),
            -_leg_apply(dx, R, 1).scale(lam)]


@identity("eq:er4", ("A",))
def _er4(ctx, idx):
    (i,) = idx
    C, R, Q, lam = ctx.C, ctx.R, ctx.Q, ctx.lam
    drx = C._delta(R.col(i))
    dx = C.delta_basis(i)
    return [_leg_apply(drx, Q, 1),
            -_leg_apply(_leg_apply(dx, Q, 1), R, 2),
            -_leg_apply(drx, R, 2),
            -_leg_apply(dx, R, 2).scale(lam)]


@identity("eq:et3#1", ("A", "A"))
@identity("de:ev#2b", ("A", "A"))
def _et3a(ctx, idx):
    i, j = idx
    A, R, Q = ctx.A, ctx.R, ctx.Q
    return [A._mul(R.col(i), Q.col(j)),
            vneg(Q._apply(A._mul(R.col(i), A.basis_vector(j))))]


@identity("eq:et3#2", ("A", "A"))
@identity("de:ev#2c", ("A", "A"))
def _et3b(ctx, idx):
    i, j = idx
    A, R, Q = ctx.A, ctx.R, ctx.Q
    return [A._mul(R.col(i), Q.col(j)),
            vneg(Q._apply(A._mul(A.basis_vector(i), Q.col(j))))]


@identity("eq:et4#1", ("A", "A"))
def _et4a(ctx, idx):
    i, j = idx
    A, R, Q = ctx.A, ctx.R, ctx.Q
    return [A._mul(Q.col(i), R.col(j)),
            vneg(Q._apply(A._mul(A.basis_vector(i), R.col(j))))]


@identity("eq:et4#2", ("A", "A"))
def _et4b(ctx, idx):
    i, j = idx
    A, R, Q = ctx.A, ctx.R, ctx.Q
    return [A._mul(Q.col(i), R.col(j)),
            vneg(Q._apply(A._mul(Q.col(i), A.basis_vector(j))))]


@identity("eq:et5#1", ("A",))
@identity("de:ev#3b", ("A",))
def _et5a(ctx, idx):
    (i,) = idx
    C, R, Q = ctx.C, ctx.R, ctx.Q
    dx = C.delta_basis(i)
    return [_leg_apply(_leg_apply(dx, Q, 1), R, 2), -_leg_apply(C._delta(R.col(i)), Q, 1)]


@identity("eq:et5#2", ("A",))
@identity("de:ev#3c", ("A",))
def _et5b(ctx, idx):
    (i,) = idx
    C, R, Q = ctx.C, ctx.R, ctx.Q
    dx = C.delta_basis(i)
    return [_leg_apply(_leg_apply(dx, Q, 1), R, 2), -_leg_apply(C._delta(R.col(i)), R, 2)]


@identity("eq:et6#1", ("A",))
def _et6a(ctx, idx):
    (i,) = idx
    C, R, Q = ctx.C, ctx.R, ctx.Q
    dx = C.delta_basis(i)
    return [_leg_apply(_leg_apply(dx, R, 1), Q, 2), -_leg_apply(C._delta(R.col(i)), R, 1)]


@identity("eq:et6#2", ("A",))
def _et6b(ctx, idx):
    (i,) = idx
    C, R, Q = ctx.C, ctx.R, ctx.Q
    dx = C.delta_basis(i)
    return [_leg_apply(_leg_apply(dx, R, 1), Q, 2), -_leg_apply(C._delta(R.col(i)), Q, 2)]


# weighted Lie bialgebra display

@identity("de:he#4b", ("A",))
def _he4b(ctx, idx):
    (i,) = idx
    C, R, Q, lam = ctx.C, ctx.R, ctx.Q, ctx.lam
    dx = C.delta_basis(i)
    drx = C._delta(R.col(i))
    return [_leg_apply(_leg_apply(dx, R, 1), Q, 2),
            _leg_apply(drx, R, 1), -_leg_apply(drx, Q, 2),
            _leg_apply(dx, R, 1).scale(lam)]


# ---------------------------------------------------------------------------
# checkers

def weighted_rb_asi_identities(A, C, R: Matrix, Q: Matrix, lam):
    """The (name, tags, ctx) parts that `check_weighted_rb_asi` runs after
    the bialgebra axioms; the regression scan compiles the same parts."""
    square_on(A, C)
    lam = A.field.coerce(lam)
    return (
        ("rb-algebra", *operator_system_identities(
            "rb_weight", OperatorSystem(A, R, weight=lam))),
        ("rb-coalgebra", *cosystem_identities(
            "rb_coalgebra_weight", CoOperatorSystem(C, Q, weight=lam))),
        ("compat", ("eq:er1", "eq:er2", "eq:er3", "eq:er4"),
         Ctx({"A": A.basis}, A=A, C=C, R=R, Q=Q, lam=lam)),
    )


def check_weighted_rb_asi(A, C, R: Matrix, Q: Matrix, lam):
    """Weighted compatible bialgebra: bialgebra axioms, weight-lam operator
    and co-operator, and the four mixed displays."""
    return _bridge_report("weighted-rb-asi", "asi_bialgebra", (A, C),
                          weighted_rb_asi_identities(A, C, R, Q, lam))


def averaging_asi_identities(A, C, R: Matrix, Q: Matrix):
    """The parts that `check_averaging_asi` runs after the bialgebra axioms."""
    square_on(A, C)
    return (
        ("averaging-algebra", *operator_system_identities("averaging", OperatorSystem(A, R))),
        ("averaging-coalgebra", *cosystem_identities("coaveraging", CoOperatorSystem(C, Q))),
        ("compat", ("eq:et3#1", "eq:et3#2", "eq:et4#1", "eq:et4#2",
                    "eq:et5#1", "eq:et5#2", "eq:et6#1", "eq:et6#2"),
         Ctx({"A": A.basis}, A=A, C=C, R=R, Q=Q)),
    )


def check_averaging_asi(A, C, R: Matrix, Q: Matrix):
    """Averaging compatible bialgebra: bialgebra axioms, averaging operator
    and co-operator, and the four mixed displays."""
    return _bridge_report("averaging-asi", "asi_bialgebra", (A, C),
                          averaging_asi_identities(A, C, R, Q))


def averaging_from_bisystem(bi: ASIBisystem):
    """For a bisystem whose co-maps are the negated maps, the difference
    P = R - S is a single averaging map on both sides."""
    violations = []
    if bi.Q != -bi.S:
        violations.append(Violation("map-equality", ("Q", "-S"), ("mismatch",)))
    if bi.T != -bi.R:
        violations.append(Violation("map-equality", ("T", "-R"), ("mismatch",)))
    require(make_report("negated-maps", violations), "co-maps are not the negated maps")
    require(check_bisystem(bi), "input is not a valid bisystem")
    P = bi.R - bi.S
    return bi.algebra, bi.coalgebra, P


@dataclass
class LieBisystem:
    lie: LieAlgebra
    colie: LieCoalgebra
    R: Matrix
    S: Matrix
    Q: Matrix
    T: Matrix


def lie_bisystem_identities(lb: LieBisystem):
    """The parts that `check_lie_bisystem` runs after the Lie bialgebra
    axioms: the two paired operator conditions and the two mixed
    compatibility groups."""
    g, C = lb.lie, lb.colie
    square_on(g, C)
    return (
        ("lie-system", *operator_system_identities(
            "lie_rbs", OperatorSystem(g, lb.R, lb.S))),
        ("lie-cosystem", *cosystem_identities(
            "lie_rb_cosystem", CoOperatorSystem(C, lb.Q, lb.T))),
        ("operator-compat", ("eq:emm1#1", "eq:emm1#2", "eq:emm2#1", "eq:emm2#2"),
         Ctx({"A": g.basis}, A=g, R=lb.R, S=lb.S, Q=lb.Q, T=lb.T)),
        ("cooperator-compat", ("eq:emm3#1", "eq:emm3#2", "eq:emm4#1", "eq:emm4#2"),
         Ctx({"A": g.basis}, C=C, R=lb.R, S=lb.S, Q=lb.Q, T=lb.T)),
    )


def check_lie_bisystem(lb: LieBisystem):
    """Five parts: Lie bialgebra, the two paired operator conditions, and
    the two mixed compatibility groups."""
    return _bridge_report("lie-bisystem", "lie_bialgebra", (lb.lie, lb.colie),
                          lie_bisystem_identities(lb))


def lie_bisystem_from_asi(bi: ASIBisystem) -> LieBisystem:
    """Commutator bracket and cocommutator cobracket with the same maps."""
    require(check_bisystem(bi), "input is not a valid bisystem")
    return LieBisystem(commutator(bi.algebra), cocommutator(bi.coalgebra),
                       bi.R, bi.S, bi.Q, bi.T)


def averaging_lie_bialgebra_identities(g, dl, R: Matrix, Q: Matrix):
    """The parts that `check_averaging_lie_bialgebra` runs after the Lie
    bialgebra axioms."""
    square_on(g, dl, R, Q)
    return (
        ("averaging-lie-algebra", ("de:ev#2a", "de:ev#2b", "de:ev#2c"),
         Ctx({"A": g.basis}, A=g, R=R, Q=Q)),
        ("averaging-lie-coalgebra", ("de:ev#3a", "de:ev#3b", "de:ev#3c"),
         Ctx({"A": g.basis}, C=dl, R=R, Q=Q)),
    )


def check_averaging_lie_bialgebra(g, dl, R: Matrix, Q: Matrix):
    return _bridge_report("averaging-lie-bialgebra", "lie_bialgebra", (g, dl),
                          averaging_lie_bialgebra_identities(g, dl, R, Q))


def weighted_rb_lie_bialgebra_identities(g, dl, R: Matrix, Q: Matrix, lam):
    """The parts that `check_weighted_rb_lie_bialgebra` runs after the Lie
    bialgebra axioms."""
    square_on(g, dl, R, Q)
    lam = g.field.coerce(lam)
    return (
        ("rb-lie-algebra", ("de:he#2",), Ctx({"A": g.basis}, A=g, R=R, lam=lam)),
        ("rb-lie-coalgebra", ("de:he#3",), Ctx({"A": g.basis}, C=dl, Q=Q, lam=lam)),
        ("compat", ("de:he#4a", "de:he#4b"),
         Ctx({"A": g.basis}, A=g, C=dl, R=R, Q=Q, lam=lam)),
    )


def check_weighted_rb_lie_bialgebra(g, dl, R: Matrix, Q: Matrix, lam):
    return _bridge_report("weighted-rb-lie-bialgebra", "lie_bialgebra", (g, dl),
                          weighted_rb_lie_bialgebra_identities(g, dl, R, Q, lam))


def lie_representation_identities(sys: OperatorSystem, rho, alpha: Matrix, beta: Matrix):
    """The tag tuple and context that `check_lie_representation` runs."""
    n = rho[0].rows
    M = Bimodule(n, rho, [Matrix.zero(rho[0].field, n)] * len(rho))
    return ("de:eo#1a", "de:eo#1b", "de:eo#2a", "de:eo#2b"), _module_ctx(
        sys.carrier, M, R=sys.R, S=sys.S, alpha=alpha, beta=beta)


def check_lie_representation(sys: OperatorSystem, rho, alpha: Matrix, beta: Matrix):
    """Module conditions of a Lie-side paired system; rho is a per-basis
    action matrix list, run as the left actions of a module whose right
    actions are zero (the four displays read none)."""
    return run_identities("lie-representation",
                          *lie_representation_identities(sys, rho, alpha, beta))


def coadjoint_actions(g) -> tuple[Matrix, ...]:
    """rho(x) = -ad(x)^t, acting on the dual space."""
    return tuple(-g.left_mult_basis(i).transpose() for i in range(g.dim))


def lie_matched_pair_report(lb: LieBisystem):
    """Matched pair of the Lie system with its dual under coadjoint actions:
    the two module conditions plus the combined bracket being a Lie bracket."""
    g, gd = lb.lie, dualize(lb.colie)
    Qt, Tt = lb.Q.transpose(), lb.T.transpose()
    rho_g, rho_gd = coadjoint_actions(g), coadjoint_actions(gd)
    # [x, xi] = coad(x) xi - coad(xi) x
    big = bowtie(MatchedPairData(g, gd, rho_g, [-m for m in rho_g],
                                 rho_gd, [-m for m in rho_gd]))
    big_sys = OperatorSystem(big, block_diag(lb.R, Qt), block_diag(lb.S, Tt))
    return run_parts("lie-matched-pair", (
        ("action-on-dual", *lie_representation_identities(
            OperatorSystem(g, lb.R, lb.S), rho_g, Qt, Tt)),
        ("action-on-primal", *lie_representation_identities(
            OperatorSystem(gd, Qt, Tt), rho_gd, lb.R, lb.S)),
        ("sum-lie", *_axiom_identities("lie", big)),
        ("sum-system", *operator_system_identities("lie_rbs", big_sys)),
    ))


# ---------------------------------------------------------------------------
# apre-perm and covariant constructions

@dataclass
class AprePermData:
    tri_gt: Algebra        # x > y, raw product
    tri_lt: Algebra        # x < y, raw product
    co_vartheta: Coalgebra
    co_theta: Coalgebra

    def check(self):
        return check_axioms("apreperm_bialgebra",
                            (self.tri_gt, self.tri_lt, self.co_vartheta, self.co_theta))


def apreperm_from_averaging(A, C, R: Matrix, Q: Matrix) -> AprePermData:
    """Split products x > y = R(x)y + Q(xy), x < y = -Q(xy) with the matching
    coproduct split; requires an averaging pair on a commutative carrier
    with cocommutative coproduct."""
    violations = []
    if not A.is_commutative():
        violations.append(Violation("commutative-carrier", (), ("product not commutative",)))
    if not C.is_cocommutative():
        violations.append(Violation("cocommutative-carrier", (), ("coproduct not cocommutative",)))
    avg = check_averaging_asi(A, C, R, Q)
    require(run_parts("apre-perm-hypotheses",
                      (make_report("averaging", avg.all_violations()),), violations),
            "apre-perm hypotheses failed")
    n = A.dim
    gt_table = [[None] * n for _ in range(n)]
    lt_table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = A.product(i, j)
            qprod = Q.apply(prod)
            gt_table[i][j] = tuple(a + b for a, b in
                                   zip(A.mul(R.col(i), A.basis_vector(j)), qprod))
            lt_table[i][j] = vneg(qprod)
    gt = Algebra(A.field, gt_table, basis=A.basis, raw=True)
    lt = Algebra(A.field, lt_table, basis=A.basis, raw=True)
    var_table = []
    th_table = []
    for i in range(n):
        drx = C.delta(R.col(i))
        var = leg_apply(C.delta_basis(i), Q, 1) + drx
        var_table.append([[var[j, k] for k in range(n)] for j in range(n)])
        th_table.append([[-drx[j, k] for k in range(n)] for j in range(n)])
    vartheta = Coalgebra(A.field, var_table, basis=C.basis, raw=True)
    theta = Coalgebra(A.field, th_table, basis=C.basis, raw=True)
    return AprePermData(gt, lt, vartheta, theta)


CovariantData = namedtuple("CovariantData", "delta1 delta2 comult")


def covariant_from_ybpair(A, r, s):
    """Two derivation comultiplications a.r1 (x) r2 - r1 (x) r2.a and the
    mixed comultiplication a.r1 (x) r2 - s1 (x) s2.a from a Yang-Baxter
    pair; returns the data and its covariant-bialgebra report."""
    require(check_ybpair(A, r, s), "tensor pair fails the Yang-Baxter pair condition")

    def tensor_rows(t):
        return [[t[j, k] for k in range(A.dim)] for j in range(A.dim)]

    d1_t, d2_t, dt_t = [], [], []
    for i in range(A.dim):
        L = A.left_mult_basis(i)
        Rm = A.right_mult_basis(i)
        d1_t.append(tensor_rows(leg_apply(r, L, 1) - leg_apply(r, Rm, 2)))
        d2_t.append(tensor_rows(leg_apply(s, L, 1) - leg_apply(s, Rm, 2)))
        dt_t.append(tensor_rows(leg_apply(r, L, 1) - leg_apply(s, Rm, 2)))
    d1 = Coalgebra(A.field, d1_t, basis=A.basis, raw=True)
    d2 = Coalgebra(A.field, d2_t, basis=A.basis, raw=True)
    dt = Coalgebra(A.field, dt_t, basis=A.basis, raw=True)
    data = CovariantData(d1, d2, dt)
    return data, check_axioms("covariant_bialgebra", (A, d1, d2, dt))
