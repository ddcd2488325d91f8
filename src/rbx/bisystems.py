"""Compatible algebra/coalgebra quintuples, matched pairs, and the
Frobenius double construction.

The equivalence theorems relating these checkers assert equality of
satisfaction, so hypothesis failures surface as failing named sub-reports
rather than exceptions; only structure-returning constructors refuse.

`check_bisystem` runs the bialgebra axioms and then the (name, tags, ctx)
parts of `bisystem_identities`, the same parts that search compiles, through
`_bridge_report`; the bridge checkers in `bridges` share that helper.  Each
part is one `run_identities` call, so inside `identities.shared_verdicts`
a repeated part is served from the memo.
"""

from __future__ import annotations

from .errors import PayloadError, PreconditionError
from .identities import run_identities
from .kernel import Matrix, block_diag
from .report import Violation, make_report
from .structures import (Algebra, BilinearForm, check_axioms, dualize,
                         form_adjoint, pairing_form)
from .systems import (CoOperatorSystem, OperatorSystem, check_operator_system,
                      cosystem_identities, operator_system_identities)
from .representations import (Bimodule, Representation,
                              adjoint_admissible_identities,
                              adjoint_admissible_report,
                              coadjoint_admissible_identities,
                              check_representation)


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


def bowtie(mp: MatchedPairData) -> Algebra:
    """Product on A + B built from the mutual actions, as a raw algebra;
    the matched-pair condition is exactly its associativity."""
    A, B = mp.A, mp.B
    n, m = A.dim, B.dim
    dim = n + m
    z = A.field.zero()

    def emb_a(vec):
        return tuple(vec) + (z,) * m

    def emb_b(vec):
        return (z,) * n + tuple(vec)

    table = [[(z,) * dim] * dim for _ in range(dim)]
    table = [list(row) for row in table]
    for i in range(n):
        for j in range(n):
            table[i][j] = emb_a(A.product(i, j))
        for v in range(m):
            # e_i . f_v = e_i r_B(f_v) + ell_A(e_i) f_v
            table[i][n + v] = tuple(mp.right_b[v].col(i)) + tuple(mp.left_a[i].col(v))
    for u in range(m):
        for j in range(n):
            # f_u . e_j = ell_B(f_u) e_j + f_u r_A(e_j)
            table[n + u][j] = tuple(mp.left_b[u].col(j)) + tuple(mp.right_a[j].col(u))
        for v in range(m):
            table[n + u][n + v] = emb_b(B.product(u, v))
    basis = A.basis + B.basis
    return Algebra(A.field, table, basis=basis, raw=True)


def check_matched_pair_srbs(mp: MatchedPairData):
    """Matched pair of paired operator systems: both constituent systems,
    both cross representations, associativity of the assembled product and
    the paired identities of the summed maps, as named sub-reports."""
    if mp.maps_a is None or mp.maps_b is None:
        raise PayloadError("matched-pair check needs map pairs on both sides")
    RA, SA = mp.maps_a
    RB, SB = mp.maps_b
    sys_a = OperatorSystem(mp.A, RA, SA)
    sys_b = OperatorSystem(mp.B, RB, SB)
    sub = []
    ra = check_operator_system("symmetric_rbs", sys_a)
    rb = check_operator_system("symmetric_rbs", sys_b)
    sub.append(make_report("system-a", ra.violations))
    sub.append(make_report("system-b", rb.violations))
    rep_b = check_representation(sys_a, Representation(mp.module_over_a(), RB, SB))
    sub.append(make_report("action-on-b", rep_b.all_violations()))
    rep_a = check_representation(sys_b, Representation(mp.module_over_b(), RA, SA))
    sub.append(make_report("action-on-a", rep_a.all_violations()))
    big = bowtie(mp)
    assoc = check_axioms("associative", big)
    sub.append(make_report("sum-associative", assoc.violations))
    big_sys = OperatorSystem(big, block_diag(RA, RB), block_diag(SA, SB))
    srbs = check_operator_system("symmetric_rbs", big_sys)
    sub.append(make_report("sum-system", srbs.violations))
    return make_report("matched-pair", subreports=sub)


class ASIBisystem:
    """Algebra and coalgebra on one space with two map pairs (R, S) and (Q, T)."""

    def __init__(self, algebra, coalgebra, R, S, Q, T):
        if algebra.dim != coalgebra.dim:
            raise PayloadError("algebra and coalgebra dimensions differ")
        for m in (R, S, Q, T):
            if m.rows != algebra.dim or m.cols != algebra.dim:
                raise PayloadError("map dimension does not match the carrier")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.R, self.S, self.Q, self.T = R, S, Q, T

    def swap(self):
        return ASIBisystem(self.algebra, self.coalgebra, self.S, self.R, self.T, self.Q)


def bisystem_identities(bi: ASIBisystem):
    """The (name, tags, ctx) parts that `check_bisystem` runs after the
    bialgebra axioms; search and the regression scans compile them."""
    A, C, R, S, Q, T = bi.algebra, bi.coalgebra, bi.R, bi.S, bi.Q, bi.T
    return (
        ("operator-system", *operator_system_identities(
            "symmetric_rbs", OperatorSystem(A, R, S))),
        ("co-operator-system", *cosystem_identities(
            "symmetric_rb_cosystem", CoOperatorSystem(C, Q, T))),
        ("adjoint-admissible", *adjoint_admissible_identities(A, R, S, Q, T)),
        ("coadjoint-admissible", *coadjoint_admissible_identities(A, C, R, S, Q, T)),
    )


def _bridge_report(check, axioms, carriers, parts):
    """The carriers' axioms, then each (name, tags, ctx) part, as named
    sub-reports."""
    sub = [make_report(axioms.replace("_", "-"), check_axioms(axioms, carriers).violations)]
    sub += [run_identities(name, tags, ctx) for name, tags, ctx in parts]
    return make_report(check, subreports=sub)


def check_bisystem(bi: ASIBisystem):
    """Five-part conjunction: compatible bialgebra, paired system, paired
    cosystem, adjoint admissibility, and its comultiplication form."""
    return _bridge_report("bisystem", "asi_bialgebra", (bi.algebra, bi.coalgebra),
                          bisystem_identities(bi))


def dual_actions_pair(A, C, maps_a=None, maps_b=None) -> MatchedPairData:
    """Matched-pair data of A with the dual algebra of C under the
    transposed multiplication actions."""
    dual = dualize(C)
    left_a = [A.right_mult_basis(i).transpose() for i in range(A.dim)]
    right_a = [A.left_mult_basis(i).transpose() for i in range(A.dim)]
    left_b = [dual.right_mult_basis(u).transpose() for u in range(dual.dim)]
    right_b = [dual.left_mult_basis(u).transpose() for u in range(dual.dim)]
    return MatchedPairData(A, dual, left_a, right_a, left_b, right_b,
                           maps_a=maps_a, maps_b=maps_b)


def bisystem_matched_pair(bi: ASIBisystem) -> MatchedPairData:
    return dual_actions_pair(
        bi.algebra, bi.coalgebra,
        maps_a=(bi.R, bi.S),
        maps_b=(bi.Q.transpose(), bi.T.transpose()))


class DoubleConstruction:
    def __init__(self, system, form, report):
        self.system = system
        self.form = form
        self.report = report


def double_construction(A, C, R, S, Q, T) -> DoubleConstruction:
    """Assemble A with the dual algebra of C, block maps R+Q*, S+T*, and the
    canonical pairing form; report associativity, form invariance and the
    paired identities."""
    mp = dual_actions_pair(A, C)
    big = bowtie(mp)
    RR = block_diag(R, Q.transpose())
    SS = block_diag(S, T.transpose())
    form = pairing_form(A.field, A.dim)
    sub = [
        make_report("system-a",
                    check_operator_system(
                        "symmetric_rbs", OperatorSystem(A, R, S)).violations),
        make_report("system-dual",
                    check_operator_system(
                        "symmetric_rbs",
                        OperatorSystem(mp.B, Q.transpose(), T.transpose())).violations),
        make_report("sum-associative",
                    check_axioms("associative", big).violations),
        make_report("form-invariant",
                    check_axioms("frobenius", (big, form)).violations),
        make_report("sum-system",
                    check_operator_system(
                        "symmetric_rbs", OperatorSystem(big, RR, SS)).violations),
    ]
    report = make_report("double-construction", subreports=sub)
    return DoubleConstruction(OperatorSystem(big, RR, SS), form, report)


def check_frobenius_srbs(A, R, S, B: BilinearForm):
    """Frobenius axioms plus the paired identities; for a symmetric form the
    computed adjoint pair is checked for adjoint admissibility."""
    if B.dim != A.dim:
        raise PayloadError("form dimension does not match the algebra")
    sub = [
        make_report("frobenius", check_axioms("frobenius", (A, B)).violations),
        make_report("operator-system",
                    check_operator_system(
                        "symmetric_rbs", OperatorSystem(A, R, S)).violations),
    ]
    adjoints = None
    if not B.is_nondegenerate():
        sub.append(make_report(
            "adjoint-admissible",
            (Violation("frobenius:nondegenerate", (), (str(B.gram.det()),)),)))
    elif not B.is_symmetric():
        sub.append(make_report("adjoint-admissible", not_applicable=True))
    else:
        rhat = form_adjoint(B, R)
        shat = form_adjoint(B, S)
        adjoints = (rhat, shat)
        sub.append(make_report(
            "adjoint-admissible",
            adjoint_admissible_report(A, R, S, rhat, shat).violations))
    return make_report("frobenius-system", subreports=sub), adjoints


def projection_srbs(mp: MatchedPairData) -> OperatorSystem:
    """On an associative A + B product: keep the A part, negate the B part."""
    big = bowtie(mp)
    assoc = check_axioms("associative", big)
    if not assoc.passed:
        raise PreconditionError("assembled product is not associative", assoc)
    field = big.field
    n, m = mp.A.dim, mp.B.dim
    z, o = field.zero(), field.one()
    RR = Matrix(field, n + m, n + m,
                [o if (i == j and i < n) else z
                 for i in range(n + m) for j in range(n + m)])
    SS = Matrix(field, n + m, n + m,
                [-o if (i == j and i >= n) else z
                 for i in range(n + m) for j in range(n + m)])
    return OperatorSystem(big, RR, SS)
