"""Compatible algebra/coalgebra quintuples, matched pairs, and the
Frobenius double construction.

The equivalence theorems relating these checkers assert equality of
satisfaction, so hypothesis failures surface as failing named sub-reports
rather than exceptions; only structure-returning constructors refuse,
through `errors.require`.

Every composite here is one `identities.run_parts` call: a condition that
renames a catalog check is a (name, tags, ctx) part, and anything else a
ready `Report`.  `check_bisystem` runs the bialgebra axioms (`check_axioms`,
whose verdict search shares) and then the parts of `bisystem_identities`,
the same parts that search compiles, through `_bridge_report`; the bridge
checkers in `bridges` share that helper.  Each part is one `run_identities`
call, so inside `identities.shared_verdicts` a repeated part is served from
the memo.  The matched-pair product is `representations.bowtie`, the one
direct-sum table of the toolkit, with `MatchedPairData`.
"""

from __future__ import annotations

from .errors import PayloadError, require
from .identities import run_parts
from .kernel import Matrix, block_diag
from .report import Violation, make_report
from .structures import (BilinearForm, _axiom_identities, check_axioms, dualize,
                         form_adjoint, pairing_form, square_on)
from .systems import (CoOperatorSystem, OperatorSystem, cosystem_identities,
                      operator_system_identities)
from .representations import (MatchedPairData, Representation,
                              adjoint_admissible_identities,
                              adjoint_admissible_report, bowtie,
                              coadjoint_admissible_identities,
                              representation_identities)


def check_matched_pair_srbs(mp: MatchedPairData):
    """Matched pair of paired operator systems: both constituent systems,
    both cross representations, associativity of the assembled product and
    the paired identities of the summed maps, as named parts."""
    if mp.maps_a is None or mp.maps_b is None:
        raise PayloadError("matched-pair check needs map pairs on both sides")
    RA, SA = mp.maps_a
    RB, SB = mp.maps_b
    sys_a = OperatorSystem(mp.A, RA, SA)
    sys_b = OperatorSystem(mp.B, RB, SB)
    big = bowtie(mp)
    big_sys = OperatorSystem(big, block_diag(RA, RB), block_diag(SA, SB))
    return run_parts("matched-pair", (
        ("system-a", *operator_system_identities("symmetric_rbs", sys_a)),
        ("system-b", *operator_system_identities("symmetric_rbs", sys_b)),
        ("action-on-b", *representation_identities(
            sys_a, Representation(mp.module_over_a(), RB, SB))),
        ("action-on-a", *representation_identities(
            sys_b, Representation(mp.module_over_b(), RA, SA))),
        ("sum-associative", *_axiom_identities("associative", big)),
        ("sum-system", *operator_system_identities("symmetric_rbs", big_sys)),
    ))


class ASIBisystem:
    """Algebra and coalgebra on one space with two map pairs (R, S) and (Q, T)."""

    def __init__(self, algebra, coalgebra, R, S, Q, T):
        if algebra.dim != coalgebra.dim:
            raise PayloadError("algebra and coalgebra dimensions differ")
        square_on(algebra, R, S, Q, T)
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
    """The carriers' axioms, renamed from one `check_axioms` call (whose
    verdict search and the regression scans share), then `parts`, through
    `run_parts`."""
    own = make_report(axioms.replace("_", "-"), check_axioms(axioms, carriers).violations)
    return run_parts(check, (own, *parts))


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
    Qt, Tt = Q.transpose(), T.transpose()
    sys_a, sys_dual = OperatorSystem(A, R, S), OperatorSystem(mp.B, Qt, Tt)
    big = bowtie(mp)
    system = OperatorSystem(big, block_diag(R, Qt), block_diag(S, Tt))
    form = pairing_form(A.field, A.dim)
    report = run_parts("double-construction", (
        ("system-a", *operator_system_identities("symmetric_rbs", sys_a)),
        ("system-dual", *operator_system_identities("symmetric_rbs", sys_dual)),
        ("sum-associative", *_axiom_identities("associative", big)),
        make_report("form-invariant", check_axioms("frobenius", (big, form)).violations),
        ("sum-system", *operator_system_identities("symmetric_rbs", system)),
    ))
    return DoubleConstruction(system, form, report)


def check_frobenius_srbs(A, R, S, B: BilinearForm):
    """Frobenius axioms plus the paired identities; for a symmetric form the
    computed adjoint pair is checked for adjoint admissibility."""
    if B.dim != A.dim:
        raise PayloadError("form dimension does not match the algebra")
    sub = [
        make_report("frobenius", check_axioms("frobenius", (A, B)).violations),
        ("operator-system", *operator_system_identities(
            "symmetric_rbs", OperatorSystem(A, R, S))),
    ]
    adjoints = None
    if not B.is_nondegenerate():
        sub.append(make_report(
            "adjoint-admissible",
            (Violation("frobenius:nondegenerate", (), (str(B.gram.det()),)),)))
    elif not B.is_symmetric():
        sub.append(make_report("adjoint-admissible", not_applicable=True))
    else:
        adjoints = form_adjoint(B, R), form_adjoint(B, S)
        sub.append(adjoint_admissible_report(A, R, S, *adjoints))
    return run_parts("frobenius-system", sub), adjoints


def projection_srbs(mp: MatchedPairData) -> OperatorSystem:
    """On an associative A + B product: keep the A part, negate the B part."""
    big = bowtie(mp)
    require(check_axioms("associative", big), "assembled product is not associative")
    F, n, m = big.field, mp.A.dim, mp.B.dim
    return OperatorSystem(big, block_diag(Matrix.identity(F, n), Matrix.zero(F, m)),
                          block_diag(Matrix.zero(F, n), -Matrix.identity(F, m)))
