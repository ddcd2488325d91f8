"""The bundled regression suite behind `verify-paper`: the sixteen
parametric families at exact random rational points, the fixture
constructions, and the four GF(2) equivalence scans.

A scan asks whether a bridge checker and a bisystem checker agree on every
instance (lam, R, Q) of a carrier pair.  It is solved, not enumerated: for
each lam, each side's condition is the parts that its checker runs
(`bridges.weighted_rb_asi_identities`, `bisystems.bisystem_identities`,
...), which `search.solve_parts` compiles into one GF(p) quadratic system
in the entries of (R, Q) and solves, the bisystem side binding S to
R + lam*id and T to Q + lam*id (or keeping S = T = 0 on an averaging
scan).  Every survivor of either side goes through both public checkers,
and an instance on which the checkers disagree is a mismatch; every other
instance fails both sides' rows, and so both checkers.  A scan runs in one
`identities.shared_verdicts` scope, so each axiom, operator-system,
cosystem and bridge-part verdict is computed once per scan and dropped
when the scan returns.  `_mismatches` takes the field (GF(2) for the
rows)."""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from .identities import run_identities, run_parts, shared_verdicts
from .kernel import Matrix, PrimeField, Rationals
from .report import Violation, make_report
from . import fixtures as fx
from .structures import check_axioms, form_adjoint, pairing_form
from .systems import (check_crossed_products, check_operator_system,
                      check_cosystem, commutator_lift, cocommutator_lift,
                      nijenhuis_from_srbs, operator_system_identities)
from .representations import adjoint_admissible_report
from .bisystems import (ASIBisystem, bisystem_identities, bisystem_matched_pair,
                        check_bisystem, check_matched_pair_srbs,
                        double_construction, projection_srbs)
from .bridges import (LieBisystem, averaging_asi_identities,
                      averaging_lie_bialgebra_identities, check_averaging_asi,
                      check_averaging_lie_bialgebra, check_lie_bisystem,
                      check_weighted_rb_asi, check_weighted_rb_lie_bialgebra,
                      lie_bisystem_identities, weighted_rb_asi_identities,
                      weighted_rb_lie_bialgebra_identities)
from .search import solve_parts, verify_family

FAMILY_SEED = 20250809
FAMILY_SAMPLES = 20


def _mismatch(name, detail):
    return Violation("equivalence-mismatch", (name,), (detail,))


class _Scan(NamedTuple):
    """One equivalence scan: its carrier pair's constructors, the bridge
    checker and its parts, the bisystem class with its checker and parts,
    the carriers' axioms, and whether lam runs over the field with
    S = R + lam*id and T = Q + lam*id (else S = T = 0)."""
    carriers: tuple
    bridge: Callable
    bridge_parts: Callable
    bisystem: type
    check: Callable
    bisystem_parts: Callable
    axioms: str
    weighted: bool


_ASI = (ASIBisystem, check_bisystem, bisystem_identities, "asi_bialgebra")
_LIE = (LieBisystem, check_lie_bisystem, lie_bisystem_identities, "lie_bialgebra")
_SCANS = {
    "weighted": _Scan((fx.fix_a, fx.fix_c), check_weighted_rb_asi,
                      weighted_rb_asi_identities, *_ASI, True),
    "averaging": _Scan((fx.fix_a, fx.fix_c), check_averaging_asi,
                       averaging_asi_identities, *_ASI, False),
    "averaging-lie": _Scan((fx.fix_lie, fx.fix_delta), check_averaging_lie_bialgebra,
                           averaging_lie_bialgebra_identities, *_LIE, False),
    "weighted-lie": _Scan((fx.fix_lie, fx.fix_delta), check_weighted_rb_lie_bialgebra,
                          weighted_rb_lie_bialgebra_identities, *_LIE, True),
}

# both sides solve for the components (R, Q)
_OWN = {"R": (0, None), "Q": (1, None)}


def _sides(scan, A, C, lam):
    """The bridge side's and the bisystem side's (parts, binding) at one lam
    (None on an averaging scan): on a weighted scan the bisystem side binds
    S to R + lam*id and T to Q + lam*id, and on an averaging scan its S and
    T stay zero."""
    zero = Matrix.zero(A.field, A.dim)
    bisystem = scan.bisystem_parts(scan.bisystem(A, C, zero, zero, zero, zero))
    if lam is None:
        return (scan.bridge_parts(A, C, zero, zero), _OWN), (bisystem, _OWN)
    shift = Matrix.identity(A.field, A.dim).scale(lam)
    return ((scan.bridge_parts(A, C, zero, zero, lam), _OWN),
            (bisystem, dict(_OWN, S=(0, shift), T=(1, shift))))


def _survivors(scan, A, C):
    """(lam, the bridge side's survivors, the bisystem side's survivors) for
    each lam, the survivors as sets of (R, Q) entry tuples.  Neither side
    keeps anything unless the carriers pass their axioms."""
    ok = check_axioms(scan.axioms, (A, C)).passed
    for lam in range(A.field.modulus) if scan.weighted else (None,):
        yield lam, *[set(solve_parts(A.field, A.dim, parts, binding)) if ok else set()
                     for parts, binding in _sides(scan, A, C, lam)]


@shared_verdicts()
def _mismatches(row, field):
    """The instances (lam, R, Q) over `field` on which the row's two
    checkers disagree, as mismatch strings.  Every instance that either
    side's rows keep (`_survivors`) goes through both public checkers, in
    (lam, R, Q) order, and a checker that disagrees with its own side's rows
    raises `RuntimeError`; every other instance fails both sides' rows, and
    so both checkers."""
    scan = _SCANS[row]
    A, C = (make(field) for make in scan.carriers)
    d = A.dim
    n, zero, eye = d * d, Matrix.zero(field, d), Matrix.identity(field, d)
    bad = []
    for lam, *found in _survivors(scan, A, C):
        for y in sorted(found[0] | found[1]):
            R, Q = Matrix._make(field, d, d, y[:n]), Matrix._make(field, d, d, y[n:])
            if lam is None:
                detail = f"R={R} Q={Q}"
                left = scan.bridge(A, C, R, Q).passed
                right = scan.check(scan.bisystem(A, C, R, zero, Q, zero)).passed
            else:
                detail = f"lam={lam} R={R} Q={Q}"
                left = scan.bridge(A, C, R, Q, lam).passed
                shift = eye.scale(lam)
                right = scan.check(scan.bisystem(A, C, R, R + shift, Q, Q + shift)).passed
            if (left, right) != (y in found[0], y in found[1]):
                raise RuntimeError(f"compiled rows and reference checkers disagree at "
                                   f"{row} {detail}")
            if left != right:
                bad.append(detail)
    return bad


def _scan(row):
    """Whether the bridge checker agrees with the bisystem checker on every
    GF(2) instance of the row's carrier pair (`_mismatches`)."""
    bad = _mismatches(row, PrimeField(2))
    return make_report(f"scan:{row}-equivalence", [_mismatch(row, detail) for detail in bad])


def scan_weighted_equivalence():
    """Weighted bridge checker agrees with the embedded bisystem checker on
    every GF(2) instance of the bundled carrier pair."""
    return _scan("weighted")


def scan_averaging_equivalence():
    return _scan("averaging")


def scan_averaging_lie_equivalence():
    return _scan("averaging-lie")


def scan_weighted_lie_equivalence():
    return _scan("weighted-lie")


# fixture rows

def row_bisystem():
    return check_bisystem(fx.fix_bi())


def row_matched_pair():
    return check_matched_pair_srbs(bisystem_matched_pair(fx.fix_bi()))


def row_double_construction():
    bi = fx.fix_bi()
    return double_construction(bi.algebra, bi.coalgebra, bi.R, bi.S, bi.Q, bi.T).report


def row_projection_system():
    bi = fx.fix_bi()
    proj = projection_srbs(bisystem_matched_pair(bi))
    return run_identities("projection-system",
                          *operator_system_identities("symmetric_rbs", proj))


def row_projection_adjoints():
    bi = fx.fix_bi()
    proj = projection_srbs(bisystem_matched_pair(bi))
    form = pairing_form(proj.carrier.field, bi.algebra.dim)
    bad = []
    if form_adjoint(form, proj.R) != -proj.S:
        bad.append(Violation("map-equality", ("adjoint(R)", "-S"), ("mismatch",)))
    if form_adjoint(form, proj.S) != -proj.R:
        bad.append(Violation("map-equality", ("adjoint(S)", "-R"), ("mismatch",)))
    adm = adjoint_admissible_report(proj.carrier, proj.R, proj.S, -proj.S, -proj.R)
    return make_report("projection-adjoints", bad + list(adm.violations))


def row_commutator_lift():
    R, S = fx.gc_maps()
    lifted = commutator_lift(fx.fix_a(), R, S)
    bad = []
    if lifted.carrier != fx.fix_lie():
        bad.append(Violation("map-equality", ("bracket", "fixture"), ("mismatch",)))
    rep = check_operator_system("lie_rbs", lifted)
    return make_report("commutator-lift", bad + list(rep.violations))


def row_cocommutator_lift():
    Q, T = fx.emm_maps()
    lifted = cocommutator_lift(fx.fix_c(), Q, T)
    bad = []
    if lifted.carrier != fx.fix_delta():
        bad.append(Violation("map-equality", ("cobracket", "fixture"), ("mismatch",)))
    rep = check_cosystem("lie_rb_cosystem", lifted)
    return make_report("cocommutator-lift", bad + list(rep.violations))


def row_lie_bisystem():
    R, S = fx.gc_maps()
    Q, T = fx.emm_maps()
    return check_lie_bisystem(LieBisystem(fx.fix_lie(), fx.fix_delta(), R, S, Q, T))


def row_nijenhuis_double():
    bi = fx.fix_bi()
    proj = projection_srbs(bisystem_matched_pair(bi))
    big = proj.carrier
    crossed = check_crossed_products(big, proj.R, proj.S)
    n1, n2 = nijenhuis_from_srbs(big, proj.R, proj.S)
    bad = []
    if n1.R != Matrix.identity(big.field, big.dim):
        bad.append(Violation("map-equality", ("R-S", "identity"), ("mismatch",)))
    return run_parts("nijenhuis-double", (
        crossed,
        ("nijenhuis-star", *operator_system_identities("nijenhuis", n1)),
        ("nijenhuis-starp", *operator_system_identities("nijenhuis", n2)),
    ), bad)


def paper_rows():
    """(name, thunk) pairs; each thunk returns a Report."""
    rows = []
    QQ = Rationals()
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    for fam in fx.CEE_FAMILIES + fx.CUU_FAMILIES:
        carrier = A if fam.kind == "symmetric_rbs" else C
        rows.append((f"family:{fam.name}",
                     lambda fam=fam, carrier=carrier: verify_family(
                         fam, carrier, FAMILY_SAMPLES, FAMILY_SEED)))
    rows += [
        ("fixture:bisystem", row_bisystem),
        ("fixture:matched-pair", row_matched_pair),
        ("fixture:double-construction", row_double_construction),
        ("fixture:projection-system", row_projection_system),
        ("fixture:projection-adjoints", row_projection_adjoints),
        ("fixture:commutator-lift", row_commutator_lift),
        ("fixture:cocommutator-lift", row_cocommutator_lift),
        ("fixture:lie-bisystem", row_lie_bisystem),
        ("fixture:nijenhuis-double", row_nijenhuis_double),
        ("scan:weighted-equivalence", scan_weighted_equivalence),
        ("scan:averaging-equivalence", scan_averaging_equivalence),
        ("scan:averaging-lie-equivalence", scan_averaging_lie_equivalence),
        ("scan:weighted-lie-equivalence", scan_weighted_lie_equivalence),
    ]
    return rows


def verify_paper():
    """Run every bundled regression row; failures are rows, not crashes."""
    results = []
    for name, thunk in paper_rows():
        t0 = time.perf_counter()
        try:
            rep = thunk()
            status = rep.status
            violations = [v.identity for v in rep.all_violations()][:8]
        except Exception as exc:  # a crash is reported as a failing row
            status = "fail"
            violations = [f"error: {exc}"]
        results.append({"name": name, "status": status,
                        "seconds": round(time.perf_counter() - t0, 3),
                        "violations": violations})
    return results
