"""The bundled regression suite behind `verify-paper`: the sixteen
parametric families at exact random rational points, the fixture
constructions, and the exhaustive GF(2) equivalence scans.

The four scans share one body (`_scan`), which compares a bridge checker
with a bisystem checker on every instance inside one
`identities.shared_verdicts` scope: each axiom, operator-system and
cosystem verdict is computed once per scan and dropped when the scan
returns."""

from __future__ import annotations

import itertools
import time

from .identities import shared_verdicts
from .kernel import Matrix, PrimeField, Rationals
from .report import Violation, make_report
from . import fixtures as fx
from .structures import form_adjoint, pairing_form
from .systems import (check_crossed_products, check_operator_system,
                      check_cosystem, commutator_lift, cocommutator_lift,
                      nijenhuis_from_srbs)
from .representations import adjoint_admissible_report
from .bisystems import (ASIBisystem, bisystem_matched_pair, check_bisystem,
                        check_matched_pair_srbs, double_construction,
                        projection_srbs)
from .bridges import (LieBisystem, check_averaging_asi,
                      check_averaging_lie_bialgebra, check_lie_bisystem,
                      check_weighted_rb_asi, check_weighted_rb_lie_bialgebra)
from .search import verify_family

FAMILY_SEED = 20250809
FAMILY_SAMPLES = 20


def _mismatch(name, detail):
    return Violation("equivalence-mismatch", (name,), (detail,))


def _gf2_maps():
    F2 = PrimeField(2)
    return F2, [Matrix(F2, 2, 2, [F2.of(b) for b in bits])
                for bits in itertools.product(range(2), repeat=4)]


@shared_verdicts()
def _scan(row, carriers, bridge, bisystem, check, weighted):
    """Whether the `bridge` checker agrees with the bisystem `check` on every
    GF(2) instance of the carrier pair: weighted scans run lam over GF(2)
    with S = R + lam*id and T = Q + lam*id, averaging scans take S = T = 0.
    The up to 512 instances hold only 32 distinct (R, S) and 32 distinct
    (Q, T) pairs, and the scan runs in one `shared_verdicts` scope."""
    F2, mats = _gf2_maps()
    A, C = (make(F2) for make in carriers)
    eye, zero = Matrix.identity(F2, 2), Matrix.zero(F2, 2)
    bad = []
    for lam in (F2.zero(), F2.one()) if weighted else (None,):
        for R in mats:
            for Q in mats:
                if weighted:
                    left = bridge(A, C, R, Q, lam).passed
                    S, T = R + eye.scale(lam), Q + eye.scale(lam)
                else:
                    left = bridge(A, C, R, Q).passed
                    S = T = zero
                if left != check(bisystem(A, C, R, S, Q, T)).passed:
                    detail = f"R={R} Q={Q}"
                    bad.append(_mismatch(row, f"lam={lam} {detail}" if weighted else detail))
    return make_report(f"scan:{row}-equivalence", bad)


def scan_weighted_equivalence():
    """Weighted bridge checker agrees with the embedded bisystem checker on
    every GF(2) instance of the bundled carrier pair."""
    return _scan("weighted", (fx.fix_a, fx.fix_c), check_weighted_rb_asi,
                 ASIBisystem, check_bisystem, weighted=True)


def scan_averaging_equivalence():
    return _scan("averaging", (fx.fix_a, fx.fix_c), check_averaging_asi,
                 ASIBisystem, check_bisystem, weighted=False)


def scan_averaging_lie_equivalence():
    return _scan("averaging-lie", (fx.fix_lie, fx.fix_delta), check_averaging_lie_bialgebra,
                 LieBisystem, check_lie_bisystem, weighted=False)


def scan_weighted_lie_equivalence():
    return _scan("weighted-lie", (fx.fix_lie, fx.fix_delta), check_weighted_rb_lie_bialgebra,
                 LieBisystem, check_lie_bisystem, weighted=True)


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
    return make_report("projection-system",
                       check_operator_system("symmetric_rbs", proj).violations)


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
    sub = [make_report("crossed-products",
                       check_crossed_products(big, proj.R, proj.S).violations)]
    n1, n2 = nijenhuis_from_srbs(big, proj.R, proj.S)
    sub.append(make_report("nijenhuis-star",
                           check_operator_system("nijenhuis", n1).violations))
    sub.append(make_report("nijenhuis-starp",
                           check_operator_system("nijenhuis", n2).violations))
    bad = []
    if n1.R != Matrix.identity(big.field, big.dim):
        bad.append(Violation("map-equality", ("R-S", "identity"), ("mismatch",)))
    return make_report("nijenhuis-double", bad, subreports=sub)


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
