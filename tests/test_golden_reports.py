"""Byte-for-byte pins of checker reports.

Equivalence rows only compare two checkers with each other, so they would
not notice both checkers changing in the same way.  These tests pin the
sha256 of `Report.to_json(witness=True)` for every instance of the four
GF(2) equivalence scans (both sides), for every `paper_rows()` row, and
for a seeded set of GF(3) instances, most of which fail: their residuals
are where a reduction mistake (say -1 rendered instead of 2) would show.
A second seeded GF(3) set pins the composite reports (matched pairs, the
double construction, Frobenius systems, representations) and the message
and report with which the constructive builders refuse.
The digests were computed on the boxed-scalar kernel that predates the
int storage of GF(p) entries.
"""

import hashlib
import json
import random

import pytest

from rbx import fixtures as fx
from rbx import regression
from rbx.bisystems import (ASIBisystem, bisystem_matched_pair, check_bisystem,
                           check_frobenius_srbs, check_matched_pair_srbs,
                           double_construction)
from rbx.bridges import (LieBisystem, apreperm_from_averaging, check_averaging_asi,
                         check_averaging_lie_bialgebra, check_lie_bisystem,
                         check_weighted_rb_asi, check_weighted_rb_lie_bialgebra,
                         lie_matched_pair_report)
from rbx.errors import PreconditionError
from rbx.kernel import Matrix, PrimeField, Tensor2
from rbx.report import make_report
from rbx.representations import Bimodule, Representation, check_representation
from rbx.structures import Algebra, BilinearForm, Coalgebra, check_axioms
from rbx.systems import (CoOperatorSystem, OperatorSystem, check_cosystem,
                         check_operator_system, check_symmetric_ybpair)
from rbx.yangbaxter import (check_aybe, o_operator_solution,
                            quasitriangular_bisystem, triangular_bisystem)


def _digest(reports):
    h = hashlib.sha256()
    for rep in reports:
        h.update(json.dumps(rep.to_json(witness=True), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


def _gf2_maps():
    F2 = PrimeField(2)
    return F2, [Matrix(F2, 2, 2, bits) for bits in
                ((a, b, c, d) for a in range(2) for b in range(2)
                 for c in range(2) for d in range(2))]


def _scan_instances(scan):
    """(left, right) reports of every instance, in the scan's own order."""
    F2, mats = _gf2_maps()
    eye, Z = Matrix.identity(F2, 2), Matrix.zero(F2, 2)
    A, C = fx.fix_a(F2), fx.fix_c(F2)
    g, dl = fx.fix_lie(F2), fx.fix_delta(F2)
    if scan in ("weighted", "weighted-lie"):
        for lam in (0, 1):
            for R in mats:
                for Q in mats:
                    S, T = R + eye.scale(lam), Q + eye.scale(lam)
                    if scan == "weighted":
                        yield (check_weighted_rb_asi(A, C, R, Q, lam),
                               check_bisystem(ASIBisystem(A, C, R, S, Q, T)))
                    else:
                        yield (check_weighted_rb_lie_bialgebra(g, dl, R, Q, lam),
                               check_lie_bisystem(LieBisystem(g, dl, R, S, Q, T)))
        return
    for R in mats:
        for Q in mats:
            if scan == "averaging":
                yield (check_averaging_asi(A, C, R, Q),
                       check_bisystem(ASIBisystem(A, C, R, Z, Q, Z)))
            else:
                yield (check_averaging_lie_bialgebra(g, dl, R, Q),
                       check_lie_bisystem(LieBisystem(g, dl, R, Z, Q, Z)))


SCAN_DIGESTS = {
    "averaging": ("a66e957e23ccc75f5944729469ececad",
                  "789b9d0e4b1e86ad3e423dc1556357b3"),
    "averaging-lie": ("f1997264c5d7e7f99e483b6a198ff891",
                      "61814cdbdad2507aae5d2f10edcdd434"),
    "weighted": ("476292ce89911427f75649a8fd5ce525",
                 "edd3e3ebd73f80d1a2ca0b47656b608a"),
    "weighted-lie": ("0b3032f19f809839273ddba0c170e1a1",
                     "9e2d4862de2453f2d3cb538cade76650"),
}


@pytest.mark.parametrize("scan", sorted(SCAN_DIGESTS))
def test_scan_reports_pinned(scan):
    pairs = list(_scan_instances(scan))
    assert len(pairs) == (512 if scan.startswith("weighted") else 256)
    left = _digest(rep for rep, _ in pairs)
    right = _digest(rep for _, rep in pairs)
    assert (left, right) == SCAN_DIGESTS[scan]


ROW_DIGESTS = {
    "family:cee-a": "aa6c93ea0809a60ee3c2448f900187a3",
    "family:cee-b": "1a70361d7dca3ab803a753d5d644c3f6",
    "family:cee-c": "c0ef35b51308ddf003fc7ea79d15f877",
    "family:cee-d": "2054f500846cfcbd450e112d1b3cca90",
    "family:cee-e": "296ea4274fdd874159b1732a1119eef6",
    "family:cee-f": "358303dad981ccb08a21a1cb3d91db54",
    "family:cee-g": "1c1fd82891e36ddbee932348aa10c7bc",
    "family:cee-h": "0368a9841d35077e3bfdfd6678f5ae38",
    "family:cuu-a": "540fe8e518ee16e24998b025397ded32",
    "family:cuu-b": "89ba6cb8492bec14e5a7962843b3ddc3",
    "family:cuu-c": "6e0c13e0bb3f748c50b10d6a84efc4ee",
    "family:cuu-d": "ed0201658a95ce2d70b44112a506b53f",
    "family:cuu-e": "5d23ac56667009537673b6da4f524c5a",
    "family:cuu-f": "0e20a3e1eb815e4bec2c20a02d7a4462",
    "family:cuu-g": "6eb6cbb20c077277f0db1faf18bb082e",
    "family:cuu-h": "188ac055015be5e77be393f64605059a",
    "fixture:bisystem": "ff9bc5947816566c607fa0cad29b23ca",
    "fixture:cocommutator-lift": "aaed747ac55a060bb8a9f608e4b7580b",
    "fixture:commutator-lift": "28d4fd45a8e72a8ebfd702c57d1eca2f",
    "fixture:double-construction": "b8bcf928967584559d24739af37adc9d",
    "fixture:lie-bisystem": "b0bff69fe8ae154c3ccb658b21019d49",
    "fixture:matched-pair": "26e8a82a19ce925bbd0aee11e2916a51",
    "fixture:nijenhuis-double": "2c37608ffcb741360e764ab598352086",
    "fixture:projection-adjoints": "65a1f5ad88397a9b356e5250ad1edeea",
    "fixture:projection-system": "7683ad5c7f2d5dbbe3471ca07957ecc1",
    "scan:averaging-equivalence": "59ffc5e78344c4c2f14657bde2e748b7",
    "scan:averaging-lie-equivalence": "3038635149a022dbd8ef91def1b766db",
    "scan:weighted-equivalence": "b32d183153a2031d5a637d73e14428b8",
    "scan:weighted-lie-equivalence": "ea3b3deefd096278b66f17f28af6a6a9",
}


def test_paper_row_reports_pinned():
    got = {name: _digest([thunk()]) for name, thunk in regression.paper_rows()}
    assert len(got) == 29
    assert got == ROW_DIGESTS


def gf3_reports():
    """Seeded GF(3) instances of the main checkers, keyed by checker, with
    vector, 2-tensor, 3-tensor and scalar residuals."""
    F3 = PrimeField(3)
    rng = random.Random(20261018)

    def digits(n):
        return [rng.randrange(3) for _ in range(n)]

    A, C = fx.fix_a(F3), fx.fix_c(F3)
    g, dl = fx.fix_lie(F3), fx.fix_delta(F3)
    out = {}

    def add(name, rep):
        out.setdefault(name, []).append(rep)

    for _ in range(12):
        R, S, Q, T = (Matrix(F3, 2, 2, digits(4)) for _ in range(4))
        lam = rng.randrange(3)
        add("symmetric_rbs", check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)))
        add("rb_weight", check_operator_system("rb_weight", OperatorSystem(A, R, weight=lam)))
        add("nijenhuis", check_operator_system("nijenhuis", OperatorSystem(A, R)))
        add("cosystem", check_cosystem("symmetric_rb_cosystem", CoOperatorSystem(C, Q, T)))
        add("bisystem", check_bisystem(ASIBisystem(A, C, R, S, Q, T)))
        add("weighted-rb-asi", check_weighted_rb_asi(A, C, R, Q, lam))
        add("lie-bisystem", check_lie_bisystem(LieBisystem(g, dl, R, S, Q, T)))
        add("weighted-rb-lie", check_weighted_rb_lie_bialgebra(g, dl, R, Q, lam))
        add("aybe", check_aybe(A, Tensor2(F3, 2, digits(4))))
        add("ybpair", check_symmetric_ybpair(A, Tensor2(F3, 2, digits(4)),
                                             Tensor2(F3, 2, digits(4))))
        alg = Algebra(F3, [[digits(2) for _ in range(2)] for _ in range(2)], raw=True)
        coalg = Coalgebra(F3, [[digits(2) for _ in range(2)] for _ in range(2)], raw=True)
        add("associative", check_axioms("associative", alg))
        add("coassociative", check_axioms("coassociative", coalg))
        add("asi-bialgebra", check_axioms("asi_bialgebra", (alg, coalg)))
        add("frobenius", check_axioms("frobenius",
                                      (alg, BilinearForm(F3, Matrix(F3, 2, 2, digits(4))))))
    return out


GF3_DIGESTS = {
    "asi-bialgebra": "f72d3c65d61208862c6c06a31fe424be",
    "associative": "1c7eda20c1c4fe180206e262cbec24c3",
    "aybe": "fc2a400431b4e452263cd9abc4a175b4",
    "bisystem": "2ea3b65691bca280363d941d90e6c092",
    "coassociative": "1d862db888e59157cc484eeae230152e",
    "cosystem": "fdf3e41664eb596d6de1f2ef8a7e7a39",
    "frobenius": "39a2d652076643281b701dbba67393e2",
    "lie-bisystem": "fede8276aafc860faabee9ccfe0b9a17",
    "nijenhuis": "6f007523837cc92d89aea77e495bc2b2",
    "rb_weight": "d6724a78e598b0bc7c7a800f87f990e5",
    "symmetric_rbs": "81ae8a8fdd26ef40e7a26c3a150987cc",
    "weighted-rb-asi": "6f14bdb0267a489b8899d05388e96ea7",
    "weighted-rb-lie": "4238b7c1cd8061dbad22a6405709ce61",
    "ybpair": "d46672f7f09c1320eebb4fc314bf38ff",
}


def test_gf3_failing_reports_pinned():
    reports = gf3_reports()
    failing = sum(rep.status == "fail" for reps in reports.values() for rep in reps)
    assert failing >= 100
    assert {name: _digest(reps) for name, reps in reports.items()} == GF3_DIGESTS


def _refused(err):
    """The message and report of a `PreconditionError`, as one report."""
    return make_report(f"refused: {err}", subreports=(err.report,))


def _refusal(build, *args):
    """`_refused` of the error that `build` raises, or an "accepted"
    report when it builds."""
    try:
        build(*args)
    except PreconditionError as err:
        return _refused(err)
    return make_report("accepted")


def composite_reports():
    """Seeded GF(3) instances of the composite checkers and of the
    hypothesis gates of the constructive builders, keyed by name; a third
    of the instances use zero maps, so that the gates pass some parts."""
    F3 = PrimeField(3)
    rng = random.Random(20261020)

    def digits(n):
        return [rng.randrange(3) for _ in range(n)]

    def maps(k):
        if rng.randrange(3) == 0:
            return [Matrix.zero(F3, 2) for _ in range(k)]
        return [Matrix(F3, 2, 2, digits(4)) for _ in range(k)]

    A, C = fx.fix_a(F3), fx.fix_c(F3)
    g, dl = fx.fix_lie(F3), fx.fix_delta(F3)
    out = {}

    def add(name, rep):
        out.setdefault(name, []).append(rep)

    for _ in range(12):
        R, S, Q, T = maps(4)
        bi = ASIBisystem(A, C, R, S, Q, T)
        add("matched-pair", check_matched_pair_srbs(bisystem_matched_pair(bi)))
        add("double-construction", double_construction(A, C, R, S, Q, T).report)
        form = BilinearForm(F3, Matrix(F3, 2, 2, digits(4)))
        add("frobenius-srbs", check_frobenius_srbs(A, R, S, form)[0])
        add("lie-matched-pair", lie_matched_pair_report(LieBisystem(g, dl, R, S, Q, T)))
        left, right, (alpha, beta) = maps(2), maps(2), maps(2)
        rep = Representation(Bimodule(2, left, right), alpha, beta)
        add("representation", check_representation(OperatorSystem(A, R, S), rep))
        r = Tensor2(F3, 2, digits(4))
        add("triangular", _refusal(triangular_bisystem, A, R, S, Q, T, r))
        add("quasitriangular", _refusal(quasitriangular_bisystem, A, R, S, Q, T, r))
        tmap, xi, zeta = maps(3)
        try:  # an accepted input pins its bisystem-hypotheses report
            add("o-operator", o_operator_solution(OperatorSystem(A, R, S), rep, tmap,
                                                  Q, T, xi, zeta).hypothesis_report)
        except PreconditionError as err:
            add("o-operator", _refused(err))
        add("apre-perm", _refusal(apreperm_from_averaging, A, C, R, Q))
    return out


COMPOSITE_DIGESTS = {
    "apre-perm": "14cb92163ecd7e170927131007388f36",
    "double-construction": "b981eb97735056f6489107337eb9c3b5",
    "frobenius-srbs": "747df3e2378e944027f51364a8a1dd3e",
    "lie-matched-pair": "b5b138768631239cd6c210f06a10d67c",
    "matched-pair": "4bef59c1f61ece002e3a55f5b6d51265",
    "o-operator": "970b46729249926e76c0b88f342eedc0",
    "quasitriangular": "631d1133f20fb8595600b5ecd4f22abe",
    "representation": "8e8dd80109d7fd66b6630491dca6900e",
    "triangular": "6ba28cc88df6416e12d06a5827d1c1c9",
}


def test_composite_reports_and_refusals_pinned():
    reports = composite_reports()
    assert {name: _digest(reps) for name, reps in reports.items()} == COMPOSITE_DIGESTS
