import json

import pytest

from rbx import fixtures as fx
from rbx import regression
from rbx.bridges import LieBisystem, check_averaging_lie_bialgebra, check_lie_bisystem
from rbx.cli import main, parse, run_check
from rbx.identities import seeded_fault, shared_verdicts
from rbx.kernel import Matrix, PrimeField
from rbx.report import Violation, make_report
from rbx.structures import check_axioms, pairing_form
from conftest import all_matrices


def test_paper_rows_cover_spec_surface():
    names = [name for name, _ in regression.paper_rows()]
    assert sum(n.startswith("family:cee") for n in names) == 8
    assert sum(n.startswith("family:cuu") for n in names) == 8
    for expected in ("fixture:bisystem", "fixture:matched-pair",
                     "fixture:double-construction", "fixture:projection-system",
                     "fixture:projection-adjoints", "fixture:commutator-lift",
                     "fixture:cocommutator-lift", "fixture:lie-bisystem",
                     "fixture:nijenhuis-double", "scan:weighted-equivalence",
                     "scan:averaging-equivalence",
                     "scan:averaging-lie-equivalence",
                     "scan:weighted-lie-equivalence"):
        assert expected in names


# the four equivalence scans over larger fields: instances that each side
# passes, summed over lam on the weighted rows

SCAN_HITS = {"averaging": (17, 49, 97), "averaging-lie": (17, 49, 97),
             "weighted": (71, 261, 619), "weighted-lie": (103, 453, 1195)}


def _hits(row, F):
    """The instances (lam, R, Q) that each side's rows keep, bridge side
    first, as entry tuples (lam, R entries + Q entries)."""
    scan = regression._SCANS[row]
    A, C = (make(F) for make in scan.carriers)
    hits = ([], [])
    for lam, *found in regression._survivors(scan, A, C):
        for side, ys in zip(hits, found):
            side += [(lam, y) for y in sorted(ys)]
    return hits


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("row", sorted(SCAN_HITS))
def test_scan_hits_over_larger_fields(row, p):
    # `_mismatches` raises unless both checkers agree with their own side's
    # rows, so the survivors are the instances that each checker passes
    F = PrimeField(p)
    assert regression._mismatches(row, F) == []
    left, right = _hits(row, F)
    assert len(left) == SCAN_HITS[row][(3, 5, 7).index(p)]
    assert left == right


def _brute_averaging_lie(F):
    """(hits, mismatches) of the averaging-lie scan from both public
    checkers on every instance, in `_hits` and `regression._mismatches`
    form; the instances share verdicts in one scope."""
    g, dl, zero = fx.fix_lie(F), fx.fix_delta(F), Matrix.zero(F, 2)
    hits, bad = ([], []), []
    with shared_verdicts():
        for R in all_matrices(F):
            for Q in all_matrices(F):
                left = check_averaging_lie_bialgebra(g, dl, R, Q).passed
                right = check_lie_bisystem(LieBisystem(g, dl, R, zero, Q, zero)).passed
                for side, held in zip(hits, (left, right)):
                    if held:
                        side.append((None, R.entries + Q.entries))
                if left != right:
                    bad.append(f"R={R} Q={Q}")
    return hits, bad


@pytest.mark.parametrize("tag", ["de:ev#2b", "eq:emm1#1"])
def test_solved_scan_matches_brute_force_under_a_fault(tag):
    # a bridge-side and a bisystem-side fault over GF(3), where a sign flip
    # shows (over GF(2), -x = x); both reach the compiled rows and both
    # checkers, so the solved scan reports the brute force's mismatches
    F3 = PrimeField(3)
    with seeded_fault(tag, 1):
        bad = regression._mismatches("averaging-lie", F3)
        got = _hits("averaging-lie", F3), bad
        want = _brute_averaging_lie(F3)
    assert got == want
    assert len(bad) == 8


def test_scan_refuses_rows_that_disagree_with_a_checker(monkeypatch):
    # a bridge checker that passes nothing disagrees with the rows' survivors
    def never(*args):
        return make_report("never", [Violation("never", (), ())])

    scan = regression._SCANS["averaging-lie"]
    monkeypatch.setitem(regression._SCANS, "averaging-lie", scan._replace(bridge=never))
    with pytest.raises(RuntimeError, match="disagree"):
        regression.scan_averaging_lie_equivalence()


def test_family_rows_localize_operator_fault():
    # a fault in the second paired identity breaks exactly the map-side
    # families whose flipped summand is nonzero; coproduct rows are untouched
    with seeded_fault("eq:ea1#1", 0):
        statuses = {name: thunk().status
                    for name, thunk in regression.paper_rows()
                    if name.startswith("family:")}
    failed = {n for n, s in statuses.items() if s == "fail"}
    assert failed == {"family:cee-a", "family:cee-c", "family:cee-f",
                      "family:cee-g"}
    assert all(s == "pass" for n, s in statuses.items()
               if n.startswith("family:cuu"))


def test_verify_paper_json_plumbing(capsys, monkeypatch):
    rows = [{"name": "stub", "status": "pass", "seconds": 0.0, "violations": []}]
    monkeypatch.setattr(regression, "verify_paper", lambda: rows)
    assert main(["verify-paper", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"] == "verify-paper"
    assert doc["status"] == "pass"
    assert doc["rows"] == rows

    bad = [{"name": "stub", "status": "fail", "seconds": 0.0, "violations": ["x"]}]
    monkeypatch.setattr(regression, "verify_paper", lambda: bad)
    assert main(["verify-paper"]) == 1
    assert "FAILURES" in capsys.readouterr().out


def test_form_lines_parse_and_check():
    src = """\
field Q
algebra A dim 2 basis u v
mul u u = 1 u
mul u v = 1 v
mul v u = 1 v

form B on A
B u = 1 v
B v = 1 u
"""
    ws = parse(src)
    rep = run_check(ws, "frobenius", ["A", "B"])
    assert rep.passed
    from rbx.cli import print_workspace
    assert parse(print_workspace(ws)) == ws


def test_perm_axioms_direct(QQ):
    # commutative associative products are perm products
    assert check_axioms("perm", fx.dual_numbers(QQ)).passed
    # e.f = e, f.f = f is associative but (e.f).f != (f.e).f
    from rbx.structures import Algebra
    z, o = QQ.zero(), QQ.one()
    table = [[(z, z), (o, z)], [(z, z), (z, o)]]
    right_units = Algebra(QQ, table, basis=("e", "f"))
    assert not check_axioms("perm", right_units).passed


def test_pairing_form_symmetric_any_dim(QQ):
    for n in (1, 2, 3):
        B = pairing_form(QQ, n)
        assert B.gram == B.gram.transpose()
        assert B.is_nondegenerate()
