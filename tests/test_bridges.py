import pytest

from rbx import fixtures as fx
from rbx.errors import PreconditionError
from rbx.kernel import Matrix, Tensor2
from rbx.search import SearchJob, enumerate_hits
from rbx.identities import seeded_fault
from rbx.structures import check_axioms, commutator, cocommutator
from rbx.systems import OperatorSystem, check_operator_system
from rbx.bisystems import ASIBisystem, check_bisystem
from rbx.bridges import (LieBisystem, apreperm_from_averaging,
                         averaging_from_bisystem, check_averaging_asi,
                         check_averaging_lie_bialgebra, check_lie_bisystem,
                         check_weighted_rb_asi, check_weighted_rb_lie_bialgebra,
                         covariant_from_ybpair, lie_bisystem_from_asi,
                         lie_matched_pair_report)
from conftest import all_matrices


def test_weighted_zero_maps(QQ):
    Z = Matrix.zero(QQ, 2)
    rep = check_weighted_rb_asi(fx.fix_a(QQ), fx.fix_c(QQ), Z, Z, 0)
    assert rep.passed


def test_weighted_subreports_named(QQ):
    Z = Matrix.zero(QQ, 2)
    rep = check_weighted_rb_asi(fx.fix_a(QQ), fx.fix_c(QQ), Z, Z, 0)
    assert {s.check for s in rep.subreports} == {
        "asi-bialgebra", "rb-algebra", "rb-coalgebra", "compat"}


def test_weighted_seeded_fault_detected(QQ):
    # a single-sign fault in one mixed display flips a passing instance;
    # sign faults need characteristic != 2 to be visible, so probe over Q
    from rbx.identities import seeded_fault
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    lam = QQ.one()
    R = Matrix.identity(QQ, 2).scale(-lam)
    rep = check_weighted_rb_asi(A, C, R, R, lam)
    assert rep.passed
    with seeded_fault("eq:er3", 0):
        assert not check_weighted_rb_asi(A, C, R, R, lam).passed


def test_averaging_zero_maps(QQ):
    Z = Matrix.zero(QQ, 2)
    assert check_averaging_asi(fx.fix_a(QQ), fx.fix_c(QQ), Z, Z).passed


def test_averaging_equal_maps_reduction(F2):
    # with both maps equal, the mixed displays repeat the one-map displays,
    # so the bridge verdict equals the conjunction of the basic parts
    A, C = fx.fix_a(F2), fx.fix_c(F2)
    from rbx.systems import CoOperatorSystem, check_cosystem
    for R in all_matrices(F2):
        full = check_averaging_asi(A, C, R, R).passed
        parts = (check_operator_system("averaging", OperatorSystem(A, R)).passed
                 and check_cosystem("coaveraging", CoOperatorSystem(C, R)).passed
                 and check_axioms("asi_bialgebra", (A, C)).passed)
        assert full == parts


def test_averaging_from_fixture_bisystem(QQ):
    A, C, P = averaging_from_bisystem(fx.fix_bi(QQ))
    assert check_averaging_asi(A, C, P, P).passed


def test_averaging_from_bisystem_equal_maps(QQ):
    Z = Matrix.zero(QQ, 2)
    bi = ASIBisystem(fx.fix_a(QQ), fx.fix_c(QQ), Z, Z, Z, Z)
    A, C, P = averaging_from_bisystem(bi)
    assert P.is_zero()


def test_averaging_from_bisystem_gate(QQ):
    bi = fx.fix_bi(QQ)
    bad = ASIBisystem(bi.algebra, bi.coalgebra, bi.R, bi.S, bi.Q, bi.Q)
    with pytest.raises(PreconditionError):
        averaging_from_bisystem(bad)


def test_averaging_from_search_bisystems_gf3(F3):
    # every negated-maps bisystem found over GF(3) induces a passing
    # averaging structure
    A, C = fx.fix_a(F3), fx.fix_c(F3)
    found = 0
    for hit in enumerate_hits(SearchJob(F3, A, "symmetric_rbs")):
        R, S = hit.parts
        bi = ASIBisystem(A, C, R, S, -S, -R)
        if check_bisystem(bi).passed:
            Aa, Cc, P = averaging_from_bisystem(bi)
            assert check_averaging_asi(Aa, Cc, P, P).passed
            found += 1
    assert found


# Lie bisystems -------------------------------------------------------------

def test_lie_bisystem_fixture(QQ):
    R, S = fx.gc_maps(QQ)
    Q, T = fx.emm_maps(QQ)
    lb = LieBisystem(fx.fix_lie(QQ), fx.fix_delta(QQ), R, S, Q, T)
    rep = check_lie_bisystem(lb)
    assert rep.passed
    assert len(rep.subreports) == 5


def test_lie_bisystem_zero_maps(QQ):
    Z = Matrix.zero(QQ, 2)
    lb = LieBisystem(fx.fix_lie(QQ), fx.fix_delta(QQ), Z, Z, Z, Z)
    assert check_lie_bisystem(lb).passed


def test_lie_bisystem_from_asi_fixture(QQ):
    lb = lie_bisystem_from_asi(fx.fix_bi(QQ))
    assert check_lie_bisystem(lb).passed
    assert lb.lie == fx.fix_lie(QQ)
    assert lb.colie == fx.fix_delta(QQ)


def test_lie_bisystem_from_asi_gate(QQ):
    bi = fx.fix_bi(QQ)
    bad = ASIBisystem(bi.algebra, bi.coalgebra, bi.R, bi.R, bi.Q, bi.T)
    with pytest.raises(PreconditionError):
        lie_bisystem_from_asi(bad)


def test_lie_bisystem_from_search_gf3(F3):
    A, C = fx.fix_a(F3), fx.fix_c(F3)
    lifted = 0
    for hit in enumerate_hits(SearchJob(F3, A, "bisystem", cocarrier=C))[:40]:
        R, S, Q, T = hit.parts
        lb = lie_bisystem_from_asi(ASIBisystem(A, C, R, S, Q, T))
        assert check_lie_bisystem(lb).passed
        lifted += 1
    assert lifted


def test_lie_matched_pair_property(QQ):
    # the matched-pair formulation of the fixture Lie bisystem passes
    R, S = fx.gc_maps(QQ)
    Q, T = fx.emm_maps(QQ)
    lb = LieBisystem(fx.fix_lie(QQ), fx.fix_delta(QQ), R, S, Q, T)
    assert lie_matched_pair_report(lb).passed


def test_lie_matched_pair_parity_gf2(F2):
    # bisystem verdict and matched-pair verdict agree on a mixed batch
    g, dl = fx.fix_lie(F2), fx.fix_delta(F2)
    mats = all_matrices(F2)
    agree = 0
    for R in mats[:6]:
        for Q in mats[:6]:
            lb = LieBisystem(g, dl, R, R, Q, Q)
            assert check_lie_bisystem(lb).passed == lie_matched_pair_report(lb).passed
            agree += 1
    assert agree == 36


# averaging / weighted Lie bialgebras ---------------------------------------

def test_averaging_lie_zero(QQ):
    Z = Matrix.zero(QQ, 2)
    assert check_averaging_lie_bialgebra(fx.fix_lie(QQ), fx.fix_delta(QQ), Z, Z).passed
    assert check_weighted_rb_lie_bialgebra(fx.fix_lie(QQ), fx.fix_delta(QQ),
                                           Z, Z, 0).passed


def test_commutator_image_of_averaging_is_averaging_lie(F2):
    # every averaging pair on the carrier pair descends to the bracket side
    A, C = fx.fix_a(F2), fx.fix_c(F2)
    g, dl = commutator(A), cocommutator(C)
    found = 0
    for R in all_matrices(F2):
        for Q in all_matrices(F2):
            if check_averaging_asi(A, C, R, Q).passed:
                assert check_averaging_lie_bialgebra(g, dl, R, Q).passed
                found += 1
    assert found


def test_commutator_image_of_weighted_is_weighted_lie(F2):
    A, C = fx.fix_a(F2), fx.fix_c(F2)
    g, dl = commutator(A), cocommutator(C)
    lam = F2.one()
    found = 0
    for R in all_matrices(F2):
        for Q in all_matrices(F2):
            if check_weighted_rb_asi(A, C, R, Q, lam).passed:
                assert check_weighted_rb_lie_bialgebra(g, dl, R, Q, lam).passed
                found += 1
    assert found


def test_negated_maps_lie_bisystem_averages(F3):
    # Lie bisystems with negated co-maps average to a single map
    g, dl = fx.fix_lie(F3), fx.fix_delta(F3)
    found = 0
    for R in all_matrices(F3)[:30]:
        for S in all_matrices(F3)[:30]:
            lb = LieBisystem(g, dl, R, S, -S, -R)
            if check_lie_bisystem(lb).passed:
                P = R - S
                assert check_averaging_lie_bialgebra(g, dl, P, P).passed
                found += 1
    assert found


def test_fixture_bisystem_composes_to_averaging_lie(QQ):
    # negated-maps bisystem -> bracket side -> single averaging map
    bi = fx.fix_bi(QQ)
    lb = lie_bisystem_from_asi(bi)
    P = bi.R - bi.S
    assert check_averaging_lie_bialgebra(lb.lie, lb.colie, P, P).passed


def test_weighted_bisystem_composes_to_weighted_lie(F2):
    # embedded-shape bisystems descend to weighted Lie bialgebras
    A, C = fx.fix_a(F2), fx.fix_c(F2)
    eye = Matrix.identity(F2, 2)
    lam = F2.one()
    found = 0
    for R in all_matrices(F2):
        for Q in all_matrices(F2):
            bi = ASIBisystem(A, C, R, R + eye.scale(lam), Q, Q + eye.scale(lam))
            if check_bisystem(bi).passed:
                lb = lie_bisystem_from_asi(bi)
                assert check_weighted_rb_lie_bialgebra(
                    lb.lie, lb.colie, R, Q, lam).passed
                found += 1
    assert found


# apre-perm ------------------------------------------------------------------

def test_apreperm_zero_everything(QQ):
    A = fx.zero_algebra(QQ, 1)
    C = fx.zero_coalgebra(QQ, 1)
    Z = Matrix.zero(QQ, 1)
    data = apreperm_from_averaging(A, C, Z, Z)
    assert data.check().passed
    assert all(not any(c for c in cell) for row in data.tri_gt.table for cell in row)


def test_apreperm_search_instances_gf3(F3):
    D, G = fx.dual_numbers(F3), fx.grouplike_coalgebra(F3)
    found = 0
    for R in all_matrices(F3):
        if not check_operator_system("averaging", OperatorSystem(D, R)).passed:
            continue
        for Q in all_matrices(F3):
            if check_averaging_asi(D, G, R, Q).passed:
                data = apreperm_from_averaging(D, G, R, Q)
                assert data.check().passed
                found += 1
    assert found


def test_apreperm_via_bisystem_composition(F3):
    # negated-maps bisystems on a commutative/cocommutative pair compose
    # through the averaging bridge into apre-perm structures
    D, G = fx.dual_numbers(F3), fx.grouplike_coalgebra(F3)
    built = 0
    for hit in enumerate_hits(SearchJob(F3, D, "symmetric_rbs"))[:120]:
        R, S = hit.parts
        bi = ASIBisystem(D, G, R, S, -S, -R)
        if not check_bisystem(bi).passed:
            continue
        Aa, Cc, P = averaging_from_bisystem(bi)
        data = apreperm_from_averaging(Aa, Cc, P, P)
        assert data.check().passed
        built += 1
    assert built


def test_apreperm_refuses_noncommutative(QQ):
    Z = Matrix.zero(QQ, 2)
    with pytest.raises(PreconditionError):
        apreperm_from_averaging(fx.fix_a(QQ), fx.fix_c(QQ), Z, Z)


# covariant bialgebras --------------------------------------------------------

def test_covariant_zero_pair(QQ):
    A = fx.fix_a(QQ)
    z = Tensor2.zero(QQ, 2)
    data, rep = covariant_from_ybpair(A, z, z)
    assert rep.passed
    assert all(data.delta1.delta_basis(i).is_zero() for i in range(2))


def test_covariant_symmetric_pairs_both_orders(F2):
    A = fx.fix_a(F2)
    for hit in enumerate_hits(SearchJob(F2, A, "symmetric_ybpair")):
        r, s = hit.parts
        _, rep1 = covariant_from_ybpair(A, r, s)
        _, rep2 = covariant_from_ybpair(A, s, r)
        assert rep1.passed and rep2.passed


def test_covariant_all_gf2_pairs(F2):
    # plain (one-ordering) pairs already produce passing quadruples
    from rbx.systems import check_ybpair
    A = fx.fix_a(F2)
    from conftest import all_tensors
    tensors = all_tensors(F2)
    built = 0
    for r in tensors:
        for s in tensors:
            if check_ybpair(A, r, s).passed:
                _, rep = covariant_from_ybpair(A, r, s)
                assert rep.passed
                built += 1
    assert built


def test_covariant_gate(QQ):
    A = fx.dual_numbers(QQ)
    r = Tensor2.from_terms(QQ, 2, [(0, 0, 1)])
    with pytest.raises(PreconditionError):
        covariant_from_ybpair(A, r, r)


