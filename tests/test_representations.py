import random

import pytest

from rbx import fixtures as fx
from rbx.errors import PayloadError, PreconditionError
from rbx.kernel import Matrix, block_diag
from rbx.search import SearchJob, enumerate_hits
from rbx.structures import check_axioms
from rbx.systems import OperatorSystem, check_operator_system
from rbx.representations import (Bimodule, Representation, adjoint_bimodule,
                                 adjoint_admissible_report,
                                 check_adjoint_admissible, check_bimodule,
                                 check_dn_conditions, check_module_admissible,
                                 check_prelie_representation,
                                 check_representation, check_rep_homomorphism,
                                 dual_bimodule, dual_representation,
                                 endo_representation, hat_structures,
                                 semidirect, weight_rep_embed)
from conftest import all_matrices


def _zero_bimodule(field, adim, mdim):
    z = Matrix.zero(field, mdim)
    return Bimodule(mdim, [z] * adim, [z] * adim)


def test_adjoint_bimodule_passes(QQ):
    A = fx.fix_a(QQ)
    assert check_bimodule(A, adjoint_bimodule(A)).passed


def test_zero_actions_pass(QQ):
    A = fx.fix_a(QQ)
    assert check_bimodule(A, _zero_bimodule(QQ, 2, 3)).passed


def test_dual_bimodule_passes(QQ):
    A = fx.fix_a(QQ)
    assert check_bimodule(A, dual_bimodule(adjoint_bimodule(A))).passed


def test_adjoint_representation_passes(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    rep = Representation(adjoint_bimodule(A), R, S)
    assert check_representation(sys, rep).passed


def test_zero_representation_passes(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    sys = OperatorSystem(A, Z, Z)
    rep = Representation(_zero_bimodule(QQ, 2, 2), Z, Z)
    assert check_representation(sys, rep).passed


def test_representation_swap_symmetry(F2):
    # (M, l, r, a, b) represents (A, R, S) iff (M, l, r, b, a) represents (A, S, R)
    A = fx.fix_a(F2)
    M = adjoint_bimodule(A)
    mats = all_matrices(F2)
    hits = enumerate_hits(SearchJob(F2, A, "symmetric_rbs"))
    for hit in hits[:6]:
        R, S = hit.parts
        for alpha in mats[:8]:
            for beta in mats[:8]:
                fwd = check_representation(OperatorSystem(A, R, S),
                                           Representation(M, alpha, beta)).passed
                bwd = check_representation(OperatorSystem(A, S, R),
                                           Representation(M, beta, alpha)).passed
                assert fwd == bwd


# semidirect products -----------------------------------------------------

def test_semidirect_of_adjoint_rep(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    rep = Representation(adjoint_bimodule(A), R, S)
    big = semidirect(sys, rep)
    assert big.carrier.dim == 4
    assert check_axioms("associative", big.carrier).passed
    assert check_operator_system("symmetric_rbs", big).passed


def test_semidirect_zero_module(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    rep = Representation(_zero_bimodule(QQ, 2, 0),
                         Matrix.zero(QQ, 0), Matrix.zero(QQ, 0))
    big = semidirect(OperatorSystem(A, R, S), rep)
    assert big.carrier.dim == 2
    assert big.carrier.table == A.table


def test_semidirect_detects_corrupt_alpha(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    alpha = Matrix.identity(QQ, 2)  # not compatible
    rep = Representation(adjoint_bimodule(A), alpha, S)
    assert not check_representation(sys, rep).passed
    big = semidirect(sys, rep)
    bad = check_operator_system("symmetric_rbs", big)
    assert not bad.passed
    assert bad.violations[0].inputs  # witness carries basis labels


def test_semidirect_equivalence_randomized_gf5(F5):
    # pass status of the module conditions equals pass status of the summed system
    rng = random.Random(5)
    A = fx.fix_a(F5)
    M = adjoint_bimodule(A)
    fam = fx.FAMILIES["cee-b"]
    for _ in range(25):
        p1, p2 = F5.of(rng.randrange(5)), F5.of(rng.randrange(5))
        R, S = fam.build(F5, {"p1": p1, "p2": p2})
        sys = OperatorSystem(A, R, S)
        alpha = Matrix(F5, 2, 2, [F5.of(rng.randrange(5)) for _ in range(4)])
        beta = Matrix(F5, 2, 2, [F5.of(rng.randrange(5)) for _ in range(4)])
        rep = Representation(M, alpha, beta)
        lhs = check_representation(sys, rep).passed
        rhs = check_operator_system("symmetric_rbs", semidirect(sys, rep)).passed
        assert lhs == rhs


# duals -------------------------------------------------------------------

def test_dual_representation_zero(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    sys = OperatorSystem(A, Z, Z)
    rep, report = dual_representation(sys, _zero_bimodule(QQ, 2, 2), Z, Z)
    assert report.passed
    assert check_representation(sys, rep).passed


def test_dual_representation_equivalence_gf5(F5):
    rng = random.Random(55)
    A = fx.fix_a(F5)
    M = adjoint_bimodule(A)
    fam = fx.FAMILIES["cee-d"]
    for _ in range(30):
        R, S = fam.build(F5, {"p1": F5.of(rng.randrange(5)),
                              "p2": F5.of(rng.randrange(5))})
        sys = OperatorSystem(A, R, S)
        xi = Matrix(F5, 2, 2, [F5.of(rng.randrange(5)) for _ in range(4)])
        zeta = Matrix(F5, 2, 2, [F5.of(rng.randrange(5)) for _ in range(4)])
        rep, report = dual_representation(sys, M, xi, zeta)
        assert report.passed == check_representation(sys, rep).passed


def test_dual_of_dual_is_original(QQ):
    A = fx.fix_a(QQ)
    M = adjoint_bimodule(A)
    R, S = fx.fix_rs(QQ)
    rep = Representation(M, R, S)
    sys = OperatorSystem(A, R, S)
    double, _ = dual_representation(
        sys, dual_bimodule(M), rep.alpha.transpose(), rep.beta.transpose())
    assert double.bimodule.left == M.left
    assert double.bimodule.right == M.right
    assert double.alpha == rep.alpha and double.beta == rep.beta


def test_adjoint_case_reduces_to_map_conditions(QQ):
    # on the adjoint module the module-admissibility report coincides with
    # the map-level admissibility verdict
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    Q, T = fx.fix_qt(QQ)
    sys = OperatorSystem(A, R, S)
    lhs = check_module_admissible(sys, adjoint_bimodule(A), Q, T).passed
    rhs = adjoint_admissible_report(A, R, S, Q, T).passed
    assert lhs == rhs


# adjoint admissibility ---------------------------------------------------

def test_projection_pair_is_adjoint_admissible(QQ):
    from rbx.bisystems import bisystem_matched_pair, projection_srbs
    bi = fx.fix_bi(QQ)
    proj = projection_srbs(bisystem_matched_pair(bi))
    rep = check_adjoint_admissible(proj.carrier, proj.R, proj.S, -proj.S, -proj.R)
    assert rep.passed


def test_zero_pair_always_admissible(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    Z = Matrix.zero(QQ, 2)
    assert check_adjoint_admissible(A, R, S, Z, Z).passed


def test_fixture_bisystem_admissible(QQ):
    bi = fx.fix_bi(QQ)
    assert check_adjoint_admissible(bi.algebra, bi.R, bi.S, bi.Q, bi.T).passed


def test_adjoint_admissible_gate(QQ):
    A = fx.fix_a(QQ)
    eye = Matrix.identity(QQ, 2)
    with pytest.raises(PreconditionError):
        check_adjoint_admissible(A, eye, eye, eye, eye)


# End(M) ------------------------------------------------------------------

def test_endo_of_dim1_rep_is_same(QQ):
    z, o = QQ.zero(), QQ.one()
    A = fx.zero_algebra(QQ, 1)
    M = Bimodule(1, [Matrix.zero(QQ, 1)], [Matrix.zero(QQ, 1)])
    alpha = Matrix(QQ, 1, 1, [QQ.of(3)])
    sys = OperatorSystem(A, Matrix.zero(QQ, 1), Matrix.zero(QQ, 1))
    rep = Representation(M, alpha, alpha)
    endo = endo_representation(sys, rep)
    assert endo.bimodule.mdim == 1
    assert endo.alpha == alpha


def test_endo_of_adjoint_rep(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    rep = Representation(adjoint_bimodule(A), R, S)
    endo = endo_representation(sys, rep)
    assert endo.bimodule.mdim == 4
    assert check_representation(sys, endo).passed


def test_endo_of_zero_rep(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    sys = OperatorSystem(A, Z, Z)
    rep = Representation(_zero_bimodule(QQ, 2, 2), Z, Z)
    endo = endo_representation(sys, rep)
    assert check_representation(sys, endo).passed


# hat structures ----------------------------------------------------------

def test_hat_structures_zero(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    sys = OperatorSystem(A, Z, Z)
    rep = Representation(_zero_bimodule(QQ, 2, 2), Z, Z)
    hats = hat_structures(sys, rep)
    assert all(m.is_zero() for m in hats.star_module.left)


def test_hat_structures_value(QQ):
    # over R(a)b + aS(b): acting by f on f gives R(f).f + f.S(f) = 2e
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    rep = Representation(adjoint_bimodule(A), R, S)
    hats = hat_structures(sys, rep)
    f = (QQ.zero(), QQ.one())
    assert hats.star_module.left[1].apply(f) == (QQ.of(2), QQ.zero())


def test_hat_structures_exhaustive_gf2(F2):
    A = fx.fix_a(F2)
    M = adjoint_bimodule(A)
    for hit in enumerate_hits(SearchJob(F2, A, "symmetric_rbs")):
        R, S = hit.parts
        sys = OperatorSystem(A, R, S)
        rep = Representation(M, R, S)
        if not check_representation(sys, rep).passed:
            continue
        hats = hat_structures(sys, rep)
        assert check_bimodule(hats.star, hats.star_module).passed
        assert check_bimodule(hats.starp, hats.starp_module).passed
        assert check_prelie_representation(hats.bullet, hats.bullet_rho,
                                           hats.bullet_phi).passed
        assert check_prelie_representation(hats.bulletp, hats.bulletp_rho,
                                           hats.bulletp_phi).passed


# weighted embedding ------------------------------------------------------

def test_weight_rep_embed_zero_weight(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    sys, rep = weight_rep_embed(A, Z, 0, adjoint_bimodule(A), Z)
    assert rep.beta == rep.alpha
    assert check_representation(sys, rep).passed


def test_weight_rep_embed_equivalence_gf3(F3):
    # the weighted module conditions hold iff the embedded pair represents
    # the weight-embedded system (adjoint module, exhaustive weighted scan)
    from rbx.identities import Ctx, run_identities
    A = fx.fix_a(F3)
    M = adjoint_bimodule(A)
    count = 0
    for lam_val in range(3):
        lam = F3.of(lam_val)
        for R in all_matrices(F3):
            if not check_operator_system(
                    "rb_weight", OperatorSystem(A, R, weight=lam)).passed:
                continue
            ctx = Ctx({"A": A.basis, "M": M.labels}, A=A, M=M, R=R,
                      alpha=R, lam=lam)
            weighted_ok = run_identities(
                "w", ("weighted-rep#1", "weighted-rep#2"), ctx).passed
            from rbx.systems import weight_embed
            beta = R + Matrix.identity(F3, 2).scale(lam)
            embedded_ok = check_representation(
                weight_embed(A, R, lam), Representation(M, R, beta)).passed
            assert weighted_ok == embedded_ok
            if weighted_ok:
                count += 1
    assert count  # the scan found real instances


def test_weight_rep_embed_gate(QQ):
    A = fx.fix_a(QQ)
    eye = Matrix.identity(QQ, 2)
    with pytest.raises(PreconditionError):
        weight_rep_embed(A, eye, 1, adjoint_bimodule(A), eye.scale(QQ.of(7)))


# homomorphism plumbing ---------------------------------------------------

def test_rep_homomorphism_identity(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    rep = Representation(adjoint_bimodule(A), R, S)
    eye = Matrix.identity(QQ, 2)
    assert check_rep_homomorphism(sys, rep, rep, eye).passed
    bad = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert not check_rep_homomorphism(sys, rep, rep, bad).passed


# three-way equivalence ---------------------------------------------------

def _dn_package(F, A, M, R, S, Q, T, alpha, beta, xi, zeta):
    sys = OperatorSystem(A, R, S)
    ok_item3 = (check_representation(sys, Representation(M, alpha, beta)).passed
                and adjoint_admissible_report(A, R, S, Q, T).passed
                and check_module_admissible(sys, M, xi, zeta).passed
                and check_dn_conditions(M, A, Q, T, alpha, beta, xi, zeta).passed)
    big1 = semidirect(sys, Representation(M, alpha, beta))
    ok_item1 = (check_operator_system("symmetric_rbs", big1).passed
                and adjoint_admissible_report(
                    big1.carrier, big1.R, big1.S,
                    block_diag(Q, xi), block_diag(T, zeta)).passed)
    big2 = semidirect(sys, Representation(dual_bimodule(M),
                                          xi.transpose(), zeta.transpose()))
    ok_item2 = (check_operator_system("symmetric_rbs", big2).passed
                and adjoint_admissible_report(
                    big2.carrier, big2.R, big2.S,
                    block_diag(Q, alpha.transpose()),
                    block_diag(T, beta.transpose())).passed)
    return ok_item1, ok_item2, ok_item3


def test_three_way_equivalence_random_gf3(F3):
    rng = random.Random(333)
    A = fx.fix_a(F3)
    M = adjoint_bimodule(A)
    fam = fx.FAMILIES["cee-d"]
    agreements = 0
    for _ in range(40):
        R, S = fam.build(F3, {"p1": F3.of(rng.randrange(3)),
                              "p2": F3.of(rng.randrange(3))})
        maps = [Matrix(F3, 2, 2, [F3.of(rng.randrange(3)) for _ in range(4)])
                for _ in range(6)]
        Q, T, alpha, beta, xi, zeta = maps
        a, b, c = _dn_package(F3, A, M, R, S, Q, T, alpha, beta, xi, zeta)
        assert a == b == c
        agreements += 1
    # and on instances built to satisfy everything
    R, S = fx.fix_rs(F3)
    Z = Matrix.zero(F3, 2)
    a, b, c = _dn_package(F3, A, M, R, S, Z, Z, R, S, Z, Z)
    assert a and b and c


def test_module_admissible_refuses_mis_shaped_maps(QQ):
    A = fx.fix_a(QQ)
    M = adjoint_bimodule(A)
    Z2, Z3 = Matrix.zero(QQ, 2), Matrix.zero(QQ, 3)
    sys = OperatorSystem(A, Z2, Z2)
    assert check_module_admissible(sys, M, Z2, Z2).passed
    for xi, zeta in ((Z3, Z2), (Z2, Z3), (Matrix.zero(QQ, 2, 3), Z2)):
        with pytest.raises(PayloadError, match="does not match the module dimension"):
            check_module_admissible(sys, M, xi, zeta)


def test_dn_conditions_refuse_mis_shaped_maps(QQ):
    # Q and T are maps on the carrier, alpha, beta, xi and zeta on the module
    A = fx.fix_a(QQ)
    M = adjoint_bimodule(A)
    Z2, Z3 = Matrix.zero(QQ, 2), Matrix.zero(QQ, 3)
    assert check_dn_conditions(M, A, *[Z2] * 6).passed
    for k in range(6):
        maps = [Z2] * 6
        maps[k] = Z3
        with pytest.raises(PayloadError, match="does not match the "
                                               + ("carrier" if k < 2 else "module")):
            check_dn_conditions(M, A, *maps)
