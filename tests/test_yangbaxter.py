import random

import pytest

from rbx import fixtures as fx
from rbx.errors import FieldError, PayloadError, PreconditionError
from rbx.kernel import Matrix, Tensor2
from rbx.search import SearchJob, enumerate_hits
from rbx.structures import check_axioms
from rbx.systems import OperatorSystem
from rbx.representations import (Bimodule, Representation, adjoint_bimodule,
                                 adjoint_admissible_report, dual_bimodule)
from rbx.bisystems import check_bisystem
from rbx.identities import Ctx
from rbx.yangbaxter import (OOperatorData, aybe_residual, check_admissible_aybe,
                            check_asi_coboundary, check_aybe, check_lr_invariant,
                            check_o_operator_transport, check_thm_de,
                            check_weak_o_operator, coboundary_delta,
                            o_operator_solution, quasi_split,
                            quasitriangular_bisystem, r_plus, thm_de_ctx,
                            triangular_bisystem)
from conftest import all_matrices, antisymmetric_tensors
from oracles import naive_aybe_residual


def test_aybe_zero_tensor(QQ):
    A = fx.fix_a(QQ)
    assert aybe_residual(A, Tensor2.zero(QQ, 2)).is_zero()


def test_aybe_annihilating_square(QQ):
    # r = e(x)e: every placement product hits e.e = 0
    A = fx.fix_a(QQ)
    r = Tensor2.from_terms(QQ, 2, [(0, 0, 1)])
    assert aybe_residual(A, r).is_zero()


def test_aybe_matches_naive_oracle_gf5(F5):
    A = fx.fix_a(F5)
    rng = random.Random(500)
    for _ in range(100):
        r = Tensor2(F5, 2, [F5.of(rng.randrange(5)) for _ in range(4)])
        assert aybe_residual(A, r) == naive_aybe_residual(A, r)


def test_aybe_fixture_tensor_solves(QQ):
    A = fx.fix_a(QQ)
    r = fx.fix_r2(QQ)
    assert aybe_residual(A, r) == naive_aybe_residual(A, r)
    assert aybe_residual(A, r).is_zero()


# coboundary comultiplication ---------------------------------------------

def test_coboundary_zero(QQ):
    A = fx.fix_a(QQ)
    C = coboundary_delta(A, Tensor2.zero(QQ, 2))
    assert all(C.delta_basis(i).is_zero() for i in range(2))


def test_coboundary_modes_agree_for_antisymmetric(QQ):
    A = fx.fix_a(QQ)
    r = fx.fix_r2(QQ)
    plain = coboundary_delta(A, r, "plain")
    quasi = coboundary_delta(A, r, "quasitriangular")
    assert plain.table == quasi.table


def test_coboundary_fixture_values(QQ):
    A = fx.fix_a(QQ)
    C = coboundary_delta(A, fx.fix_r2(QQ))
    assert C.delta_basis(0) == Tensor2.from_terms(QQ, 2, [(0, 0, 1)])   # e(x)e
    assert C.delta_basis(1) == Tensor2.from_terms(QQ, 2, [(0, 1, 1)])   # e(x)f


def test_coboundary_char2_quasi_rejected(F2):
    A = fx.fix_a(F2)
    with pytest.raises(FieldError):
        coboundary_delta(A, Tensor2.zero(F2, 2), "quasitriangular")


def test_asi_coboundary_fixture(QQ):
    A = fx.fix_a(QQ)
    assert check_asi_coboundary(A, fx.fix_r2(QQ)).passed
    assert check_asi_coboundary(A, Tensor2.zero(QQ, 2)).passed


def test_asi_coboundary_equivalence_gf3(F3):
    # the two tensor conditions pass exactly when the induced coproduct
    # makes a compatible bialgebra with the product
    A = fx.fix_a(F3)
    rng = random.Random(33)
    for _ in range(60):
        r = Tensor2(F3, 2, [F3.of(rng.randrange(3)) for _ in range(4)])
        lhs = check_asi_coboundary(A, r).passed
        C = coboundary_delta(A, r)
        rhs = check_axioms("asi_bialgebra", (A, C)).passed
        assert lhs == rhs


# admissibility ------------------------------------------------------------

def test_admissible_zero_tensor(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    Q, T = fx.fix_qt(QQ)
    assert check_admissible_aybe(A, R, S, Q, T, Tensor2.zero(QQ, 2)).passed


def test_admissible_search_instances_gf5(F5):
    # one deterministic shard of the admissibility scan is enough to source
    # instances here; the full spaces are exercised by the acceptance suite
    A = fx.fix_a(F5)
    hits = enumerate_hits(SearchJob(F5, A, "symmetric_rbs", shard=(0, 8)))
    anti = antisymmetric_tensors(F5)
    found = 0
    for hit in hits[:4]:
        R, S = hit.parts
        qt = enumerate_hits(SearchJob(F5, A, "adjoint_admissible",
                                      fixed={"R": R, "S": S}, shard=(0, 25)))
        for qh in qt[:3]:
            Q, T = qh.parts
            for r in anti:
                if check_admissible_aybe(A, R, S, Q, T, r).passed:
                    found += 1
    assert found


def test_antisymmetry_transfer(F5):
    # for antisymmetric r, the leg condition transported to the other side
    # holds whenever the stated one does
    from rbx.kernel import leg_apply
    A = fx.fix_a(F5)
    mats = all_matrices(F5)[:40]
    anti = antisymmetric_tensors(F5)
    rng = random.Random(41)
    for _ in range(200):
        r = rng.choice(anti)
        Q = rng.choice(mats)
        R = rng.choice(mats)
        stated = (leg_apply(r, Q, 1) - leg_apply(r, R, 2)).is_zero()
        mirrored = (leg_apply(r, R, 1) - leg_apply(r, Q, 2)).is_zero()
        assert stated == mirrored


# triangular construction ---------------------------------------------------

def test_triangular_zero_tensor(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    Z = Matrix.zero(QQ, 2)
    bi = triangular_bisystem(A, R, S, Z, Z, Tensor2.zero(QQ, 2))
    assert check_bisystem(bi).passed


def test_triangular_search_pipeline_gf3(F3):
    A = fx.fix_a(F3)
    anti = antisymmetric_tensors(F3)
    built = 0
    for hit in enumerate_hits(SearchJob(F3, A, "symmetric_rbs"))[:6]:
        R, S = hit.parts
        qt = enumerate_hits(SearchJob(F3, A, "adjoint_admissible",
                                      fixed={"R": R, "S": S}))
        for qh in qt[:3]:
            Q, T = qh.parts
            for r in anti:
                if check_admissible_aybe(A, R, S, Q, T, r).passed:
                    bi = triangular_bisystem(A, R, S, Q, T, r)
                    assert check_bisystem(bi).passed
                    built += 1
    assert built


def test_triangular_refuses_leg_violation(QQ):
    # maps that violate the first one-leg condition are rejected by name
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    Z = Matrix.zero(QQ, 2)
    r = fx.fix_r2(QQ)
    with pytest.raises(PreconditionError) as err:
        triangular_bisystem(A, R, S, Z, Z, r)
    gate = err.value.report
    assert not gate.sub("admissible-aybe").passed


# the twelve compatibility residuals ---------------------------------------

def test_thm_de_zero_tensor(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    Q, T = fx.fix_qt(QQ)
    if adjoint_admissible_report(A, R, S, Q, T).passed:
        assert check_thm_de(A, R, S, Q, T, Tensor2.zero(QQ, 2)).passed


def test_thm_de_vanishes_on_admissible_solutions_gf2(F2):
    A = fx.fix_a(F2)
    anti = antisymmetric_tensors(F2)
    seen = 0
    for hit in enumerate_hits(SearchJob(F2, A, "symmetric_rbs"))[:8]:
        R, S = hit.parts
        for qh in enumerate_hits(SearchJob(F2, A, "adjoint_admissible",
                                           fixed={"R": R, "S": S}))[:4]:
            Q, T = qh.parts
            for r in anti:
                rep = check_admissible_aybe(A, R, S, Q, T, r)
                tags = {v.identity for v in rep.violations}
                if "eq:dh" in tags or "eq:dh1" in tags:
                    continue
                assert check_thm_de(A, R, S, Q, T, r).passed
                seen += 1
    assert seen


def test_thm_de_itemwise_equivalence_gf3(F3):
    # each coboundary cosystem / dual-admissibility condition passes exactly
    # when its pair of tensor residual families vanishes
    from rbx.identities import run_identities
    A = fx.fix_a(F3)
    rng = random.Random(303)
    pairs = [
        (("eq:cu#1", "eq:cu#2"), ("eq:de", "eq:dede")),
        (("eq:cu1#1", "eq:cu1#2"), ("eq:de1", "eq:de1de1")),
        (("eq:ck5#1", "eq:ck5#2"), ("eq:de2", "eq:de2de2")),
        (("eq:ck6#1", "eq:ck6#2"), ("eq:de3", "eq:de3de3")),
        (("eq:ck7#1", "eq:ck7#2"), ("eq:de4", "eq:de4de4")),
        (("eq:ck8#1", "eq:ck8#2"), ("eq:de5", "eq:de5de5")),
    ]
    hits = enumerate_hits(SearchJob(F3, A, "symmetric_rbs"))
    compared = 0
    for hit in hits[:4]:
        R, S = hit.parts
        qt = enumerate_hits(SearchJob(F3, A, "adjoint_admissible",
                                      fixed={"R": R, "S": S}))
        for qh in qt[:3]:
            Q, T = qh.parts
            for _ in range(6):
                r = Tensor2(F3, 2, [F3.of(rng.randrange(3)) for _ in range(4)])
                C = coboundary_delta(A, r)
                cos_ctx = Ctx({"A": A.basis, "C": C.basis},
                              A=A, C=C, R=R, S=S, Q=Q, T=T)
                de_ctx = thm_de_ctx(A, R, S, Q, T, r)
                for cos_tags, de_tags in pairs:
                    lhs = run_identities("cos", cos_tags, cos_ctx).passed
                    rhs = run_identities("de", de_tags, de_ctx).passed
                    assert lhs == rhs
                    compared += 1
    assert compared


# weak operators ------------------------------------------------------------

def test_r_plus_zero(QQ):
    assert r_plus(Tensor2.zero(QQ, 2)).is_zero()


def test_r_plus_pairing_entries(QQ):
    # <r+(u*), v*> must reproduce the grid entry r[u][v]
    r = fx.fix_r2(QQ)
    rp = r_plus(r)
    for u in range(2):
        for v in range(2):
            assert rp.col(u)[v] == r[u, v]


def test_weak_o_operator_zero_map(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    M = adjoint_bimodule(A)
    Z = Matrix.zero(QQ, 2)
    data = OOperatorData(Z, M, Z, Z)
    assert check_weak_o_operator(sys, data).passed


def test_identity_map_weak_operator_on_zero_products(QQ):
    # with the identity as the module-to-carrier map the product identity
    # forces ab = 2ab, so it only holds when all products vanish
    Zalg = fx.zero_algebra(QQ, 2)
    Z = Matrix.zero(QQ, 2)
    sys = OperatorSystem(Zalg, Z, Z)
    M = adjoint_bimodule(Zalg)
    eye = Matrix.identity(QQ, 2)
    assert check_weak_o_operator(sys, OOperatorData(eye, M, Z, Z)).passed
    A = fx.fix_a(QQ)
    sys2 = OperatorSystem(A, Z, Z)
    assert not check_weak_o_operator(
        sys2, OOperatorData(eye, adjoint_bimodule(A), Z, Z)).passed


def test_thm_dm_parity_gf2(F2):
    # antisymmetric r solves the admissible equation iff its grid map is a
    # weak operator on the dual module with the transposed pair
    A = fx.fix_a(F2)
    anti = antisymmetric_tensors(F2)
    mats = all_matrices(F2)
    dualM = dual_bimodule(adjoint_bimodule(A))
    hits = enumerate_hits(SearchJob(F2, A, "symmetric_rbs"))
    for hit in hits[:3]:
        R, S = hit.parts
        sys = OperatorSystem(A, R, S)
        for Q in mats[:6]:
            for T in mats[:6]:
                for r in anti:
                    lhs = check_admissible_aybe(A, R, S, Q, T, r).passed
                    rp = r_plus(r)
                    data = OOperatorData(rp, dualM, Q.transpose(), T.transpose())
                    rhs = check_weak_o_operator(sys, data).passed
                    assert lhs == rhs
                    # the separate transport formulation agrees as well
                    transport = check_o_operator_transport(sys, rp, Q, T).passed
                    aybe_ok = check_aybe(A, r).passed
                    assert lhs == (aybe_ok and transport
                                   and check_weak_o_operator(
                                       sys, OOperatorData(rp, dualM,
                                                          Q.transpose(),
                                                          T.transpose())).passed)


def test_o_operator_zero_map(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    rep = Representation(adjoint_bimodule(A), R, S)
    Z = Matrix.zero(QQ, 2)
    sol = o_operator_solution(sys, rep, Z, Z, Z, Z, Z)
    assert sol.r.is_zero()
    assert check_admissible_aybe(sol.system.carrier, sol.system.R, sol.system.S,
                                 sol.Q, sol.T, sol.r).passed


def test_o_operator_dim_zero_module(QQ):
    # the empty module is an allowed base case and yields the zero tensor
    from rbx.representations import Bimodule
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    sys = OperatorSystem(A, R, S)
    empty = Bimodule(0, [Matrix.zero(QQ, 0)] * 2, [Matrix.zero(QQ, 0)] * 2)
    z00 = Matrix(QQ, 0, 0, [])
    z2 = Matrix.zero(QQ, 2)
    rep = Representation(empty, z00, z00)
    tmap = Matrix(QQ, 2, 0, [])
    sol = o_operator_solution(sys, rep, tmap, z2, z2, z00, z00,
                              build_bisystem=False)
    assert sol.r.is_zero()
    assert sol.r.dim == 2
    assert check_admissible_aybe(sol.system.carrier, sol.system.R, sol.system.S,
                                 sol.Q, sol.T, sol.r).passed


def test_o_operator_identity_on_zero_algebra(QQ):
    Zalg = fx.zero_algebra(QQ, 2)
    Z = Matrix.zero(QQ, 2)
    sys = OperatorSystem(Zalg, Z, Z)
    rep = Representation(adjoint_bimodule(Zalg), Z, Z)
    eye = Matrix.identity(QQ, 2)
    sol = o_operator_solution(sys, rep, eye, Z, Z, Z, Z)
    # r = sum e_i* (x) e_i - e_i (x) e_i* on the four-dimensional sum
    expected = Tensor2.from_terms(QQ, 4, [(2, 0, 1), (3, 1, 1),
                                          (0, 2, -1), (1, 3, -1)])
    assert sol.r == expected
    assert sol.bisystem is not None
    assert check_bisystem(sol.bisystem).passed


def test_o_operator_reverse_direction_gf3(F3):
    # maps failing the weak-operator identities produce graph tensors that
    # fail the admissible equation on the sum (the converse of the
    # construction), so the constructor's refusal is honest
    A = fx.fix_a(F3)
    M = adjoint_bimodule(A)
    hits = enumerate_hits(SearchJob(F3, A, "symmetric_rbs"))
    R, S = hits[1].parts
    sys = OperatorSystem(A, R, S)
    rep = Representation(M, R, S)
    if not check_representation_ok(sys, rep):
        R, S = hits[2].parts
        sys = OperatorSystem(A, R, S)
        rep = Representation(M, R, S)
    Z = Matrix.zero(F3, 2)
    from rbx.representations import semidirect
    checked = 0
    for tm in all_matrices(F3)[:40]:
        try:
            sol = o_operator_solution(sys, rep, tm, Z, Z, Z, Z,
                                      build_bisystem=False)
            ok = True
            r, system, QQm, TTm = sol.r, sol.system, sol.Q, sol.T
        except PreconditionError:
            ok = False
            dual_rep = Representation(dual_bimodule(M), Z, Z)
            system = semidirect(sys, dual_rep)
            terms = []
            for u in range(2):
                col = tm.col(u)
                for j, c in enumerate(col):
                    if c:
                        terms.append((2 + u, j, c))
                        terms.append((j, 2 + u, -c))
            r = Tensor2.from_terms(F3, 4, terms)
            from rbx.kernel import block_diag
            QQm = block_diag(Z, rep.alpha.transpose())
            TTm = block_diag(Z, rep.beta.transpose())
        if not check_module_admissible_ok(sys, M, Z, Z):
            continue
        verdict = check_admissible_aybe(system.carrier, system.R, system.S,
                                        QQm, TTm, r).passed
        assert verdict == ok
        checked += 1
    assert checked


def check_representation_ok(sys, rep):
    from rbx.representations import check_representation
    return check_representation(sys, rep).passed


def check_module_admissible_ok(sys, M, xi, zeta):
    from rbx.representations import check_module_admissible
    return check_module_admissible(sys, M, xi, zeta).passed


# quasitriangular ------------------------------------------------------------

def test_quasi_split_antisymmetric(QQ):
    r = fx.fix_r2(QQ)
    lam, gam = quasi_split(r)
    assert lam.is_zero() and gam == r


def test_quasi_split_symmetric(QQ):
    r = Tensor2.from_terms(QQ, 2, [(0, 1, 1), (1, 0, 1)])
    lam, gam = quasi_split(r)
    assert gam.is_zero() and lam == r
    assert lam + gam == r


def test_quasi_split_char2_rejected(F2):
    with pytest.raises(FieldError):
        quasi_split(Tensor2.zero(F2, 2))


def test_quasitriangular_pipeline_gf5(F5):
    D = fx.dual_numbers(F5)
    Z = Matrix.zero(F5, 2)
    nonzero_sym = 0
    for hit in enumerate_hits(SearchJob(F5, D, "aybe")):
        (r,) = hit.parts
        lam, _ = quasi_split(r)
        if not check_lr_invariant(D, lam).passed:
            continue
        bi = quasitriangular_bisystem(D, Z, Z, Z, Z, r)
        assert check_bisystem(bi).passed
        if not lam.is_zero():
            nonzero_sym += 1
    assert nonzero_sym


def test_quasitriangular_reduces_to_triangular_for_antisymmetric(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    Z = Matrix.zero(QQ, 2)
    r = fx.fix_r2(QQ)
    lam, gam = quasi_split(r)
    assert lam.is_zero()
    if check_admissible_aybe(A, R, S, Z, Z, r).passed:
        tri = triangular_bisystem(A, R, S, Z, Z, r)
        quasi = quasitriangular_bisystem(A, R, S, Z, Z, r)
        assert tri.coalgebra.table == quasi.coalgebra.table


def test_weak_o_operator_refuses_a_mis_shaped_tmap(QQ):
    # tmap runs from the module into the carrier: A.dim x mdim
    A = fx.fix_a(QQ)
    Z2, Z3 = Matrix.zero(QQ, 2), Matrix.zero(QQ, 3)
    sys = OperatorSystem(A, Z2, Z2)
    with pytest.raises(PayloadError, match="map tmap does not match"):
        check_weak_o_operator(sys, OOperatorData(Z3, adjoint_bimodule(A), Z2, Z2))
    M3 = Bimodule(3, [Z3] * 2, [Z3] * 2)
    assert check_weak_o_operator(sys, OOperatorData(Matrix.zero(QQ, 2, 3), M3, Z3, Z3)).passed
    for tmap, alpha in ((Matrix.zero(QQ, 3, 2), Z3), (Matrix.zero(QQ, 2, 3), Z2)):
        with pytest.raises(PayloadError, match="does not match the module dimension"):
            check_weak_o_operator(sys, OOperatorData(tmap, M3, alpha, Z3))
