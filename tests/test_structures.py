import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbx import fixtures as fx
from rbx.errors import FieldError, PayloadError, StructureError
from rbx.identities import _VERDICTS, seeded_fault, shared_verdicts
from rbx.kernel import GFElement, Matrix, PrimeField, Rationals, Tensor2
from rbx.structures import (Algebra, BilinearForm, LieAlgebra,
                            check_axioms, cocommutator, commutator, dualize,
                            dualize_alg, form_adjoint, pairing_form,
                            placement_product)

from kernel_diff import MODULI, field_of, structures_round, table_zero_round
from oracles import placed


def test_fix_a_is_associative(QQ):
    rep = check_axioms("associative", fx.fix_a(QQ))
    assert rep.passed


def test_fix_pair_is_asi_bialgebra(QQ):
    rep = check_axioms("asi_bialgebra", (fx.fix_a(QQ), fx.fix_c(QQ)))
    assert rep.passed


def test_zero_products_are_dendriform(QQ):
    z = fx.zero_algebra(QQ, 3)
    assert check_axioms("dendriform", (z, z)).passed


def test_associativity_failure_with_witness(QQ):
    # f.e = e, e.f = f, other products zero: (f.e).f = f while f.(e.f) = 0
    z = QQ.zero()
    table = [[(z, z), (z, QQ.one())], [(QQ.one(), z), (z, z)]]
    bad = Algebra(QQ, table, basis=("e", "f"), raw=True)
    rep = check_axioms("associative", bad)
    assert not rep.passed
    assert ("f", "e", "f") in {v.inputs for v in rep.violations}
    with pytest.raises(StructureError):
        Algebra(QQ, table, basis=("e", "f"))


def test_wrong_payload_shape(QQ):
    with pytest.raises(PayloadError):
        check_axioms("asi_bialgebra", fx.fix_a(QQ))
    with pytest.raises(PayloadError):
        check_axioms("nonsense", fx.fix_a(QQ))


def test_dualize_fixture_coalgebra(QQ):
    dual = dualize(fx.fix_c(QQ))
    e, f = 0, 1
    one = QQ.one()
    assert dual.product(e, e) == (-one, QQ.zero())
    assert dual.product(e, f) == (QQ.zero(), -one)
    assert dual.product(f, e) == (QQ.zero(), QQ.zero())
    assert dual.product(f, f) == (QQ.zero(), QQ.zero())


def test_dualize_roundtrip(QQ):
    C = fx.fix_c(QQ)
    assert dualize_alg(dualize(C)) == C
    A = fx.fix_a(QQ)
    assert dualize(dualize_alg(A)) == A


def test_dualize_zero(QQ):
    z = fx.zero_coalgebra(QQ)
    assert all(not any(c for c in cell)
               for row in dualize(z).table for cell in row)


def test_commutator_gives_fixture_bracket(QQ):
    assert commutator(fx.fix_a(QQ)) == fx.fix_lie(QQ)


def test_cocommutator_gives_fixture_cobracket(QQ):
    assert cocommutator(fx.fix_c(QQ)) == fx.fix_delta(QQ)


def test_commutator_of_commutative_is_zero(QQ):
    lie = commutator(fx.dual_numbers(QQ))
    assert all(not any(cell) for row in lie.table for cell in row)


def test_pairing_form_dim1(QQ):
    B = pairing_form(QQ, 1)
    assert B.gram == Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert B.is_symmetric() and B.is_nondegenerate()


def _leibniz_det(m):
    # independent oracle: full permutation expansion
    n = m.rows
    total = m.field.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = m.field.one()
        for i in range(n):
            term = term * m[i, perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def test_pairing_form_determinant(QQ):
    B = pairing_form(QQ, 2)
    oracle = _leibniz_det(B.gram)
    assert oracle == Fraction(1)
    assert B.gram.det() == oracle


def test_form_adjoint_identity(QQ):
    B = pairing_form(QQ, 2)
    eye = Matrix.identity(QQ, 4)
    assert form_adjoint(B, eye) == eye


def test_form_adjoint_projection(QQ):
    # on V + V* with the canonical pairing, the adjoint of the projection
    # to V is the projection to V*
    B = pairing_form(QQ, 2)
    z, o = QQ.zero(), QQ.one()
    proj_v = Matrix(QQ, 4, 4, [o if (i == j and i < 2) else z
                               for i in range(4) for j in range(4)])
    proj_dual = Matrix(QQ, 4, 4, [o if (i == j and i >= 2) else z
                                  for i in range(4) for j in range(4)])
    assert form_adjoint(B, proj_v) == proj_dual


def test_form_adjoint_symmetric_commuting(QQ):
    g = Matrix.from_rows(QQ, [[2, 0], [0, 3]])
    B = BilinearForm(QQ, g)
    r = Matrix.from_rows(QQ, [[5, 0], [0, 7]])  # symmetric, commutes with g
    assert form_adjoint(B, r) == r


def test_form_adjoint_degenerate_rejected(QQ):
    B = BilinearForm(QQ, Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(StructureError):
        form_adjoint(B, Matrix.identity(QQ, 2))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=7, max_size=7))
def test_form_adjoint_involutive_gf5(entries):
    # double adjoint is the identity for symmetric nondegenerate forms
    F5 = PrimeField(5)
    sym = entries[:3]
    g = Matrix(F5, 2, 2, [F5.of(sym[0]), F5.of(sym[1]), F5.of(sym[1]), F5.of(sym[2])])
    if not g.det():
        return
    B = BilinearForm(F5, g)
    r = Matrix(F5, 2, 2, [F5.of(x) for x in entries[3:]])
    assert form_adjoint(B, form_adjoint(B, r)) == r


def _all_gf2_raw_algebras():
    F2 = PrimeField(2)
    out = []
    for bits in itertools.product(range(2), repeat=8):
        table = [[(F2.of(bits[0 + 2 * (2 * i + j)]), F2.of(bits[1 + 2 * (2 * i + j)]))
                  for j in range(2)] for i in range(2)]
        out.append(Algebra(F2, table, raw=True))
    return out


def test_assoc_iff_dual_coassoc_gf2():
    # 256 dim-2 multiplication tables over GF(2)
    checked = 0
    for A in _all_gf2_raw_algebras():
        a_ok = check_axioms("associative", A).passed
        c_ok = check_axioms("coassociative", dualize_alg(A)).passed
        assert a_ok == c_ok
        checked += 1
    assert checked == 256


def test_commutator_lie_for_all_gf2_associative():
    for A in _all_gf2_raw_algebras():
        if check_axioms("associative", A).passed:
            lie = commutator(A)  # construction itself checks the axioms
            assert check_axioms("lie", lie).passed


def test_frobenius_checker(QQ):
    A = fx.dual_numbers(QQ)
    # B(x, y) = coefficient pairing making the unital product invariant
    g = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    rep = check_axioms("frobenius", (A, BilinearForm(QQ, g)))
    assert rep.passed
    degenerate = BilinearForm(QQ, Matrix.from_rows(QQ, [[1, 0], [0, 0]]))
    rep = check_axioms("frobenius", (A, degenerate))
    assert not rep.passed
    assert any(v.identity == "frobenius:nondegenerate" for v in rep.violations)


def test_lie_bialgebra_fixture(QQ):
    rep = check_axioms("lie_bialgebra", (fx.fix_lie(QQ), fx.fix_delta(QQ)))
    assert rep.passed


def test_lie_construction_rejects_bad_bracket(QQ):
    z, o = QQ.zero(), QQ.one()
    table = [[(o, z), (z, z)], [(z, z), (z, z)]]  # [e,e] = e breaks antisymmetry
    with pytest.raises(StructureError):
        LieAlgebra(QQ, table)


# check_axioms shares its verdicts only inside `identities.shared_verdicts`

def test_axiom_memo_never_hides_a_seeded_fault(QQ):
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    with shared_verdicts():
        assert check_axioms("asi_bialgebra", (A, C)).passed   # memoised
        assert check_axioms("asi_bialgebra", (A, C)).passed   # served from the memo
        assert check_axioms("associative", A).passed
        with seeded_fault("de:cv#1", 0):
            assert not check_axioms("asi_bialgebra", (A, C)).passed
        with seeded_fault("associativity", 0):
            # memoised above, and still re-checked under the fault
            assert not check_axioms("associative", A).passed
        other = fx.fix_c(QQ)
        with seeded_fault("de:cv#1", 0):
            assert not check_axioms("asi_bialgebra", (A, other)).passed
        # verdicts computed under a fault were not memoised
        assert check_axioms("asi_bialgebra", (A, C)).passed
        assert check_axioms("asi_bialgebra", (A, other)).passed
        assert check_axioms("associative", A).passed


def test_axiom_memo_keyed_by_each_cocarrier(QQ):
    import gc
    import weakref
    A = fx.fix_a(QQ)
    good, bad = fx.fix_c(QQ), fx.grouplike_coalgebra(QQ)
    with shared_verdicts():
        assert check_axioms("asi_bialgebra", (A, good)).passed
        assert not check_axioms("asi_bialgebra", (A, bad)).passed
        assert check_axioms("asi_bialgebra", (A, good)).passed
        assert check_axioms("coassociative", bad).passed  # another kind, another key
        # the memo holds the cocarriers it has seen, so their ids are never
        # reused for another object while its entry lives
        gone, held = id(good), weakref.ref(good)
        del good
        gc.collect()
        assert held() is not None
        fresh = [type(bad)(QQ, bad.table, basis=bad.basis, raw=True) for _ in range(200)]
        assert all(id(c) != gone for c in fresh)
        assert not any(check_axioms("asi_bialgebra", (A, c)).passed for c in fresh)


def test_axiom_memo_dies_with_its_structure(QQ):
    # the scope's memo holds the structures it has seen until it closes
    import gc
    import weakref
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    with shared_verdicts():
        check_axioms("asi_bialgebra", (A, C))
        check_axioms("asi_bialgebra", (A, C))
    refs = [weakref.ref(A), weakref.ref(C)]
    del A, C
    gc.collect()
    assert all(r() is None for r in refs)


def test_structures_carry_no_verdict_state(QQ):
    import copy
    import pickle
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    state = set(vars(A))
    check_axioms("asi_bialgebra", (A, C))
    with shared_verdicts():
        check_axioms("asi_bialgebra", (A, C))
    assert set(vars(A)) == state
    assert not any(isinstance(v, dict) for v in vars(A).values())
    for twin in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A), copy.copy(A)):
        assert twin == A and set(vars(twin)) == state
        assert check_axioms("asi_bialgebra", (twin, C)).passed
        assert not check_axioms("asi_bialgebra", (twin, fx.grouplike_coalgebra(QQ))).passed


def test_axiom_verdicts_shared_only_inside_a_scope(QQ, monkeypatch):
    import collections
    from rbx import identities
    counts = collections.Counter()
    real = identities._run

    def spy(check, tags, ctx):
        counts[check] += 1
        return real(check, tags, ctx)
    monkeypatch.setattr(identities, "_run", spy)
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    counts.clear()  # construction checked A and C
    first = check_axioms("asi_bialgebra", (A, C))
    assert check_axioms("asi_bialgebra", (A, C)) == first
    assert counts == {"axioms:asi_bialgebra": 2}
    counts.clear()
    with shared_verdicts():
        inner = check_axioms("asi_bialgebra", (A, C))
        assert check_axioms("asi_bialgebra", (A, C)) is inner
    assert inner == first and counts == {"axioms:asi_bialgebra": 1}
    assert _VERDICTS.get() is None


# placement_product against the oracle's nested loop, on a random raw table
# of dimension 3 and on fix_a

PLACEMENT_PAIRS = [((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (1, 2)),
                   ((1, 3), (2, 3)), ((2, 3), (1, 2)), ((2, 3), (1, 3))]


def _random_scalar(field, rng):
    if field.modulus:
        return rng.randrange(field.modulus)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _grid(t):
    return [[t[a, b] for b in range(t.dim)] for a in range(t.dim)]


@pytest.mark.parametrize("px, py", PLACEMENT_PAIRS)
@pytest.mark.parametrize("field", [PrimeField(3), Rationals()], ids=["GF3", "Q"])
def test_placement_product_matches_naive_loop(field, px, py):
    rng = random.Random(31)
    table = [[[_random_scalar(field, rng) for _ in range(3)] for _ in range(3)]
             for _ in range(3)]
    for A in (Algebra(field, table, raw=True), fx.fix_a(field)):
        d = A.dim
        for _ in range(5):
            x, y = (Tensor2(field, d, [_random_scalar(field, rng) for _ in range(d * d)])
                    for _ in range(2))
            got = placement_product(A, x, px, y, py)
            want = placed(A.table, _grid(x), px, _grid(y), py, field.zero())
            flat = [want[a][b][c] for a in range(d) for b in range(d) for c in range(d)]
            assert got.entries == field.reduce(flat)
            assert all(type(e) is field.stored for e in got.entries)
    for x, y in ((Tensor2.zero(field, 2), Tensor2.zero(field, 3)),
                 (Tensor2.zero(field, 3), Tensor2.zero(field, 2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            placement_product(fx.fix_a(field), x, px, y, py)


# the sparse table ops against dense reference loops (tests/kernel_diff.py)

@pytest.mark.parametrize("p", MODULI, ids=lambda p: "Q" if p is None else f"GF{p}")
def test_table_ops_match_the_dense_reference(p):
    # mul, delta, both coapplies and placement_product on random dense,
    # sparse and zero tables of dimension 1 to 3, with vectors that mix
    # stored and unstored scalars; every result entry is stored
    rng, field = random.Random(p or 1), field_of(p)
    assert sum(structures_round(rng, field) for _ in range(300)) == 1500
    # and with an all-zero operand: a zero vector in each accepted form, a
    # zero tensor, or the zero table; results keep their type and shape
    assert sum(table_zero_round(rng, field) for _ in range(30)) == 1170


def test_left_and_right_mult_refuse_a_zero_of_another_field(F3):
    # as mul does: the zero coefficient is converted, not skipped
    A, alien = fx.fix_a(F3), GFElement(0, 5)
    for x in ((alien, 1), (1, alien)):
        for op in (lambda: A.mul(x, (1, 0)), lambda: A.left_mult(x), lambda: A.right_mult(x)):
            with pytest.raises(FieldError, match="GF\\(5\\)"):
                op()
    assert A.left_mult((GFElement(0, 3), 1)) == A.left_mult_basis(1)


def test_bilinear_form_refuses_a_zero_of_another_field(F3, QQ):
    B = BilinearForm(F3, Matrix.identity(F3, 2))
    for x, y in (((GFElement(0, 5), 1), (1, 1)), ((1, 1), (1, GFElement(0, 5))),
                 ((Fraction(0), 1), (1, 1))):
        with pytest.raises(FieldError):
            B.value(x, y)
    assert B.value((GFElement(0, 3), 1), (1, 1)) == 1 and type(B.value((2, 2), (2, 2))) is int
    Bq = BilinearForm(QQ, Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
    assert Bq.value((Fraction(1, 2), 0), (Fraction(0), 3)) == Fraction(3, 2)
    with pytest.raises(FieldError):
        Bq.value((GFElement(0, 3), 1), (1, 1))
    with pytest.raises(ValueError, match="dimension mismatch in bilinear form"):
        Bq.value((0, 0, 0), (1, 1))


@pytest.mark.parametrize("p", MODULI, ids=lambda p: "Q" if p is None else f"GF{p}")
def test_table_ops_take_any_accepted_scalar_and_refuse_bad_operands(p):
    field = field_of(p)
    A, C = fx.fix_a(field), fx.fix_c(field)
    z = (0, field.zero())
    assert A.mul(z, (1, 1)) == A.mul((1, 1), z) == (0, 0) and C.delta(z).is_zero()
    if p:
        x, same = (-1, GFElement(7, p)), ((-1) % p, 7 % p)
        others = (GFElement(1, 5 if p != 5 else 7), GFElement(0, 7 if p != 7 else 5),
                  Fraction(1, 2), Fraction(0))
    else:
        x, same = (Fraction(-1, 2), 3), (field.of(-1, 2), field.of(3))
        others = (GFElement(1, 3), GFElement(0, 3))
    y = field.reduce((2, 5))
    assert A.mul(x, y) == A.mul(same, y) and A.mul(y, x) == A.mul(y, same)
    assert C.delta(x) == C.delta(same)
    assert all(type(v) is field.stored for v in A.mul(x, y) + C.delta(x).entries)
    for other in others:
        for bad in ((other, 1), (1, other)):
            with pytest.raises(FieldError):
                A.mul(bad, y)
            with pytest.raises(FieldError):
                A.mul(y, bad)
            with pytest.raises(FieldError):
                C.delta(bad)
    for t in (Tensor2.zero(field, 1), Tensor2(field, 3, range(9))):
        for expand in (C.coapply_first, C.coapply_second):
            with pytest.raises(ValueError, match="dimension mismatch"):
                expand(t)
    for bad in ((1,), (1, 0, 0), (0, 0, 1)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            A.mul(bad, y)
        with pytest.raises(ValueError, match="dimension mismatch"):
            A.mul(y, bad)
        with pytest.raises(ValueError, match="dimension mismatch"):
            C.delta(bad)


def test_copied_tables_keep_their_nonzero_constants(QQ):
    # the constants are built once per table, raw or checked, and travel
    # with pickle and deepcopy
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    assert len(A._nonzero) == 2 and len(C._nonzero) == 2
    raw = Algebra(QQ, A.table, basis=A.basis, raw=True)
    assert raw._nonzero == A._nonzero
    x, y = (QQ.of(1, 2), QQ.of(-3)), (QQ.of(2, 7), QQ.of(5, 3))
    for copy_of in (lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy):
        A2, C2 = copy_of(A), copy_of(C)
        assert A2.mul(x, y) == A.mul(x, y) and C2.delta(x) == C.delta(x)
