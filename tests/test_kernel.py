import copy
import itertools
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbx.errors import FieldError
from rbx.kernel import (GFElement, Matrix, PrimeField, Rationals, Tensor2,
                        Tensor3, _Quadratic, field_make, leg_apply, det)
from rbx import fixtures as fx

from kernel_diff import MODULI, field_of, kernel_round, kernel_zero_round


def test_field_make_prime():
    f = field_make("prime 2")
    assert isinstance(f, PrimeField) and f.modulus == 2


def test_field_make_nonprime_rejected():
    with pytest.raises(FieldError):
        field_make("prime 4")


def test_field_make_rationals():
    assert isinstance(field_make("rationals"), Rationals)
    assert isinstance(field_make("Q"), Rationals)
    assert field_make("GF 5") == PrimeField(5)
    assert field_make("GF5") == PrimeField(5)


def test_mixed_fields_rejected():
    a = GFElement(1, 3)
    b = GFElement(1, 5)
    with pytest.raises(FieldError):
        a + b
    with pytest.raises(TypeError):
        a + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) + a


def test_gf_arithmetic_exact():
    f = PrimeField(7)
    x = f.of(3)
    assert x / f.of(5) * f.of(5) == x
    assert -x == f.of(4)
    assert bool(f.zero()) is False


def test_rationals_normalized(QQ):
    x = QQ.of(2, -4)
    assert x == Fraction(-1, 2)
    assert x.denominator > 0
    assert str(x) == "-1/2"


def test_det_identity(QQ):
    assert det(Matrix.identity(QQ, 3)) == Fraction(1)


def test_det_singular(QQ):
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert det(m) == 0


def test_det_swap(QQ):
    m = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert det(m) == Fraction(-1)


_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(st.lists(_fracs, min_size=8, max_size=8))
def test_det_multiplicative(entries):
    QQ = Rationals()
    a = Matrix(QQ, 2, 2, entries[:4])
    b = Matrix(QQ, 2, 2, entries[4:])
    assert det(a @ b) == det(a) * det(b)


def test_inverse_roundtrip(QQ):
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert m @ m.inverse() == Matrix.identity(QQ, 2)


def _rand_tensor(field, entries):
    return Tensor2(field, 2, entries)


def test_leg_apply_identity(QQ):
    t = _rand_tensor(QQ, [1, 2, 3, 4])
    eye = Matrix.identity(QQ, 2)
    assert leg_apply(t, eye, 1) == t
    assert leg_apply(t, eye, 2) == t


def test_leg_apply_zero(QQ):
    t = _rand_tensor(QQ, [1, 2, 3, 4])
    z = Matrix.zero(QQ, 2)
    assert leg_apply(t, z, 2).is_zero()


def test_leg_apply_fixture_tensor(QQ):
    # on r = e(x)f - f(x)e the fixture map acts as (id (x) R)r = e(x)e while
    # the same map on the first leg gives the negative: (Q (x) id)r = -e(x)e
    r = fx.fix_r2(QQ)
    R, _ = fx.fix_rs(QQ)
    Q, _ = fx.fix_qt(QQ)
    ee = Tensor2(QQ, 2, [1, 0, 0, 0])
    assert leg_apply(r, R, 2) == ee
    assert leg_apply(r, Q, 1) == -ee
    assert leg_apply(r, R, 2) == -leg_apply(r, Q, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(_fracs, min_size=12, max_size=12))
def test_legs_commute(entries):
    QQ = Rationals()
    t = Tensor2(QQ, 2, entries[:4])
    m = Matrix(QQ, 2, 2, entries[4:8])
    n = Matrix(QQ, 2, 2, entries[8:])
    one_way = leg_apply(leg_apply(t, m, 1), n, 2)
    other = leg_apply(leg_apply(t, n, 2), m, 1)
    assert one_way == other


@settings(max_examples=40, deadline=None)
@given(st.lists(_fracs, min_size=12, max_size=12))
def test_flip_swaps_legs(entries):
    QQ = Rationals()
    t = Tensor2(QQ, 2, entries[:4])
    m = Matrix(QQ, 2, 2, entries[4:8])
    n = Matrix(QQ, 2, 2, entries[8:])
    lhs = leg_apply(leg_apply(t, m, 1), n, 2).flip()
    rhs = leg_apply(leg_apply(t.flip(), n, 1), m, 2)
    assert lhs == rhs


def test_flip_involution(QQ):
    t = _rand_tensor(QQ, [1, 2, 3, 4])
    assert t.flip().flip() == t


def test_flip_antisymmetric(QQ):
    t = fx.fix_r2(QQ)
    assert t.flip() == -t
    assert t.is_antisymmetric()


def test_flip_pure_tensor(QQ):
    ef = Tensor2.from_terms(QQ, 2, [(0, 1, 1)])
    fe = Tensor2.from_terms(QQ, 2, [(1, 0, 1)])
    assert ef.flip() == fe


# GF(p) storage, field mixing at the container level, and the eq/hash
# contract of the public GF(p) scalar

def test_gf_entries_stored_as_reduced_ints():
    F3 = PrimeField(3)
    m = Matrix(F3, 2, 2, [F3.of(2), 4, -1, F3.of(1, 2)])
    assert m.entries == (2, 1, 2, 2)
    assert all(type(x) is int for x in m.entries)
    assert all(type(x) is int for x in (m @ m).entries + (-m).entries)
    t = leg_apply(Tensor2(F3, 2, [1, 2, 0, 1]), m, 2)
    assert all(type(x) is int and 0 <= x < 3 for x in t.entries)
    assert F3.coerce(F3.of(5)) == 2 and F3.coerce(-4) == 2


def test_gf_coerce_refuses_other_fields():
    F3 = PrimeField(3)
    with pytest.raises(FieldError):
        F3.coerce(GFElement(1, 5))
    with pytest.raises(FieldError):
        F3.coerce(Fraction(1, 2))
    with pytest.raises(FieldError):
        Rationals().coerce(GFElement(1, 3))


def test_compile_scalar_refuses_other_fields():
    # the search compile's polynomial scalar combines with ints and its own
    # field only; GF(p) data pass it through unchanged
    F3 = PrimeField(3)
    y, z = _Quadratic({(0,): 1}, 3), _Quadratic({(1,): 2}, 3)
    assert (y * z + 4 - y).terms == {(1, 0): 2, (): 1, (0,): 2}
    assert F3.coerce(y) is y and F3.reduce((y, 4)) == (y, 1) and y % 3 is y
    assert y - y == 0 and y * 3 == 0
    with pytest.raises(RuntimeError, match="degree above 2"):
        y * y * z
    assert (_Quadratic({(0,): 1}, 2) * _Quadratic({(0,): 1, (1,): 1}, 2)).terms \
        == {(0,): 1, (1, 0): 1}  # y^2 = y over GF(2)
    other = _Quadratic({(0,): 1}, 5)
    for mix in (lambda: y + other, lambda: y * other, lambda: other - y,
                lambda: y * GFElement(1, 5), lambda: GFElement(1, 5) + y,
                lambda: y + Fraction(1, 2), lambda: PrimeField(5).coerce(y),
                lambda: y % 5, lambda: Matrix(PrimeField(5), 1, 1, [y])):
        with pytest.raises(FieldError):
            mix()


def test_gf_vectors_with_public_scalars_are_unboxed():
    F3 = PrimeField(3)
    m = Matrix(F3, 2, 2, [1, 2, 2, 1])
    assert m.apply((F3.of(1), F3.of(2))) == (2, 1) == m.apply((4, -1))
    A = fx.fix_a(F3)
    assert A.mul((F3.of(2), F3.of(2)), (0, F3.of(1))) == A.mul((2, 2), (0, 1))
    with pytest.raises(FieldError):
        m.apply((GFElement(1, 5), 0))
    with pytest.raises(FieldError):
        m.apply((Fraction(1, 2), 0))


def _mixed_pairs():
    F3, F5, QQ = PrimeField(3), PrimeField(5), Rationals()
    return [(F3, F5), (F3, QQ), (QQ, F5)]


@pytest.mark.parametrize("fa,fb", _mixed_pairs())
def test_matrix_ops_reject_mixed_fields(fa, fb):
    a, b = Matrix.identity(fa, 2), Matrix.identity(fb, 2)
    with pytest.raises(FieldError):
        a + b
    with pytest.raises(FieldError):
        a - b
    with pytest.raises(FieldError):
        a @ b


@pytest.mark.parametrize("fa,fb", _mixed_pairs())
def test_tensor_ops_reject_mixed_fields(fa, fb):
    s, t = Tensor2(fa, 2, [1, 0, 0, 1]), Tensor2(fb, 2, [1, 0, 0, 1])
    with pytest.raises(FieldError):
        s + t
    with pytest.raises(FieldError):
        leg_apply(s, Matrix.identity(fb, 2), 1)
    with pytest.raises(FieldError):
        leg_apply(s, Matrix.identity(fb, 2), 2)


@pytest.mark.parametrize("fa,fb", _mixed_pairs())
def test_checker_contexts_reject_mixed_fields(fa, fb):
    from rbx.identities import Ctx
    from rbx.systems import OperatorSystem, check_operator_system
    A = fx.fix_a(fa)
    R = Matrix.identity(fb, 2)
    with pytest.raises(FieldError):
        Ctx({"A": A.basis}, A=A, R=R)
    with pytest.raises(FieldError):
        check_operator_system("symmetric_rbs", OperatorSystem(A, R, R))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_gf_element_eq_hash_contract(p, a, n):
    x = GFElement(a, p)
    assert (x == n) == (n == a % p)
    assert (x == n) == (n == x)
    if x == n:
        assert hash(x) == hash(n)
    y = GFElement(n, p)
    assert (x == y) == ((a - n) % p == 0)
    if x == y:
        assert hash(x) == hash(y)
    assert len({x, y, x.val}) == (1 if x == y else 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_gf_det_inverse(entries):
    F5 = PrimeField(5)
    m = Matrix(F5, 2, 2, entries)
    d = det(m)
    assert type(d) is int and d == (entries[0] * entries[3] - entries[1] * entries[2]) % 5
    if d:
        assert m @ m.inverse() == Matrix.identity(F5, 2)
    else:
        with pytest.raises(ZeroDivisionError):
            m.inverse()


def test_gf_of_denominator_divisible_by_p_raises_field_error():
    F3 = PrimeField(3)
    for den in (3, 0, -6):
        with pytest.raises(FieldError, match="denominator"):
            F3.of(1, den)
    with pytest.raises(FieldError):
        F3.parse("1/3")
    assert F3.of(1, 2) == 2 and F3.of(2, -1) == 1


# the stored Q scalar: exact +, -, *, / with its own type and with ints,
# equal in value, hash and normal form to `Fraction`'s results

_BIG = 2 ** 64
_NUMS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10 ** 6, 10 ** 6),
                  st.integers(_BIG, _BIG ** 2), st.integers(-_BIG ** 2, -_BIG))
_DENS = st.one_of(st.just(1), st.integers(1, 10 ** 6), st.integers(_BIG, _BIG ** 2))
_QPAIRS = st.tuples(_NUMS, _DENS)


def _same_as_fraction(got, want):
    assert type(got) is Rationals.stored
    assert got == want and hash(got) == hash(want)
    assert gcd(got.numerator, got.denominator) == 1 and got.denominator > 0


@settings(max_examples=300, deadline=None)
@given(_QPAIRS, _QPAIRS, _NUMS)
def test_stored_scalar_matches_fraction(a, b, k):
    QQ = Rationals()
    x, y, fa, fb = QQ.of(*a), QQ.of(*b), Fraction(*a), Fraction(*b)
    for op in (operator.add, operator.sub, operator.mul):
        _same_as_fraction(op(x, y), op(fa, fb))
        _same_as_fraction(op(x, k), op(fa, k))
        _same_as_fraction(op(k, x), op(k, fa))
    _same_as_fraction(-x, -fa)
    for divisor, plain in ((y, fb), (k, k)):
        if plain:
            _same_as_fraction(x / divisor, fa / plain)
        else:
            with pytest.raises(ZeroDivisionError):
                x / divisor
    # a plain Fraction operand takes Fraction's own operator, exactly
    for op in (operator.add, operator.sub, operator.mul):
        assert op(x, fb) == op(fa, fb) == op(fa, y)
    if fb:
        assert x / fb == fa / fb == fa / y
    assert repr(x) == repr(fa) and str(x) == str(fa)
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        _same_as_fraction(copied, fa)


def test_stored_scalar_refuses_gf_elements():
    QQ, g = Rationals(), GFElement(1, 3)
    x = QQ.of(1, 2)
    for mix in (lambda: x + g, lambda: g + x, lambda: x * g, lambda: g * x,
                lambda: x - g, lambda: g - x):
        with pytest.raises(TypeError):
            mix()
    with pytest.raises(FieldError, match=r"cannot coerce Fraction\(1, 2\) into GF\(3\)"):
        PrimeField(3).coerce(x)
    with pytest.raises(FieldError):
        QQ.coerce(g)


def test_q_entry_points_yield_the_stored_type():
    # a plain Fraction left in a container is exact but takes the slow path
    QQ = Rationals()
    m = Matrix(QQ, 2, 2, [Fraction(1, 2), 3, Fraction(-2), 1])
    t = Tensor2(QQ, 2, [1, Fraction(1, 3), 0, Fraction(-5, 7)])
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    v = (Fraction(1, 2), 3)
    scalars = [QQ.zero(), QQ.one(), QQ.of(3, -6), QQ.parse("-1.5"),
               QQ.coerce(Fraction(2, 3)), QQ.coerce(4), QQ.div(QQ.of(1, 2), QQ.of(3)),
               m.det(), det(m)]
    vectors = [m.entries, t.entries, m.inverse().entries, m.scale(Fraction(1, 2)).entries,
               t.scale(2).entries, (m @ m).entries, m.apply(v), A.mul(v, v),
               C.delta(v).entries, leg_apply(t, m, 1).entries, leg_apply(t, m, 2).entries,
               QQ.reduce([Fraction(1, 2), 2, True])]
    vectors += [cell for table in (A.table, C.table) for row in table for cell in row]
    assert all(type(x) is QQ.stored for x in scalars)
    assert all(type(x) is QQ.stored for vec in vectors for x in vec)


@pytest.mark.parametrize("text", ["3/7", "-1.5", "2e3", " 4/2 ", "-1.25e-2",
                                  "2e4299", "6/4", "0.0", "+7"])
def test_rational_literals_read_as_fraction(text):
    x = Rationals().parse(text)
    assert type(x) is Rationals.stored and x == Fraction(text)


@pytest.mark.parametrize("text", ["2e4301", "1e999999999", "1e-4300", "0e5000",
                                  "1" * 4301])
def test_rational_literals_beyond_the_digit_limit_refused(text):
    with pytest.raises(FieldError, match="bad rational literal"):
        Rationals().parse(text)


# the container contract that Matrix, Tensor2 and Tensor3 share: entrywise
# +, - and negation, the zero test, eq/hash within and across types, the
# mismatch errors, pickling (the search pool ships containers) and the
# rendered nonzero entries

_ORDER = {Matrix: 2, Tensor2: 2, Tensor3: 3}


def _container(cls, field, values, dim=2):
    values = list(values)[:dim ** _ORDER[cls]]
    return Matrix(field, dim, dim, values) if cls is Matrix else cls(field, dim, values)


@pytest.mark.parametrize("cls", [Matrix, Tensor2, Tensor3])
@pytest.mark.parametrize("field", [PrimeField(3), Rationals()], ids=["GF3", "Q"])
def test_container_contract(cls, field):
    half = field.of(1, 2)
    a = _container(cls, field, [1, 0, half, -1, 0, 2, 0, half])
    b = _container(cls, field, [2, half, 0, 1, 1, 0, -1, 0])
    other = PrimeField(3) if field.modulus is None else Rationals()
    assert all(type(x) is field.stored for x in a.entries + b.entries)

    def entries(values):
        return field.reduce(list(values))

    for got, want in ((a + b, map(operator.add, a.entries, b.entries)),
                      (a - b, map(operator.sub, a.entries, b.entries)),
                      (-a, (-x for x in a.entries))):
        assert type(got) is cls and got.field == field
        assert got.entries == entries(want)
    if hasattr(cls, "scale"):
        assert a.scale(half).entries == entries(half * x for x in a.entries)

    zero = cls.zero(field, 2)
    assert zero.is_zero() and (a - a).is_zero() and not a.is_zero()
    assert a - a == zero and a + zero == a and -(-a) == a

    twin = _container(cls, field, [1, 0, half, -1, 0, 2, 0, half])
    assert a == twin and not a != twin and hash(a) == hash(twin) and a != b
    shape = (2, 2) if cls is Matrix else (2,)
    assert hash(a) == hash(shape + (a.entries,))
    ones = [1] * 8
    for kin in (Matrix, Tensor2, Tensor3):
        if kin is not cls:
            assert _container(cls, field, ones) != _container(kin, field, ones)
            assert _container(kin, field, ones) != _container(cls, field, ones)
            with pytest.raises(TypeError):
                a + _container(kin, field, ones)
    assert _container(cls, field, ones) != _container(cls, other, ones)
    with pytest.raises(TypeError):
        a - 1
    bigger = _container(cls, field, [1] * 27, dim=3)
    with pytest.raises(ValueError if cls is Matrix else TypeError):
        a + bigger
    with pytest.raises(ValueError if cls is Matrix else TypeError):
        a - bigger
    mixed = _container(cls, other, ones)
    for mix in (lambda: a + mixed, lambda: a - mixed, lambda: mixed + a):
        with pytest.raises(FieldError):
            mix()

    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(copied) is cls and copied == a and hash(copied) == hash(a)
        assert all(type(x) is field.stored for x in copied.entries)

    from rbx.identities import _render
    index = itertools.product(range(2), repeat=_ORDER[cls])
    shown = tuple(f"[{','.join(map(str, i))}]={x}" for i, x in zip(index, a.entries) if x)
    assert shown and _render(a) == shown and _render(zero) == ("0",)
    if cls is not Matrix:
        assert repr(a) == f"{cls.__name__}({', '.join(shown)})"
        assert repr(zero) == f"{cls.__name__}(0)"


def test_show_renders_parts_past_the_digit_limit_by_their_size():
    import sys
    from rbx.kernel import show
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("no int/str digit limit")
    QQ, top = Rationals(), 10 ** limit  # the least int of limit + 1 digits
    assert show(top - 1) == "9" * limit and show(QQ.of(1, 2)) == "1/2" and show(-5) == "-5"
    assert show(top) == show(QQ.of(top)) == f"<{limit + 1} digits>"
    assert show(QQ.of(-3 * top - 1, 7)) == f"-<{limit + 1} digits>/7"
    assert show(QQ.of(2, 70 * top + 1)) == f"2/<{limit + 2} digits>"


# the sparse kernel ops against dense reference loops (tests/kernel_diff.py)

def _moduli_ids(p):
    return "Q" if p is None else f"GF{p}"


def _other_fields(field):
    """Scalars of another field, zero ones included: mixing always refuses."""
    if field.modulus is None:
        return (GFElement(1, 3), GFElement(0, 3))
    q = 5 if field.modulus != 5 else 7
    return (GFElement(1, q), GFElement(0, q), Fraction(1, 2), Fraction(0))


@pytest.mark.parametrize("p", MODULI, ids=_moduli_ids)
def test_kernel_ops_match_the_dense_reference(p):
    # apply, @ and leg_apply on both legs, on random dense and sparse
    # operands of dimension 1 to 3 whose vectors mix stored and unstored
    # scalars; every result entry is stored
    rng, field = random.Random(p or 1), field_of(p)
    assert sum(kernel_round(rng, field) for _ in range(300)) == 1200
    # and with an all-zero operand: a zero vector in each accepted form, a
    # zero matrix or a zero tensor; results keep their type and shape
    assert sum(kernel_zero_round(rng, field) for _ in range(30)) == 420


@pytest.mark.parametrize("p", (3, None), ids=_moduli_ids)
def test_zero_operands_are_checked_before_the_early_return(p):
    # a zero operand skips the loop, not the checks: each invalid zero
    # operand raises as a nonzero one does
    field, other = field_of(p), field_of(5 if p else 3)
    m, zm, zt = Matrix.identity(field, 2), Matrix.zero(field, 2), Tensor2.zero(field, 2)
    A = fx.fix_a(field)
    for bad in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="dimension mismatch in product"):
            A.mul(bad, (1, 1))
        with pytest.raises(ValueError, match="dimension mismatch in product"):
            A.mul((0, 0), bad)
        with pytest.raises(ValueError, match="dimension mismatch in matrix application"):
            m.apply(bad)
        with pytest.raises(ValueError, match="dimension mismatch in matrix application"):
            zm.apply(bad)
    alien = GFElement(0, 5 if p else 3)  # a zero of another field
    for bad in ((alien, 0), (0, alien)):
        with pytest.raises(FieldError):
            A.mul(bad, (0, 0))
        with pytest.raises(FieldError):
            zm.apply(bad)
    with pytest.raises(FieldError):
        zm @ Matrix.zero(other, 2)
    with pytest.raises(FieldError):
        leg_apply(Tensor2.zero(other, 2), zm, 1)
    for t, n in ((zt, m), (Tensor2(field, 2, [1, 0, 0, 1]), zm), (zt, zm)):
        for leg in (0, 3):
            with pytest.raises(ValueError, match="leg must be 1 or 2"):
                leg_apply(t, n, leg)
    for t, n in ((zt, Matrix.zero(field, 3)), (zt, Matrix.zero(field, 2, 3))):
        with pytest.raises(ValueError, match="dimension mismatch in leg application"):
            leg_apply(t, n, 1)
    for a, b in ((Matrix.zero(field, 2, 3), Matrix.zero(field, 2)),
                 (zm, Matrix.zero(field, 3, 2))):
        with pytest.raises(ValueError, match="dimension mismatch in matrix product"):
            a @ b


@pytest.mark.parametrize("p", MODULI, ids=_moduli_ids)
def test_apply_takes_any_accepted_scalar_and_refuses_other_fields(p):
    field = field_of(p)
    m = Matrix(field, 2, 2, [1, 2, 3, 4])
    zero = m.apply((0, field.zero()))
    assert zero == (0, 0) and all(type(x) is field.stored for x in zero)
    if p:
        assert m.apply((-1, GFElement(7, p))) == m.apply(((-1) % p, 7 % p))
    else:
        assert m.apply((Fraction(-1, 2), 3)) == m.apply((field.of(-1, 2), field.of(3)))
        assert all(type(x) is field.stored for x in m.apply((Fraction(-1, 2), 3)))
    for other in _other_fields(field):
        with pytest.raises(FieldError):
            m.apply((other, 1))
        with pytest.raises(FieldError):
            m.apply((1, other))


def test_compile_scalar_runs_through_the_gf_loops():
    # a GF(p) container may hold the search compile's scalar: apply and
    # leg_apply pass it through the int loop, and a product of degree above
    # 2 is still refused
    F3 = PrimeField(3)
    y = [_Quadratic({(e,): 1}, 3) for e in range(4)]
    m = Matrix(F3, 2, 2, y)
    first = m.apply((1, 2))
    assert first[0].terms == {(0,): 1, (1,): 2} and first[1].terms == {(2,): 1, (3,): 2}
    assert leg_apply(Tensor2(F3, 2, [1, 0, 0, 0]), m, 1).entries[2].terms == {(2,): 1}
    with pytest.raises(RuntimeError, match="degree above 2"):
        m.apply(m.apply(first))
