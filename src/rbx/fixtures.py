"""Bundled regression fixtures: the dim-2 carrier structures, their map
pairs, and the sixteen parametric map families used by `verify-paper`.

Everything is field-parametrized so the same data drives exact rational
verification and finite-field searches.
"""

from __future__ import annotations

from .kernel import Matrix, Rationals, Tensor2
from .structures import Algebra, Coalgebra, LieAlgebra, LieCoalgebra
from .bisystems import ASIBisystem
from .search import Constraint, FamilySpec


def _mat(field, cols):
    return Matrix.from_cols(field, cols)


def fix_a(field=None, k=1):
    """dim-2 algebra: e.e = 0, e.f = 0, f.e = k e, f.f = k f."""
    field = field or Rationals()
    k = field.coerce(k)
    z = field.zero()
    table = [[(z, z), (z, z)], [(k, z), (z, k)]]
    return Algebra(field, table, basis=("e", "f"))


def fix_c(field=None):
    """dim-2 coalgebra: D(e) = -e(x)e, D(f) = -e(x)f."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(-o, z), (z, z)], [(z, -o), (z, z)]]
    return Coalgebra(field, table, basis=("e", "f"))


def fix_lie(field=None, k=1):
    """dim-2 bracket: [e, f] = -k e, [f, e] = k e."""
    field = field or Rationals()
    k = field.coerce(k)
    z = field.zero()
    table = [[(z, z), (-k, z)], [(k, z), (z, z)]]
    return LieAlgebra(field, table, basis=("e", "f"))


def fix_delta(field=None):
    """dim-2 cobracket: d(e) = 0, d(f) = f(x)e - e(x)f."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(z, z), (z, z)], [(z, -o), (o, z)]]
    return LieCoalgebra(field, table, basis=("e", "f"))


def fix_rs(field=None):
    """R(e) = 0, R(f) = e; S(e) = 0, S(f) = 2e."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    return (_mat(field, [(z, z), (o, z)]),
            _mat(field, [(z, z), (field.of(2), z)]))


def fix_qt(field=None):
    """Q(e) = 0, Q(f) = e; T(e) = 0, T(f) = 2e."""
    return fix_rs(field)


def gc_maps(field=None, q1=1, q2=2):
    """R(e) = q1 e - q1 f, R(f) = q2 e - q2 f;
    S(e) = S(f) = q2 e - q1 f."""
    field = field or Rationals()
    q1, q2 = field.coerce(q1), field.coerce(q2)
    R = _mat(field, [(q1, -q1), (q2, -q2)])
    S = _mat(field, [(q2, -q1), (q2, -q1)])
    return R, S


def emm_maps(field=None, q1=1, q2=2):
    """The negated pair (-S, -R) of `gc_maps`."""
    R, S = gc_maps(field, q1, q2)
    return -S, -R


def fix_bi(field=None, q1=1, q2=2) -> ASIBisystem:
    """The bundled bisystem: carrier pair with maps (R, S, -S, -R)."""
    field = field or Rationals()
    R, S = gc_maps(field, q1, q2)
    return ASIBisystem(fix_a(field), fix_c(field), R, S, -S, -R)


def fix_r2(field=None) -> Tensor2:
    """r = e(x)f - f(x)e on the dim-2 carrier."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    return Tensor2(field, 2, [z, o, -o, z])


def central_pair_algebra(field=None):
    """dim-2 algebra with u central idempotent and v annihilating."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(o, z), (z, z)], [(z, z), (z, z)]]
    return Algebra(field, table, basis=("u", "v"))


def dual_numbers(field=None):
    """Unital commutative dim-2 algebra: u unit, v.v = 0."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(o, z), (z, o)], [(z, o), (z, z)]]
    return Algebra(field, table, basis=("u", "v"))


def grouplike_coalgebra(field=None):
    """Cocommutative dim-2 coalgebra: D(u) = 0, D(v) = v(x)v."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(z, z), (z, z)], [(z, z), (z, o)]]
    return Coalgebra(field, table, basis=("u", "v"))


def zero_algebra(field=None, dim=2):
    """All products vanish."""
    field = field or Rationals()
    z = field.zero()
    table = [[(z,) * dim for _ in range(dim)] for _ in range(dim)]
    return Algebra(field, table)


def zero_coalgebra(field=None, dim=2):
    field = field or Rationals()
    z = field.zero()
    table = [[(z,) * dim for _ in range(dim)] for _ in range(dim)]
    return Coalgebra(field, table)


# ---------------------------------------------------------------------------
# parametric map families on the dim-2 carriers

def _nonzero(name):
    return Constraint(f"{name} != 0", lambda pr, n=name: bool(pr[n]))


def _distinct(a, b):
    return Constraint(f"{a} != {b}", lambda pr, x=a, y=b: pr[x] != pr[y])


def _fam(name, kind, params, constraints, build):
    return FamilySpec(name, kind, tuple(params), tuple(constraints), build)


def _z(field):
    return field.zero()


def _cee_a(field, pr):
    p1, p2, p3 = pr["p1"], pr["p2"], pr["p3"]
    frac = p2 * p3 / p1
    return (_mat(field, [(p1, p2), (p3, frac)]),
            _mat(field, [(-frac, p2), (p3, -p1)]))


def _cee_b(field, pr):
    p1, p2 = pr["p1"], pr["p2"]
    z = _z(field)
    return (_mat(field, [(z, z), (p1, p2)]),
            _mat(field, [(-p2, z), (p1, z)]))


def _cee_c(field, pr):
    p1, p2 = pr["p1"], pr["p2"]
    z = _z(field)
    return (_mat(field, [(z, p1), (z, p2)]),
            _mat(field, [(-p2, p1), (z, z)]))


def _cee_d(field, pr):
    p1, p2 = pr["p1"], pr["p2"]
    z = _z(field)
    return (_mat(field, [(z, z), (p1, z)]),
            _mat(field, [(z, z), (p2, z)]))


def _cee_e(field, pr):
    p1, p2 = pr["p1"], pr["p2"]
    z = _z(field)
    return (_mat(field, [(z, z), (p1, p2)]), Matrix.zero(field, 2))


def _cee_f(field, pr):
    p1, p2 = pr["p1"], pr["p2"]
    z = _z(field)
    return (Matrix.zero(field, 2), _mat(field, [(z, z), (p1, p2)]))


def _cee_g(field, pr):
    p1 = pr["p1"]
    return (Matrix.zero(field, 2), Matrix.identity(field, 2).scale(p1))


def _cee_h(field, pr):
    p1 = pr["p1"]
    return (Matrix.identity(field, 2).scale(p1), Matrix.zero(field, 2))


CEE_FAMILIES = (
    _fam("cee-a", "symmetric_rbs", ("p1", "p2", "p3"), (_nonzero("p1"),), _cee_a),
    _fam("cee-b", "symmetric_rbs", ("p1", "p2"), (), _cee_b),
    _fam("cee-c", "symmetric_rbs", ("p1", "p2"), (_nonzero("p1"),), _cee_c),
    _fam("cee-d", "symmetric_rbs", ("p1", "p2"), (_distinct("p2", "p1"),), _cee_d),
    _fam("cee-e", "symmetric_rbs", ("p1", "p2"), (_nonzero("p2"),), _cee_e),
    _fam("cee-f", "symmetric_rbs", ("p1", "p2"), (_nonzero("p2"),), _cee_f),
    _fam("cee-g", "symmetric_rbs", ("p1",), (_nonzero("p1"),), _cee_g),
    _fam("cee-h", "symmetric_rbs", ("p1",), (_nonzero("p1"),), _cee_h),
)


def _cuu_a(field, pr):
    q1, q2, q3 = pr["q1"], pr["q2"], pr["q3"]
    frac = q2 * q3 / q1
    return (_mat(field, [(q1, q2), (q3, frac)]),
            _mat(field, [(-frac, q2), (q3, -q1)]))


def _cuu_b(field, pr):
    q1, q2 = pr["q1"], pr["q2"]
    z = _z(field)
    return (_mat(field, [(z, z), (q1, q2)]),
            _mat(field, [(-q2, z), (q1, z)]))


def _cuu_c(field, pr):
    q1, q2 = pr["q1"], pr["q2"]
    z = _z(field)
    return (_mat(field, [(z, q1), (z, q2)]),
            _mat(field, [(-q2, q1), (z, z)]))


def _cuu_d(field, pr):
    q1, q2 = pr["q1"], pr["q2"]
    z = _z(field)
    return (_mat(field, [(z, z), (q1, z)]),
            _mat(field, [(z, z), (q2, z)]))


def _cuu_e(field, pr):
    q1, q2 = pr["q1"], pr["q2"]
    z = _z(field)
    return (Matrix.zero(field, 2), _mat(field, [(q1, z), (q2, z)]))


def _cuu_f(field, pr):
    q1, q2 = pr["q1"], pr["q2"]
    z = _z(field)
    return (_mat(field, [(q1, z), (q2, z)]), Matrix.zero(field, 2))


def _cuu_g(field, pr):
    q1 = pr["q1"]
    return (Matrix.zero(field, 2), Matrix.identity(field, 2).scale(q1))


def _cuu_h(field, pr):
    q1 = pr["q1"]
    return (Matrix.identity(field, 2).scale(q1), Matrix.zero(field, 2))


CUU_FAMILIES = (
    _fam("cuu-a", "symmetric_rb_cosystem", ("q1", "q2", "q3"), (_nonzero("q1"),), _cuu_a),
    _fam("cuu-b", "symmetric_rb_cosystem", ("q1", "q2"), (), _cuu_b),
    _fam("cuu-c", "symmetric_rb_cosystem", ("q1", "q2"), (_nonzero("q1"),), _cuu_c),
    _fam("cuu-d", "symmetric_rb_cosystem", ("q1", "q2"), (_distinct("q2", "q1"),), _cuu_d),
    _fam("cuu-e", "symmetric_rb_cosystem", ("q1", "q2"), (_nonzero("q1"),), _cuu_e),
    _fam("cuu-f", "symmetric_rb_cosystem", ("q1", "q2"), (_nonzero("q1"),), _cuu_f),
    _fam("cuu-g", "symmetric_rb_cosystem", ("q1",), (_nonzero("q1"),), _cuu_g),
    _fam("cuu-h", "symmetric_rb_cosystem", ("q1",), (_nonzero("q1"),), _cuu_h),
)

FAMILIES = {fam.name: fam for fam in CEE_FAMILIES + CUU_FAMILIES}


# bundled workspace source for the command-line interface
WORKSPACE_SOURCE = """\
# bundled dim-2 fixtures
field Q

algebra A dim 2 basis e f
mul f e = 1 e
mul f f = 1 f

coalgebra C dim 2 basis e f
comul e = -1 (e,e)
comul f = -1 (e,f)

liealgebra L dim 2 basis e f
mul e f = -1 e
mul f e = 1 e

liecoalgebra D dim 2 basis e f
comul f = 1 (f,e) + -1 (e,f)

map R on A
R e = 1 e + -1 f
R f = 2 e + -2 f

map S on A
S e = 2 e + -1 f
S f = 2 e + -1 f

map Q on A
Q e = -2 e + 1 f
Q f = -2 e + 1 f

map T on A
T e = -1 e + 1 f
T f = -2 e + 2 f

map R0 on A
R0 f = 1 e

map S0 on A
S0 f = 2 e

tensor r2 on A = 1 (e,f) + -1 (f,e)
"""
