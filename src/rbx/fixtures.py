"""Bundled regression fixtures: the dim-2 carrier structures, their map
pairs, and the sixteen parametric map families used by `verify-paper`.

Everything is field-parametrized so the same data drives exact rational
verification and finite-field searches.
"""

from __future__ import annotations

from functools import partial

from .kernel import Matrix, Rationals, Tensor2
from .structures import Algebra, Coalgebra, LieAlgebra, LieCoalgebra
from .bisystems import ASIBisystem
from .search import Constraint, FamilySpec


def _mat(field, cols):
    return Matrix.from_cols(field, cols)


def fix_a(field=None):
    """dim-2 algebra: e.e = 0, e.f = 0, f.e = e, f.f = f."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(z, z), (z, z)], [(o, z), (z, o)]]
    return Algebra(field, table, basis=("e", "f"))


def fix_c(field=None):
    """dim-2 coalgebra: D(e) = -e(x)e, D(f) = -e(x)f."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(-o, z), (z, z)], [(z, -o), (z, z)]]
    return Coalgebra(field, table, basis=("e", "f"))


def fix_lie(field=None):
    """dim-2 bracket: [e, f] = -e, [f, e] = e."""
    field = field or Rationals()
    z, o = field.zero(), field.one()
    table = [[(z, z), (-o, z)], [(o, z), (z, z)]]
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


def gc_maps(field=None):
    """R(e) = q1 e - q1 f, R(f) = q2 e - q2 f;
    S(e) = S(f) = q2 e - q1 f, with q1 = 1 and q2 = 2."""
    field = field or Rationals()
    R = _mat(field, [(1, -1), (2, -2)])
    S = _mat(field, [(2, -1), (2, -1)])
    return R, S


def emm_maps(field=None):
    """The negated pair (-S, -R) of `gc_maps`."""
    R, S = gc_maps(field)
    return -S, -R


def fix_bi(field=None) -> ASIBisystem:
    """The bundled bisystem: carrier pair with maps (R, S, -S, -R), where
    (R, S) is `gc_maps`."""
    field = field or Rationals()
    R, S = gc_maps(field)
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


def _fam(name, kind, params, constraints, shape):
    """A family whose maps are `shape(field, *values)`, with the values of
    `params` in order."""
    params = tuple(params)
    return FamilySpec(name, kind, params, tuple(constraints), partial(_build, shape, params))


def _build(shape, params, field, pr):
    return shape(field, *(pr[name] for name in params))


# the map shapes; the cee and cuu families of one letter share a shape,
# except e and f

def _shape_a(field, x, y, w):
    frac = y * w / x
    return (_mat(field, [(x, y), (w, frac)]),
            _mat(field, [(-frac, y), (w, -x)]))


def _shape_b(field, x, y):
    z = field.zero()
    return (_mat(field, [(z, z), (x, y)]),
            _mat(field, [(-y, z), (x, z)]))


def _shape_c(field, x, y):
    z = field.zero()
    return (_mat(field, [(z, x), (z, y)]),
            _mat(field, [(-y, x), (z, z)]))


def _shape_d(field, x, y):
    z = field.zero()
    return (_mat(field, [(z, z), (x, z)]),
            _mat(field, [(z, z), (y, z)]))


def _shape_g(field, x):
    return (Matrix.zero(field, 2), Matrix.identity(field, 2).scale(x))


def _shape_h(field, x):
    return (Matrix.identity(field, 2).scale(x), Matrix.zero(field, 2))


def _cee_e(field, x, y):
    z = field.zero()
    return (_mat(field, [(z, z), (x, y)]), Matrix.zero(field, 2))


def _cee_f(field, x, y):
    z = field.zero()
    return (Matrix.zero(field, 2), _mat(field, [(z, z), (x, y)]))


def _cuu_e(field, x, y):
    z = field.zero()
    return (Matrix.zero(field, 2), _mat(field, [(x, z), (y, z)]))


def _cuu_f(field, x, y):
    z = field.zero()
    return (_mat(field, [(x, z), (y, z)]), Matrix.zero(field, 2))


CEE_FAMILIES = (
    _fam("cee-a", "symmetric_rbs", ("p1", "p2", "p3"), (_nonzero("p1"),), _shape_a),
    _fam("cee-b", "symmetric_rbs", ("p1", "p2"), (), _shape_b),
    _fam("cee-c", "symmetric_rbs", ("p1", "p2"), (_nonzero("p1"),), _shape_c),
    _fam("cee-d", "symmetric_rbs", ("p1", "p2"), (_distinct("p2", "p1"),), _shape_d),
    _fam("cee-e", "symmetric_rbs", ("p1", "p2"), (_nonzero("p2"),), _cee_e),
    _fam("cee-f", "symmetric_rbs", ("p1", "p2"), (_nonzero("p2"),), _cee_f),
    _fam("cee-g", "symmetric_rbs", ("p1",), (_nonzero("p1"),), _shape_g),
    _fam("cee-h", "symmetric_rbs", ("p1",), (_nonzero("p1"),), _shape_h),
)

CUU_FAMILIES = (
    _fam("cuu-a", "symmetric_rb_cosystem", ("q1", "q2", "q3"), (_nonzero("q1"),), _shape_a),
    _fam("cuu-b", "symmetric_rb_cosystem", ("q1", "q2"), (), _shape_b),
    _fam("cuu-c", "symmetric_rb_cosystem", ("q1", "q2"), (_nonzero("q1"),), _shape_c),
    _fam("cuu-d", "symmetric_rb_cosystem", ("q1", "q2"), (_distinct("q2", "q1"),), _shape_d),
    _fam("cuu-e", "symmetric_rb_cosystem", ("q1", "q2"), (_nonzero("q1"),), _cuu_e),
    _fam("cuu-f", "symmetric_rb_cosystem", ("q1", "q2"), (_nonzero("q1"),), _cuu_f),
    _fam("cuu-g", "symmetric_rb_cosystem", ("q1",), (_nonzero("q1"),), _shape_g),
    _fam("cuu-h", "symmetric_rb_cosystem", ("q1",), (_nonzero("q1"),), _shape_h),
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
