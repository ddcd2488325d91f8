"""Exhaustive finite-field enumeration and sampled-exact family checks.

The enumerator evaluates candidates with int-encoded GF(p) arithmetic
compiled from the carrier's structure constants; every emitted hit is
re-verified through the reference checkers, so the fast path and the
catalog-driven path must agree on every hit.  Work is partitioned across
shards by the prefix of the flattened entry vector (the first component's
index), which makes shards embarrassingly parallel and the merged result
independent of the shard count.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .errors import BudgetError, FieldError, PayloadError
from .kernel import Matrix, Tensor2, same_field
from .report import make_report
from .structures import check_axioms
from .systems import (CoOperatorSystem, OperatorSystem, check_cosystem,
                      check_operator_system, check_symmetric_ybpair)

DEFAULT_BUDGET = 2 ** 32


# ---------------------------------------------------------------------------
# jobs and hits

@dataclass
class SearchJob:
    field: object                  # PrimeField
    carrier: object                # Algebra | LieAlgebra | Coalgebra | LieCoalgebra
    kind: str
    cocarrier: object = None       # coalgebra side for quadruple kinds
    weight: object = None
    fixed: dict | None = None      # e.g. {"R": Matrix, "S": Matrix}
    antisymmetric: bool = False
    shard: tuple = (0, 1)
    budget: int | None = None


@dataclass(frozen=True)
class Hit:
    index: int
    parts: tuple


# kind -> (component spec, carrier flavor)
#   components: "map" entries are dim^2 matrix digits, "tensor" likewise
_KINDS = {
    "rb_weight": (("map",), "algebra"),
    "rbs": (("map", "map"), "algebra"),
    "symmetric_rbs": (("map", "map"), "algebra"),
    "averaging": (("map",), "algebra"),
    "nijenhuis": (("map",), "algebra"),
    "lie_rbs": (("map", "map"), "algebra"),
    "symmetric_rb_cosystem": (("map", "map"), "coalgebra"),
    "coaveraging": (("map",), "coalgebra"),
    "rb_coalgebra_weight": (("map",), "coalgebra"),
    "lie_rb_cosystem": (("map", "map"), "coalgebra"),
    "adjoint_admissible": (("map", "map"), "algebra"),
    "bisystem": (("map", "map", "map", "map"), "pair"),
    "aybe": (("tensor",), "algebra"),
    "symmetric_ybpair": (("tensor", "tensor"), "algebra"),
}


def _budget(job):
    if job.budget is not None:
        return job.budget
    env = os.environ.get("RBX_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def search_space(job: SearchJob) -> int:
    comps, _ = _spec(job)
    d = job.carrier.dim
    return job.field.modulus ** (len(comps) * d * d)


def _spec(job):
    if job.kind not in _KINDS:
        raise PayloadError(f"unknown search kind {job.kind!r}")
    if not job.field.modulus:
        raise FieldError(f"search needs a prime field, got {job.field!r}")
    for s in (job.carrier, job.cocarrier):
        if s is not None:
            same_field(job.field, s.field)
    return _KINDS[job.kind]


# ---------------------------------------------------------------------------
# int-encoded carrier data and vector ops

def _vec_ops(mt, p):
    d = len(mt)

    def mul(x, y):
        out = [0] * d
        for i in range(d):
            xi = x[i]
            if xi:
                row = mt[i]
                for j in range(d):
                    yj = y[j]
                    if yj:
                        c = xi * yj
                        cell = row[j]
                        for k in range(d):
                            t = cell[k]
                            if t:
                                out[k] += c * t
        return tuple(v % p for v in out)

    def app(cols, v):
        out = [0] * d
        for j in range(d):
            vj = v[j]
            if vj:
                col = cols[j]
                for k in range(d):
                    out[k] += vj * col[k]
        return tuple(v % p for v in out)

    return mul, app


def _basis(d):
    return [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]


def _vadd(p, *vs):
    return tuple(sum(t) % p for t in zip(*vs))


# tensor grids as nested tuples grid[a][b]

def _tleg1(g, cols, p):
    d = len(g)
    return tuple(tuple(sum(cols[u][a] * g[u][b] for u in range(d)) % p
                       for b in range(d)) for a in range(d))


def _tleg2(g, cols, p):
    d = len(g)
    return tuple(tuple(sum(cols[v][b] * g[a][v] for v in range(d)) % p
                       for b in range(d)) for a in range(d))


def _tcomb(ct, v, p):
    d = len(ct)
    return tuple(tuple(sum(v[i] * ct[i][a][b] for i in range(d)) % p
                       for b in range(d)) for a in range(d))


def _tadd(p, *gs):
    d = len(gs[0])
    return tuple(tuple(sum(g[a][b] for g in gs) % p for b in range(d)) for a in range(d))


def _tscale(g, c, p):
    return tuple(tuple(c * x % p for x in row) for row in g)


def _placement(mt, p, x, px, y, py):
    d = len(mt)
    shared = (set(px) & set(py)).pop()
    xfree = px[1] if px[0] == shared else px[0]
    yfree = py[1] if py[0] == shared else py[0]
    out = [0] * d ** 3
    for u in range(d):
        for v in range(d):
            cx = x[u][v]
            if not cx:
                continue
            xs = u if px[0] == shared else v
            xf = v if px[0] == shared else u
            for w in range(d):
                for t in range(d):
                    cy = y[w][t]
                    if not cy:
                        continue
                    ys = w if py[0] == shared else t
                    yf = t if py[0] == shared else w
                    cell = mt[xs][ys]
                    c = cx * cy
                    for k in range(d):
                        pk = cell[k]
                        if pk:
                            pos = [0, 0, 0]
                            pos[shared - 1] = k
                            pos[xfree - 1] = xf
                            pos[yfree - 1] = yf
                            out[(pos[0] * d + pos[1]) * d + pos[2]] += c * pk
    return tuple(v % p for v in out)


# ---------------------------------------------------------------------------
# fast predicates

def _pred_algebra(job):
    p = job.field.modulus
    mt = job.carrier.table
    d = len(mt)
    mul, app = _vec_ops(mt, p)
    bas = _basis(d)
    kind = job.kind

    if kind in ("symmetric_rbs", "rbs", "lie_rbs"):
        symmetric = kind != "rbs"

        def ok(parts):
            R, S = parts
            for i in range(d):
                Ri, Si, bi = R[i], S[i], bas[i]
                for j in range(d):
                    Rj, Sj, bj = R[j], S[j], bas[j]
                    arg_rs = _vadd(p, mul(Ri, bj), mul(bi, Sj))
                    lhs_r = mul(Ri, Rj)
                    lhs_s = mul(Si, Sj)
                    if lhs_r != app(R, arg_rs) or lhs_s != app(S, arg_rs):
                        return False
                    if symmetric:
                        arg_sr = _vadd(p, mul(Si, bj), mul(bi, Rj))
                        if lhs_r != app(R, arg_sr) or lhs_s != app(S, arg_sr):
                            return False
            return True
        return ok

    if kind == "rb_weight":
        lam = job.field.coerce(job.weight)

        def ok(parts):
            (R,) = parts
            for i in range(d):
                for j in range(d):
                    arg = _vadd(p, mul(R[i], bas[j]), mul(bas[i], R[j]),
                                tuple(lam * c % p for c in mt[i][j]))
                    if mul(R[i], R[j]) != app(R, arg):
                        return False
            return True
        return ok

    if kind == "averaging":
        def ok(parts):
            (R,) = parts
            for i in range(d):
                for j in range(d):
                    lhs = mul(R[i], R[j])
                    if lhs != app(R, mul(R[i], bas[j])):
                        return False
                    if lhs != app(R, mul(bas[i], R[j])):
                        return False
            return True
        return ok

    if kind == "nijenhuis":
        def ok(parts):
            (N,) = parts
            for i in range(d):
                for j in range(d):
                    lhs = _vadd(p, mul(N[i], N[j]), app(N, app(N, mt[i][j])))
                    rhs = app(N, _vadd(p, mul(N[i], bas[j]), mul(bas[i], N[j])))
                    if lhs != rhs:
                        return False
            return True
        return ok

    if kind == "adjoint_admissible":
        R = _cols_of(job.fixed["R"])
        S = _cols_of(job.fixed["S"])
        ck = _pred_ck(mt, p)

        def ok(parts):
            Q, T = parts
            return ck(R, S, Q, T)
        return ok

    if kind == "aybe":
        def ok(parts):
            (grid,) = parts
            if job.antisymmetric and not _grid_antisym(grid, p):
                return False
            return _aybe_zero(mt, p, grid)
        return ok

    if kind == "symmetric_ybpair":
        def ok(parts):
            rg, sg = parts
            return _ybpair_zero(mt, p, rg, sg)
        return ok

    raise PayloadError(f"kind {job.kind!r} is not an algebra-side search")


def _cols_of(m: Matrix):
    return tuple(m.col(j) for j in range(m.cols))


def _grid_antisym(grid, p):
    d = len(grid)
    return all(grid[a][b] == (-grid[b][a]) % p for a in range(d) for b in range(d))


def _aybe_zero(mt, p, g):
    t = _placement(mt, p, g, (1, 2), g, (1, 3))
    u = _placement(mt, p, g, (1, 3), g, (2, 3))
    v = _placement(mt, p, g, (2, 3), g, (1, 2))
    return all((a + b - c) % p == 0 for a, b, c in zip(t, u, v))


def _ybpair_zero(mt, p, r, s):
    def zero3(*signed):
        total = [0] * len(signed[0][1])
        for sign, vec in signed:
            for k, x in enumerate(vec):
                total[k] += sign * x
        return all(v % p == 0 for v in total)

    pp = lambda x, px, y, py: _placement(mt, p, x, px, y, py)
    return (zero3((1, pp(r, (1, 2), r, (2, 3))), (-1, pp(r, (1, 3), r, (1, 2))),
                  (-1, pp(s, (2, 3), r, (1, 3))))
            and zero3((1, pp(r, (1, 2), r, (2, 3))), (-1, pp(r, (1, 3), s, (1, 2))),
                      (-1, pp(r, (2, 3), r, (1, 3))))
            and zero3((1, pp(s, (1, 2), s, (2, 3))), (-1, pp(s, (1, 3), r, (1, 2))),
                      (-1, pp(s, (2, 3), s, (1, 3))))
            and zero3((1, pp(s, (1, 2), s, (2, 3))), (-1, pp(s, (1, 3), s, (1, 2))),
                      (-1, pp(r, (2, 3), s, (1, 3)))))


def _pred_ck(mt, p):
    d = len(mt)
    mul, app = _vec_ops(mt, p)
    bas = _basis(d)

    def ok(R, S, Q, T):
        for i in range(d):
            bi = bas[i]
            for j in range(d):
                bj = bas[j]
                q_rab = app(Q, mul(R[i], bj))
                if q_rab != _vadd(p, app(Q, mul(bi, Q[j])), mul(S[i], Q[j])):
                    return False
                if q_rab != _vadd(p, mul(R[i], Q[j]), app(T, mul(bi, Q[j]))):
                    return False
                q_arb = app(Q, mul(bi, R[j]))
                if q_arb != _vadd(p, app(Q, mul(Q[i], bj)), mul(Q[i], S[j])):
                    return False
                if q_arb != _vadd(p, mul(Q[i], R[j]), app(T, mul(Q[i], bj))):
                    return False
                t_sab = app(T, mul(S[i], bj))
                if t_sab != _vadd(p, app(Q, mul(bi, T[j])), mul(S[i], T[j])):
                    return False
                if t_sab != _vadd(p, app(T, mul(bi, T[j])), mul(R[i], T[j])):
                    return False
                t_asb = app(T, mul(bi, S[j]))
                if t_asb != _vadd(p, app(Q, mul(T[i], bj)), mul(T[i], S[j])):
                    return False
                if t_asb != _vadd(p, app(T, mul(T[i], bj)), mul(T[i], R[j])):
                    return False
        return True
    return ok


def _pred_cosystem(job):
    p = job.field.modulus
    C = job.carrier
    ct = C.table
    d = len(ct)
    kind = job.kind

    if kind in ("symmetric_rb_cosystem", "lie_rb_cosystem"):
        symmetric = kind == "symmetric_rb_cosystem"

        def ok(parts):
            Q, T = parts
            for i in range(d):
                di = ct[i]
                dq = _tcomb(ct, Q[i], p)
                dt = _tcomb(ct, T[i], p)
                lq = _tleg2(_tleg1(di, Q, p), Q, p)
                lt = _tleg2(_tleg1(di, T, p), T, p)
                if lq != _tadd(p, _tleg1(dq, Q, p), _tleg2(dq, T, p)):
                    return False
                if lt != _tadd(p, _tleg1(dt, Q, p), _tleg2(dt, T, p)):
                    return False
                if symmetric:
                    if lq != _tadd(p, _tleg1(dq, T, p), _tleg2(dq, Q, p)):
                        return False
                    if lt != _tadd(p, _tleg1(dt, T, p), _tleg2(dt, Q, p)):
                        return False
            return True
        return ok

    if kind == "coaveraging":
        def ok(parts):
            (Q,) = parts
            for i in range(d):
                lhs = _tleg2(_tleg1(ct[i], Q, p), Q, p)
                dq = _tcomb(ct, Q[i], p)
                if lhs != _tleg1(dq, Q, p) or lhs != _tleg2(dq, Q, p):
                    return False
            return True
        return ok

    if kind == "rb_coalgebra_weight":
        lam = job.field.coerce(job.weight)

        def ok(parts):
            (Q,) = parts
            for i in range(d):
                lhs = _tleg2(_tleg1(ct[i], Q, p), Q, p)
                dq = _tcomb(ct, Q[i], p)
                rhs = _tadd(p, _tleg1(dq, Q, p), _tleg2(dq, Q, p), _tscale(dq, lam, p))
                if lhs != rhs:
                    return False
            return True
        return ok

    raise PayloadError(f"kind {job.kind!r} is not a coalgebra-side search")


def _pred_ck5(mt, ct, p):
    d = len(ct)

    def ok(R, S, Q, T):
        for i in range(d):
            dx = ct[i]
            drx = _tcomb(ct, R[i], p)
            dsx = _tcomb(ct, S[i], p)
            lhs5 = _tleg1(drx, Q, p)
            if lhs5 != _tadd(p, _tleg2(drx, R, p), _tleg2(_tleg1(dx, T, p), R, p)):
                return False
            if lhs5 != _tadd(p, _tleg2(dsx, R, p), _tleg2(_tleg1(dx, Q, p), R, p)):
                return False
            lhs6 = _tleg2(drx, Q, p)
            if lhs6 != _tadd(p, _tleg1(dsx, R, p), _tleg2(_tleg1(dx, R, p), Q, p)):
                return False
            if lhs6 != _tadd(p, _tleg1(drx, R, p), _tleg2(_tleg1(dx, R, p), T, p)):
                return False
            lhs7 = _tleg1(dsx, T, p)
            if lhs7 != _tadd(p, _tleg2(drx, S, p), _tleg2(_tleg1(dx, T, p), S, p)):
                return False
            if lhs7 != _tadd(p, _tleg2(dsx, S, p), _tleg2(_tleg1(dx, Q, p), S, p)):
                return False
            lhs8 = _tleg2(dsx, T, p)
            if lhs8 != _tadd(p, _tleg1(dsx, S, p), _tleg2(_tleg1(dx, S, p), Q, p)):
                return False
            if lhs8 != _tadd(p, _tleg1(drx, S, p), _tleg2(_tleg1(dx, S, p), T, p)):
                return False
        return True
    return ok


# ---------------------------------------------------------------------------
# candidate encoding

def _entries_to_cols(entries, d):
    return tuple(tuple(entries[i * d + j] for i in range(d)) for j in range(d))


def _entries_to_grid(entries, d):
    return tuple(tuple(entries[a * d + b] for b in range(d)) for a in range(d))


def _component_values(p, d, flavor):
    for entries in itertools.product(range(p), repeat=d * d):
        if flavor == "map":
            yield _entries_to_cols(entries, d)
        else:
            yield _entries_to_grid(entries, d)


def decode_candidate(job: SearchJob, index: int):
    """Candidate at one lex position, as int-encoded components."""
    comps, _ = _spec(job)
    p = job.field.modulus
    d = job.carrier.dim
    width = d * d
    base = p ** width
    digits = []
    rest = index
    for _ in comps:
        digits.append(rest % base)
        rest //= base
    digits.reverse()
    parts = []
    for flavor, m in zip(comps, digits):
        entries = []
        for _ in range(width):
            entries.append(m % p)
            m //= p
        entries.reverse()
        parts.append(_entries_to_cols(tuple(entries), d) if flavor == "map"
                     else _entries_to_grid(tuple(entries), d))
    return tuple(parts)


def _to_objects(job: SearchJob, parts):
    comps, _ = _spec(job)
    field = job.field
    d = job.carrier.dim
    out = []
    for flavor, part in zip(comps, parts):
        if flavor == "map":
            out.append(Matrix.from_cols(field, part))
        else:
            out.append(Tensor2(field, d, [x for row in part for x in row]))
    return tuple(out)


def fast_predicate(job: SearchJob) -> Callable:
    """The compiled int-encoded predicate (exposed for oracle-agreement tests)."""
    _, flavor = _spec(job)
    if job.kind == "bisystem":
        p = job.field.modulus
        mt = job.carrier.table
        ct = job.cocarrier.table
        srbs = _pred_algebra(replace(job, kind="symmetric_rbs"))
        cos = _pred_cosystem(SearchJob(job.field, job.cocarrier,
                                       "symmetric_rb_cosystem"))
        ck = _pred_ck(mt, p)
        ck5 = _pred_ck5(mt, ct, p)
        asi_ok = check_axioms("asi_bialgebra", (job.carrier, job.cocarrier)).passed

        def ok(parts):
            R, S, Q, T = parts
            return (asi_ok and srbs((R, S)) and cos((Q, T))
                    and ck(R, S, Q, T) and ck5(R, S, Q, T))
        return ok
    if flavor == "coalgebra":
        return _pred_cosystem(job)
    return _pred_algebra(job)


def verify_hit(job: SearchJob, parts) -> bool:
    """Reference-checker verdict on one candidate (the slow second opinion)."""
    objs = _to_objects(job, parts)
    kind = job.kind
    if kind == "bisystem":
        from .bisystems import ASIBisystem, check_bisystem
        R, S, Q, T = objs
        return check_bisystem(
            ASIBisystem(job.carrier, job.cocarrier, R, S, Q, T)).passed
    if kind == "adjoint_admissible":
        from .representations import adjoint_admissible_report
        Q, T = objs
        return adjoint_admissible_report(job.carrier, job.fixed["R"],
                                         job.fixed["S"], Q, T).passed
    if kind == "aybe":
        from .yangbaxter import check_aybe
        (r,) = objs
        if job.antisymmetric and not r.is_antisymmetric():
            return False
        return check_aybe(job.carrier, r).passed
    if kind == "symmetric_ybpair":
        r, s = objs
        return check_symmetric_ybpair(job.carrier, r, s).passed
    if kind in ("symmetric_rb_cosystem", "lie_rb_cosystem"):
        Q, T = objs
        return check_cosystem(kind, CoOperatorSystem(job.carrier, Q, T)).passed
    if kind in ("coaveraging", "rb_coalgebra_weight"):
        (Q,) = objs
        return check_cosystem(kind, CoOperatorSystem(
            job.carrier, Q, weight=job.weight)).passed
    if kind in ("rbs", "symmetric_rbs", "lie_rbs"):
        R, S = objs
        return check_operator_system(kind, OperatorSystem(job.carrier, R, S)).passed
    (R,) = objs
    return check_operator_system(
        kind, OperatorSystem(job.carrier, R, weight=job.weight)).passed


def enumerate_hits(job: SearchJob) -> list[Hit]:
    """Run one shard; hits come out in lexicographic candidate order and are
    re-verified through the reference checkers before being emitted."""
    comps, _ = _spec(job)
    p = job.field.modulus
    d = job.carrier.dim
    width = d * d
    base = p ** width
    space = base ** len(comps)
    if space > _budget(job):
        raise BudgetError(f"search space {space} exceeds budget {_budget(job)}")
    s, K = job.shard
    if not (0 <= s < K):
        raise PayloadError(f"bad shard {job.shard}")
    if K > base:
        raise PayloadError(f"at most {base} shards for this candidate space")

    hits: list[Hit] = []

    def emit(index, parts):
        if not verify_hit(job, parts):
            raise RuntimeError(
                f"fast predicate and reference checker disagree at candidate {index}")
        hits.append(Hit(index, _to_objects(job, parts)))

    if job.kind == "bisystem":
        mt = job.carrier.table
        ct = job.cocarrier.table
        if not check_axioms("asi_bialgebra", (job.carrier, job.cocarrier)).passed:
            return hits
        srbs = _pred_algebra(replace(job, kind="symmetric_rbs"))
        cosys = _pred_cosystem(SearchJob(job.field, job.cocarrier,
                                         "symmetric_rb_cosystem"))
        ck = _pred_ck(mt, p)
        ck5 = _pred_ck5(mt, ct, p)
        qt_hits = []
        for mq, Q in enumerate(_component_values(p, d, "map")):
            for mtidx, T in enumerate(_component_values(p, d, "map")):
                if cosys((Q, T)):
                    qt_hits.append((mq * base + mtidx, Q, T))
        for m0, R in enumerate(_component_values(p, d, "map")):
            if m0 % K != s:
                continue
            for m1, S in enumerate(_component_values(p, d, "map")):
                if not srbs((R, S)):
                    continue
                head = (m0 * base + m1) * base * base
                for qt_index, Q, T in qt_hits:
                    if ck(R, S, Q, T) and ck5(R, S, Q, T):
                        emit(head + qt_index, (R, S, Q, T))
        return hits

    pred = fast_predicate(job)
    flavors = comps
    if len(comps) == 1:
        for m0, c0 in enumerate(_component_values(p, d, flavors[0])):
            if m0 % K != s:
                continue
            if pred((c0,)):
                emit(m0, (c0,))
        return hits
    if len(comps) == 2:
        rest = list(_component_values(p, d, flavors[1]))
        for m0, c0 in enumerate(_component_values(p, d, flavors[0])):
            if m0 % K != s:
                continue
            for m1, c1 in enumerate(rest):
                if pred((c0, c1)):
                    emit(m0 * base + m1, (c0, c1))
        return hits
    raise PayloadError(f"unsupported component count for kind {job.kind!r}")


def run_search(job: SearchJob, shards: int = 1, processes: int | None = None) -> list[Hit]:
    """All shards, merged in candidate order; shards may run in parallel on
    at most `os.cpu_count()` worker processes."""
    if shards < 1:
        raise PayloadError(f"need at least one shard, got {shards}")
    jobs = [replace(job, shard=(k, shards)) for k in range(shards)]
    if processes:
        processes = min(processes, shards, os.cpu_count() or 1)
    if processes and processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(enumerate_hits, jobs))
    else:
        chunks = [enumerate_hits(j) for j in jobs]
    merged = [h for chunk in chunks for h in chunk]
    merged.sort(key=lambda h: h.index)
    return merged


# ---------------------------------------------------------------------------
# parametric families

@dataclass(frozen=True)
class Constraint:
    name: str
    holds: Callable
    denominator: bool = False  # guards a division inside the entry formulas


@dataclass(frozen=True)
class FamilySpec:
    name: str
    kind: str                  # "symmetric_rbs" | "symmetric_rb_cosystem"
    params: tuple
    constraints: tuple
    build: Callable            # (field, {param: scalar}) -> (Matrix, Matrix)


def _sample_point(fam, rng):
    for _ in range(1000):
        params = {}
        for name in fam.params:
            num = rng.randint(1, 97) * rng.choice((1, -1))
            den = rng.randint(1, 97) * rng.choice((1, -1))
            params[name] = Fraction(num, den)
        if all(c.holds(params) for c in fam.constraints):
            return params
    raise BudgetError(f"could not sample parameters for family {fam.name}")


def verify_family(fam: FamilySpec, carrier, samples: int, seed: int):
    """Exact check of a parametric family at `samples` random rational
    points; the seed and every sampled point are recorded."""
    if samples < 1:
        raise PayloadError("need at least one sample")
    rng = random.Random(seed)
    violations = []
    points = []
    for _ in range(samples):
        params = _sample_point(fam, rng)
        m1, m2 = fam.build(carrier.field, params)
        if fam.kind == "symmetric_rbs":
            rep = check_operator_system("symmetric_rbs",
                                        OperatorSystem(carrier, m1, m2))
        else:
            rep = check_cosystem("symmetric_rb_cosystem",
                                 CoOperatorSystem(carrier, m1, m2))
        points.append({"params": {k: str(v) for k, v in params.items()},
                       "passed": rep.passed})
        violations.extend(rep.violations)
    return make_report(f"family:{fam.name}", violations,
                       provenance={"seed": seed, "points": points})


def family_members_mod_p(fam: FamilySpec, field) -> set:
    """All map pairs the family realizes over GF(p), constraints respected."""
    out = set()
    values = field.elements()
    for combo in itertools.product(values, repeat=len(fam.params)):
        params = dict(zip(fam.params, combo))
        if not all(c.holds(params) for c in fam.constraints):
            continue
        out.add(fam.build(field, params))
    return out


def cross_tabulate(hits, families, field):
    """Which families (for some parameter choice mod p) contain each hit."""
    tables = {fam.name: family_members_mod_p(fam, field) for fam in families}
    rows = []
    unclassified = []
    for hit in hits:
        pair = tuple(hit.parts)
        names = [name for name, members in tables.items() if pair in members]
        rows.append((hit, tuple(names)))
        if not names:
            unclassified.append(hit)
    return rows, unclassified
