"""Exhaustive finite-field enumeration and sampled-exact family checks.

Each search kind's predicate is built from the identity catalog
(`identities.predicate`) over the tag tuple that the kind's checker runs,
with one context per job that each candidate's components are bound into;
it stops at the first nonzero residual.  Every emitted hit is re-verified
through the public checkers, which run the same catalog entries in full, so
the independent second opinion on a hit set is the brute-force oracles of
the test suite.  Work is partitioned across shards by the index of the
first component, which makes shards embarrassingly parallel and the merged
result independent of the shard count.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .bisystems import ASIBisystem, check_bisystem
from .errors import BudgetError, FieldError, PayloadError
from .identities import Ctx, predicate
from .kernel import Matrix, Tensor2, same_field
from .report import make_report
from .representations import _CK5_TAGS, _CK_TAGS, adjoint_admissible_report
from .structures import _Multiplicative, check_axioms
from .systems import (_ALG_KINDS, _COALG_KINDS, _YBPAIR_TAGS, CoOperatorSystem,
                      OperatorSystem, check_cosystem, check_operator_system,
                      check_symmetric_ybpair, cosystem_identities,
                      operator_system_identities)
from .yangbaxter import _AYBE_TAGS, check_aybe

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


# kind -> its components: "map" is a dim x dim matrix, "tensor" a 2-tensor
_KINDS = {
    "rb_weight": ("map",),
    "rbs": ("map", "map"),
    "symmetric_rbs": ("map", "map"),
    "averaging": ("map",),
    "nijenhuis": ("map",),
    "lie_rbs": ("map", "map"),
    "symmetric_rb_cosystem": ("map", "map"),
    "coaveraging": ("map",),
    "rb_coalgebra_weight": ("map",),
    "lie_rb_cosystem": ("map", "map"),
    "adjoint_admissible": ("map", "map"),
    "bisystem": ("map", "map", "map", "map"),
    "aybe": ("tensor",),
    "symmetric_ybpair": ("tensor", "tensor"),
}


def _budget(job):
    if job.budget is not None:
        return job.budget
    env = os.environ.get("RBX_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def search_space(job: SearchJob) -> int:
    comps = _spec(job)
    d = job.carrier.dim
    return job.field.modulus ** (len(comps) * d * d)


def _spec(job):
    if job.kind not in _KINDS:
        raise PayloadError(f"unknown search kind {job.kind!r}")
    if not job.field.modulus:
        raise FieldError(f"search needs a prime field, got {job.field!r}")
    if job.kind == "bisystem" and job.cocarrier is None:
        raise PayloadError("kind 'bisystem' needs a cocarrier")
    for s in (job.carrier, job.cocarrier):
        if s is not None:
            same_field(job.field, s.field)
    return _KINDS[job.kind]


# ---------------------------------------------------------------------------
# predicates from the catalog

class _Bound:
    """One condition of a job: `holds(ctx)` over a checker's tag tuple, the
    job's one context, and the context names a candidate's components are
    bound to.  Calling it on a tuple of components binds them into a copy of
    the context, so the callable can be shared."""

    def __init__(self, names, tags, ctx):
        self.names = names
        self.ctx = ctx
        self.holds = predicate(tags, ctx)

    def __call__(self, parts) -> bool:
        ctx = object.__new__(Ctx)
        ctx.__dict__.update(self.ctx.__dict__)
        ctx.__dict__.update(zip(self.names, parts))
        return self.holds(ctx)


def _bind(job, kind, carrier) -> _Bound:
    """The condition of one kind on one carrier, every component zero until
    a candidate is bound; a bad payload raises the checker's own error."""
    zero = Matrix.zero(job.field, carrier.dim)
    if kind in _ALG_KINDS:
        two = _ALG_KINDS[kind][1] == 2
        tags, ctx = operator_system_identities(kind, OperatorSystem(
            carrier, zero, zero if two else None, weight=job.weight))
        return _Bound(("R", "S")[:1 + two], tags, ctx)
    if kind in _COALG_KINDS:
        two = _COALG_KINDS[kind][1] == 2
        tags, ctx = cosystem_identities(kind, CoOperatorSystem(
            carrier, zero, zero if two else None, weight=job.weight))
        return _Bound(("Q", "T")[:1 + two], tags, ctx)
    if kind == "adjoint_admissible":
        fixed = job.fixed or {}
        if not all(isinstance(fixed.get(k), Matrix) for k in ("R", "S")):
            raise PayloadError("kind 'adjoint_admissible' needs fixed maps R and S")
        R, S = fixed["R"], fixed["S"]
        OperatorSystem(carrier, R, S)  # the checker's shape rules
        ctx = Ctx({"A": carrier.basis}, A=carrier, R=R, S=S, Q=zero, T=zero)
        return _Bound(("Q", "T"), _CK_TAGS, ctx)
    if not isinstance(carrier, _Multiplicative):
        raise PayloadError(f"kind {kind!r} needs an algebra carrier")
    zero = Tensor2.zero(job.field, carrier.dim)
    if kind == "aybe":
        bound = _Bound(("r",), _AYBE_TAGS, Ctx({}, A=carrier, r=zero))
        if job.antisymmetric:
            aybe = bound.holds
            bound.holds = lambda ctx: ctx.r.is_antisymmetric() and aybe(ctx)
        return bound
    return _Bound(("r", "s"), _YBPAIR_TAGS, Ctx({}, A=carrier, r=zero, s=zero))


def _bisystem(job):
    """The factored bisystem condition: whether the carriers form an ASI
    bialgebra, the paired system (R, S), the paired cosystem (Q, T), and
    both admissibility tag tuples over all four maps."""
    A, C = job.carrier, job.cocarrier
    srbs = _bind(job, "symmetric_rbs", A)
    cosys = _bind(job, "symmetric_rb_cosystem", C)
    zero = Matrix.zero(job.field, A.dim)
    ASIBisystem(A, C, zero, zero, zero, zero)  # the checker's shape rules
    ck = _Bound(("R", "S", "Q", "T"), _CK_TAGS + _CK5_TAGS,
                Ctx({"A": A.basis}, A=A, C=C, R=zero, S=zero, Q=zero, T=zero))
    return check_axioms("asi_bialgebra", (A, C)).passed, srbs, cosys, ck


def fast_predicate(job: SearchJob) -> Callable:
    """The job's early-exit predicate on a tuple of components, as
    `decode_candidate` returns them (exposed for oracle-agreement tests)."""
    _spec(job)
    if job.kind == "bisystem":
        asi_ok, srbs, cosys, ck = _bisystem(job)
        return lambda parts: (asi_ok and srbs(parts[:2]) and cosys(parts[2:])
                              and ck(parts))
    return _bind(job, job.kind, job.carrier)


# ---------------------------------------------------------------------------
# candidates

def _component(job, flavor, entries):
    d = job.carrier.dim
    if flavor == "map":
        return Matrix._make(job.field, d, d, entries)
    return Tensor2._make(job.field, d, entries)


def _values(job):
    """Every value of one component in index order: the row-major entries
    run over GF(p)^(d*d) lexicographically."""
    comps = _spec(job)
    width = job.carrier.dim ** 2
    return (_component(job, comps[0], entries)
            for entries in itertools.product(range(job.field.modulus), repeat=width))


def decode_candidate(job: SearchJob, index: int):
    """Candidate at one index, as the components of `Hit.parts`: the index
    in base p, most significant digit first, is the row-major entries of
    each component in turn."""
    comps = _spec(job)
    p = job.field.modulus
    width = job.carrier.dim ** 2
    digits = []
    for _ in range(len(comps) * width):
        index, digit = divmod(index, p)
        digits.append(digit)
    digits.reverse()
    return tuple(_component(job, flavor, tuple(digits[k * width:(k + 1) * width]))
                 for k, flavor in enumerate(comps))


def _scan(bound, job, shard=(0, 1)):
    """(index, components) of each candidate of one shard that `bound`
    holds on, in index order; the shard fixes the first component's index
    modulo the shard count."""
    s, K = shard
    ctx, holds, names = bound.ctx, bound.holds, bound.names
    first = ((m0, c0) for m0, c0 in enumerate(_values(job)) if m0 % K == s)
    if len(names) == 1:
        for m0, c0 in first:
            setattr(ctx, names[0], c0)
            if holds(ctx):
                yield m0, (c0,)
        return
    rest = list(_values(job))
    base = len(rest)
    for m0, c0 in first:
        setattr(ctx, names[0], c0)
        for m1, c1 in enumerate(rest):
            setattr(ctx, names[1], c1)
            if holds(ctx):
                yield m0 * base + m1, (c0, c1)


def verify_hit(job: SearchJob, parts) -> bool:
    """Public-checker verdict on one candidate: the full report over the same
    catalog entries that the predicate stops early on."""
    kind = job.kind
    if kind == "bisystem":
        R, S, Q, T = parts
        return check_bisystem(
            ASIBisystem(job.carrier, job.cocarrier, R, S, Q, T)).passed
    if kind == "adjoint_admissible":
        Q, T = parts
        return adjoint_admissible_report(job.carrier, job.fixed["R"],
                                         job.fixed["S"], Q, T).passed
    if kind == "aybe":
        (r,) = parts
        if job.antisymmetric and not r.is_antisymmetric():
            return False
        return check_aybe(job.carrier, r).passed
    if kind == "symmetric_ybpair":
        r, s = parts
        return check_symmetric_ybpair(job.carrier, r, s).passed
    if kind in ("symmetric_rb_cosystem", "lie_rb_cosystem"):
        Q, T = parts
        return check_cosystem(kind, CoOperatorSystem(job.carrier, Q, T)).passed
    if kind in ("coaveraging", "rb_coalgebra_weight"):
        (Q,) = parts
        return check_cosystem(kind, CoOperatorSystem(
            job.carrier, Q, weight=job.weight)).passed
    if kind in ("rbs", "symmetric_rbs", "lie_rbs"):
        R, S = parts
        return check_operator_system(kind, OperatorSystem(job.carrier, R, S)).passed
    (R,) = parts
    return check_operator_system(
        kind, OperatorSystem(job.carrier, R, weight=job.weight)).passed


def enumerate_hits(job: SearchJob) -> list[Hit]:
    """Run one shard; hits come out in lexicographic candidate order and are
    re-verified through the reference checkers before being emitted."""
    comps = _spec(job)
    base = job.field.modulus ** (job.carrier.dim ** 2)
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
        hits.append(Hit(index, parts))

    if job.kind != "bisystem":
        for index, parts in _scan(fast_predicate(job), job, job.shard):
            emit(index, parts)
        return hits

    asi_ok, srbs, cosys, ck = _bisystem(job)
    if not asi_ok:
        return hits
    qt_hits = list(_scan(cosys, job))
    ctx, holds = ck.ctx, ck.holds
    for rs_index, (R, S) in _scan(srbs, job, job.shard):
        ctx.R, ctx.S = R, S
        for qt_index, (Q, T) in qt_hits:
            ctx.Q, ctx.T = Q, T
            if holds(ctx):
                emit(rs_index * base * base + qt_index, (R, S, Q, T))
    return hits


def run_search(job: SearchJob, shards: int = 1, processes: int | None = None) -> list[Hit]:
    """All shards, merged in candidate order; shards may run in parallel on
    at most `os.cpu_count()` worker processes (None runs them serially).  A
    bad job is refused before any shard starts."""
    if shards < 1:
        raise PayloadError(f"need at least one shard, got {shards}")
    if processes is not None and processes < 1:
        raise PayloadError(f"need at least one process, got {processes}")
    fast_predicate(job)
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
