"""Exhaustive finite-field enumeration and sampled-exact family checks.

Each search kind's predicate is built from the identity catalog
(`identities.predicate`) over the tag tuple that the kind's checker runs,
with one context per job that each candidate's components are bound into;
it stops at the first nonzero residual.  A one-component kind is compiled
once per scan: each step of a tag declared quadratic in the component
becomes GF(p) quadratic forms in its entries, interpolated from probes
through `evaluate`, and only the candidates on which every form vanishes
are run through the predicate (`_Quadratic`).  A two-component kind is not
enumerated over both components: for each value of the first, the tags
declared affine in the second give linear equations over GF(p), probed
through `evaluate`, and only their solution coset is run through the
predicate (`_Slice`).  Every emitted hit is re-verified through the public
checkers, which run the same catalog entries in full, so the independent
second opinion on a hit set is the brute-force oracles of the test suite.
Work is partitioned across shards by the index of the first component,
which makes shards embarrassingly parallel and the merged result
independent of the shard count; the cosystem table that every bisystem
shard pairs its hits with is scanned once, in `run_search`.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Callable

from .bisystems import ASIBisystem, check_bisystem
from .errors import BudgetError, FieldError, PayloadError
from .identities import CATALOG, Ctx, _stored, evaluate, predicate, steps
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
    """The job's candidate budget: `job.budget`, else `RBX_BUDGET`, else the
    default.  Anything but an integer of at least 1 is refused."""
    budget = job.budget
    if budget is None:
        env = os.environ.get("RBX_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise BudgetError(f"RBX_BUDGET is not an integer: {env!r}") from None
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise BudgetError(f"budget must be an integer of at least 1, got {budget!r}")
    return budget


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
        self.tags = tags
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
    each component in turn.  An index outside the search space is refused."""
    comps = _spec(job)
    space = search_space(job)
    if not 0 <= index < space:
        raise PayloadError(f"candidate index {index} is outside [0, {space})")
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
    modulo the shard count.  One component runs only over the candidates on
    which its compiled quadratic forms vanish (`_Quadratic`); for two, the
    second runs only over the solution coset that `_Slice` finds for each
    value of the first."""
    s, K = shard
    ctx, holds, names = bound.ctx, bound.holds, bound.names
    if len(names) == 1:
        flavor = _spec(job)[0]
        for m0, entries in _Quadratic(bound, job).survivors(shard):
            c0 = _component(job, flavor, entries)
            setattr(ctx, names[0], c0)
            if holds(ctx):
                yield m0, (c0,)
        return
    values = list(_values(job))
    coset = _Slice(bound, job, values).coset
    base = len(values)
    for m0 in range(s, base, K):
        c0 = values[m0]
        setattr(ctx, names[0], c0)
        for m1 in coset(ctx):
            c1 = values[m1]
            setattr(ctx, names[1], c1)
            if holds(ctx):
                yield m0 * base + m1, (c0, c1)


def _entries(tag, ctx, idx, field):
    """The stored entries of one step's residual: the probe through
    `evaluate` that `_Slice` and `_Quadratic` interpolate."""
    res = _stored(evaluate(tag, ctx, idx), field)
    return res if isinstance(res, tuple) else res.entries


class _Quadratic:
    """The one component Y of a one-component condition, compiled.

    With all other data fixed, each entry of a step of a tag declared
    quadratic in Y (`identities.identity(..., quadratic=...)`) is a form
    c + sum_k a_k y_k + sum_k b_k y_k^2 + sum_{k<l} q_kl y_k y_l in the
    entries y_k of Y.  Probing `evaluate` at Y = 0, +E_k, -E_k and
    E_k + E_l for the unit components E_k gives its coefficients: one row
    over the monomials (1, y_k, y_k^2, y_k y_l) per residual entry.  Over
    GF(2), where -E_k = E_k and y^2 = y, each square folds into its linear
    term, which is exact on GF(2)^n.  Every candidate is tested against the
    nonzero rows; the first that does not vanish rejects it and moves to
    the front, as a step does in `identities.predicate`.  The survivors are
    for the full predicate to decide; with no quadratic tag, that is every
    candidate."""

    def __init__(self, bound, job):
        name, ctx, field = bound.names[0], bound.ctx, job.field
        flavor = _spec(job)[0]
        self.p = p = field.modulus
        self.n = n = job.carrier.dim ** 2
        self.squares = p > 2
        self.pairs = pairs = tuple(itertools.combinations(range(n), 2))

        def at(*units):
            y = [0] * n
            for k, sign in units:
                y[k] = sign % p
            return _component(job, flavor, tuple(y))
        probes = ([at()] + [at((k, 1)) for k in range(n)]
                  + [at((k, -1)) for k in range(n) if self.squares]
                  + [at((k, 1), (l, 1)) for k, l in pairs])
        half = (p + 1) // 2
        self.steps = {}
        tags = [t for t in bound.tags if name in CATALOG[t].quadratic]
        for tag, idx in steps(tags, ctx):
            values = []
            for y in probes:
                setattr(ctx, name, y)
                values.append(_entries(tag, ctx, idx, field))
            rows = []
            for f in zip(*values):
                c, plus = f[0], f[1:n + 1]
                if self.squares:
                    minus = f[n + 1:2 * n + 1]
                    terms = ([(u - w) * half % p for u, w in zip(plus, minus)]
                             + [((u + w) * half - c) % p for u, w in zip(plus, minus)])
                else:
                    terms = [(u - c) % p for u in plus]
                cross = f[len(f) - len(pairs):]
                terms += [(x - plus[k] - plus[l] + c) % p
                          for (k, l), x in zip(pairs, cross)]
                rows.append((c, *terms))
            self.steps[tag, idx] = tuple(rows)

    def monomials(self, y):
        """(1, y_k, y_k^2, y_k y_l) at the entries y, the squares left out
        over GF(2)."""
        squares = [v * v for v in y] if self.squares else []
        return (1, *y, *squares, *[y[k] * y[l] for k, l in self.pairs])

    def survivors(self, shard):
        """(index, entries) of each candidate of the shard on which every
        row vanishes, in index order; candidates are streamed, not listed."""
        s, K = shard
        p, monomials = self.p, self.monomials
        order = tuple(row for rows in self.steps.values() for row in rows if any(row))
        candidates = itertools.islice(
            itertools.product(range(p), repeat=self.n), s, None, K)
        for index, y in zip(itertools.count(s, K), candidates):
            m = monomials(y)
            current = order
            for k, row in enumerate(current):
                if sum(map(mul, row, m)) % p:
                    if k:
                        order = (row,) + current[:k] + current[k + 1:]
                    break
            else:
                yield index, y


class _Slice:
    """The second component Y of a two-component condition, solved for.

    With the first component fixed, every tag declared affine in Y
    (`identities.identity(..., affine=...)`) has a residual f(Y) = f(0) +
    sum_k y_k (f(E_k) - f(0)) over the entries y_k of Y and the unit
    components E_k.  Probing `evaluate` at Y = 0 and at each E_k turns one
    (tag, basis tuple) step into linear equations over GF(p), which are
    reduced one at a time against the rows kept so far; the first
    inconsistent one shows that no Y can satisfy the condition.  Otherwise
    the candidates left are the coset of solutions, which the full
    predicate then decides.  With no affine tag the coset is every Y."""

    def __init__(self, bound, job, values):
        self.name = bound.names[1]
        self.values = values
        self.steps = steps(
            [t for t in bound.tags if self.name in CATALOG[t].affine], bound.ctx)
        self.field = job.field
        self.p = job.field.modulus
        self.n = n = job.carrier.dim ** 2
        # index of E_k is p^(n-1-k); index 0 is the zero component
        self.units = [values[self.p ** (n - 1 - k)] for k in range(n)]

    def _rows(self, ctx):
        """The reduced rows {pivot: (coefficients, rhs)} of every step, each
        row's pivot its last nonzero coefficient (scaled to 1); None when the
        equations are inconsistent."""
        p, name, zero = self.p, self.name, self.values[0]
        pivots = {}
        for tag, idx in self.steps:
            setattr(ctx, name, zero)
            b = _entries(tag, ctx, idx, self.field)
            cols = []
            for unit in self.units:
                setattr(ctx, name, unit)
                cols.append(_entries(tag, ctx, idx, self.field))
            for r, b_r in enumerate(b):
                row = [(col[r] - b_r) % p for col in cols]
                rhs = -b_r % p
                for k in range(self.n - 1, -1, -1):
                    a = row[k]
                    if a and k in pivots:
                        prow, prhs = pivots[k]
                        row = [(x - a * y) % p for x, y in zip(row, prow)]
                        rhs = (rhs - a * prhs) % p
                top = max((k for k, a in enumerate(row) if a), default=None)
                if top is None:
                    if rhs:
                        return None
                    continue
                inv = pow(row[top], -1, p)
                pivots[top] = ([x * inv % p for x in row], rhs * inv % p)
            if len(pivots) == self.n:
                break  # one candidate left: the full predicate decides it
        return pivots

    def coset(self, ctx):
        """Indices of the solutions Y, ascending.  Each pivot entry depends
        only on entries before it, so running the free entries in
        lexicographic order runs the solutions in index order."""
        pivots = self._rows(ctx)
        if pivots is None:
            return
        p, n = self.p, self.n
        free = [k for k in range(n) if k not in pivots]
        order = sorted(pivots.items())
        y = [0] * n
        for digits in itertools.product(range(p), repeat=len(free)):
            for k, v in zip(free, digits):
                y[k] = v
            for k, (row, rhs) in order:
                y[k] = (rhs - sum(row[j] * y[j] for j in range(k))) % p
            index = 0
            for v in y:
                index = index * p + v
            yield index


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


def _admit(job):
    """The number of values of one component, once the job's candidate space
    is within its budget and its shard is valid."""
    comps = _spec(job)
    base = job.field.modulus ** (job.carrier.dim ** 2)
    space, budget = base ** len(comps), _budget(job)
    if space > budget:
        raise BudgetError(f"search space {space} exceeds budget {budget}")
    s, K = job.shard
    if not (0 <= s < K):
        raise PayloadError(f"bad shard {job.shard}")
    if K > base:
        raise PayloadError(f"at most {base} shards for this candidate space")
    return base


def enumerate_hits(job: SearchJob, *, cosystems=None) -> list[Hit]:
    """Run one shard; hits come out in lexicographic candidate order and are
    re-verified through the reference checkers before being emitted.  A
    bisystem shard pairs its (R, S) hits with `cosystems`, the (index,
    (Q, T)) hits of the whole cosystem scan, and scans them itself if None."""
    base = _admit(job)
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
    if cosystems is None:
        cosystems = list(_scan(cosys, job))
    ctx, holds = ck.ctx, ck.holds
    for rs_index, (R, S) in _scan(srbs, job, job.shard):
        ctx.R, ctx.S = R, S
        for qt_index, (Q, T) in cosystems:
            ctx.Q, ctx.T = Q, T
            if holds(ctx):
                emit(rs_index * base * base + qt_index, (R, S, Q, T))
    return hits


def run_search(job: SearchJob, shards: int = 1, processes: int | None = None) -> list[Hit]:
    """All shards, merged in candidate order; shards may run in parallel on
    at most `os.cpu_count()` worker processes (None runs them serially).  A
    bad job is refused before any shard starts, and a bisystem's cosystem
    scan is run once here for all of its shards."""
    if shards < 1:
        raise PayloadError(f"need at least one shard, got {shards}")
    if processes is not None and processes < 1:
        raise PayloadError(f"need at least one process, got {processes}")
    fast_predicate(job)
    jobs = [replace(job, shard=(k, shards)) for k in range(shards)]
    for j in jobs:
        _admit(j)
    run = enumerate_hits
    if job.kind == "bisystem":
        asi_ok, _, cosys, _ = _bisystem(job)
        if asi_ok:
            run = partial(enumerate_hits, cosystems=list(_scan(cosys, job)))
    if processes:
        processes = min(processes, shards, os.cpu_count() or 1)
    if processes and processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(run, jobs))
    else:
        chunks = [run(j) for j in jobs]
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
