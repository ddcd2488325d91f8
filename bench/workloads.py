"""The four benchmark workloads and their correctness gates.

Each workload is built by `make(name, seed)`, which is the set-up that
`setup_s` times, and then run as repeated passes.  A pass is a list of
operations (a regression row, a search job, a sampled rational point), each
with its latency and whether its output was correct.  Latencies are scaled
to the reference machine speed (see `speed.py`).  Only rbx's public
functions are called; nothing in the package is changed.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# rbx functions are called through their modules, so that the traced run's
# wrappers in those namespaces see the benchmark's own calls.
from rbx import fixtures as fx
from rbx import regression, search, structures, systems
from rbx.kernel import PrimeField, Rationals
from rbx.search import SearchJob, search_space
from rbx.systems import CoOperatorSystem, OperatorSystem

import speed

# Frozen outputs of the seed code.  A change to any of them is a wrong result.
PAPER_ROWS = 29
SEARCH_HITS = {
    "rb_weight": 134, "rbs": 179, "symmetric_rbs": 55, "averaging": 131,
    "nijenhuis": 625, "lie_rbs": 135, "symmetric_rb_cosystem": 55,
    "coaveraging": 131, "rb_coalgebra_weight": 134, "lie_rb_cosystem": 135,
    "adjoint_admissible": 9, "bisystem": 191, "aybe": 131,
    "symmetric_ybpair": 41,
}
# sha256 of the comma-joined hit indices, first 16 hex digits
SEARCH_DIGESTS = {
    "rb_weight": "4fd27f3d483c02da", "rbs": "bf9763f0bc262acc",
    "symmetric_rbs": "eef5bc41eb138ca4", "averaging": "18e1f18a2ad2c67f",
    "nijenhuis": "e8aac8605deffbc2", "lie_rbs": "77924f6f368be8ce",
    "symmetric_rb_cosystem": "b4799724281d99ec",
    "coaveraging": "2ff99dd4ba928658", "rb_coalgebra_weight": "4fd27f3d483c02da",
    "lie_rb_cosystem": "6331775592b1c967", "adjoint_admissible": "d0dfe117692247d1",
    "bisystem": "92e86418553afbf6", "aybe": "5f0239c1a28921f3",
    "symmetric_ybpair": "b53c25c75bb68855",
}
# verify_paper row-name prefix -> regression layer metric
ROW_GROUPS = {"scan": "scans", "fixture": "fixtures", "family": "families"}
SHARDS = 8
# Rational points per family: 2,048 in all, so that 20 lie beyond p99.  A
# `cee` point costs about five times a `cuu` point; with equal shares the
# median would fall in the gap between the two and jump from seed to seed,
# so `cee` points are the larger share and the median is a `cee` point.
POINTS = {"symmetric_rbs": 160, "symmetric_rb_cosystem": 96}


@dataclass
class Op:
    seconds: float
    ok: bool
    error: str = ""
    start: float = 0.0  # perf_counter at its start


@dataclass
class Pass:
    """One timed pass: its operations, the latency of each of its checks
    (the same checks, in the same order, in every pass), the candidates it
    decided, and facts the traced run turns into layer metrics.  `wall_s`
    is the sum of the scaled operation times, `raw_s` that of the raw ones
    less the probes inside them, and `speed` the machine's speed during it
    (`speed.Sampler.speed`)."""
    wall_s: float
    ops: list
    latencies: list
    candidates: int
    facts: dict = field(default_factory=dict)
    raw_s: float = 0.0
    speed: float = 1.0


def hit_digest(hits) -> str:
    return hashlib.sha256(",".join(str(h.index) for h in hits).encode()).hexdigest()[:16]


def _timed(fn, sampler):
    """Run one operation; a crash is a failed operation, not a crashed run."""
    t0 = sampler.begin()
    try:
        ok, error = fn(), ""
    except Exception as exc:  # reported as a failed operation
        ok, error = False, f"{type(exc).__name__}: {exc}"
    return Op(sampler.end() - t0, bool(ok), error, t0)


def run_ops(checks, own=True):
    """Run the checks in order, each timed and scaled to the reference speed
    (`own` as for `speed.Sampler`).  Returns the operations and a pass with
    everything but latencies, candidates and facts filled in."""
    with speed.Sampler(own) as sampler:
        ops = [_timed(fn, sampler) for fn in checks]
    raw_s = 0.0
    for op in ops:
        end = op.start + op.seconds
        raw_s += sampler.busy(op.start, end)
        op.seconds = sampler.scaled(op.start, end)
    return ops, Pass(sum(op.seconds for op in ops), ops, [], 0,
                     raw_s=raw_s, speed=sampler.speed())


def _row_check(name, thunk):
    def run():
        rep = thunk()
        if rep.status == "fail":
            violations = [v.identity for v in rep.all_violations()][:8]
            raise AssertionError(f"{name}: {violations}")
        return True
    return run


class Paper:
    """The rows of `regression.verify_paper()`: the boxed GF(2) reference
    path.  The rows come from `regression.paper_rows()`, as in
    `verify_paper`, and are run and timed one by one, so that each is
    scaled to the machine speed of its own moment."""

    layout = {"shards": 1, "processes": 1}

    def __init__(self, seed):
        self.seed = seed  # the rows have fixed inputs; the seed is recorded only
        self.rows = regression.paper_rows()

    def run_pass(self):
        ops, p = run_ops([_row_check(name, thunk) for name, thunk in self.rows])
        if len(self.rows) != PAPER_ROWS:
            ops.append(Op(0.0, False, f"{len(self.rows)} rows, expected {PAPER_ROWS}"))
        groups = dict.fromkeys(ROW_GROUPS.values(), 0.0)
        for (name, _), op in zip(self.rows, ops):
            group = ROW_GROUPS.get(name.split(":", 1)[0])
            if group:
                groups[group] += op.seconds
        # The check is the whole suite: its rows differ in cost by three
        # orders of magnitude, so a median row would say little.
        p.latencies, p.candidates = [p.wall_s], len(self.rows)
        p.facts = {"regression": groups}
        return p


def search_jobs():
    """One serial job per search kind on the bundled dimension-2 carriers."""
    F3, F5, F11 = PrimeField(3), PrimeField(5), PrimeField(11)
    R, S = fx.fix_rs(F3)
    return [
        SearchJob(F11, fx.fix_a(F11), "rb_weight", weight=F11.one()),
        SearchJob(F3, fx.fix_a(F3), "rbs"),
        SearchJob(F3, fx.fix_a(F3), "symmetric_rbs"),
        SearchJob(F11, fx.fix_a(F11), "averaging"),
        SearchJob(F5, fx.fix_a(F5), "nijenhuis"),
        SearchJob(F3, fx.fix_lie(F3), "lie_rbs"),
        SearchJob(F3, fx.fix_c(F3), "symmetric_rb_cosystem"),
        SearchJob(F11, fx.fix_c(F11), "coaveraging"),
        SearchJob(F11, fx.fix_c(F11), "rb_coalgebra_weight", weight=F11.one()),
        SearchJob(F3, fx.fix_delta(F3), "lie_rb_cosystem"),
        SearchJob(F3, fx.fix_a(F3), "adjoint_admissible", fixed={"R": R, "S": S}),
        bisystem_job(),
        SearchJob(F11, fx.fix_a(F11), "aybe"),
        SearchJob(F3, fx.fix_a(F3), "symmetric_ybpair"),
    ]


def bisystem_job():
    F3 = PrimeField(3)
    return SearchJob(F3, fx.fix_a(F3), "bisystem", cocarrier=fx.fix_c(F3))


def _search_check(job, shards, processes, hit_counts):
    def run():
        hits = search.run_search(job, shards=shards, processes=processes)
        hit_counts[job.kind] = len(hits)
        return (len(hits) == SEARCH_HITS[job.kind]
                and hit_digest(hits) == SEARCH_DIGESTS[job.kind])
    return run


class Search:
    """Every search kind, serially: the int fast predicates plus re-verification."""

    layout = {"shards": 1, "processes": 1}

    def __init__(self, seed):
        self.seed = seed  # the jobs are fixed; the seed is recorded only
        self.jobs = search_jobs()
        self.space = sum(search_space(j) for j in self.jobs)

    def run_pass(self):
        hit_counts = {}
        ops, p = run_ops([_search_check(j, 1, 1, hit_counts) for j in self.jobs])
        p.latencies, p.candidates = [op.seconds for op in ops], self.space
        p.facts = {"hits": sum(hit_counts.values()), "kind_hits": hit_counts,
                   "kind_s": {j.kind: op.seconds for j, op in zip(self.jobs, ops)}}
        return p


class SearchSharded:
    """The GF(3) bisystem scan in the acceptance-gate layout: 8 shards on at
    most `os.cpu_count()` worker processes."""

    def __init__(self, seed):
        self.seed = seed  # the job is fixed; the seed is recorded only
        self.job = bisystem_job()
        self.processes = min(SHARDS, os.cpu_count() or 1)
        self.layout = {"shards": SHARDS, "processes": self.processes}

    def run_pass(self):
        hit_counts = {}
        # The shards run in worker processes while this one waits.
        ops, p = run_ops([_search_check(self.job, SHARDS, self.processes, hit_counts)],
                         own=False)
        p.latencies, p.candidates = [p.wall_s], search_space(self.job)
        p.facts = {"hits": sum(hit_counts.values())}
        return p


def sample_params(fam, rng):
    """A rational point of one family: numerators and denominators in
    +-[1, 97], redrawn until every constraint of the family holds."""
    while True:
        params = {name: Fraction(rng.randint(1, 97) * rng.choice((1, -1)),
                                 rng.randint(1, 97) * rng.choice((1, -1)))
                  for name in fam.params}
        if all(c.holds(params) for c in fam.constraints):
            return params


def _check_cee(A, R, S):
    if not systems.check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)).passed:
        return False
    for pair in systems.split_dendriform(A, R, S):
        if not structures.check_axioms("dendriform", pair).passed:
            return False
    star, starp, bullet, bulletp = systems.derived_products(A, R, S)
    return (structures.check_axioms("associative", star).passed
            and structures.check_axioms("associative", starp).passed
            and structures.check_axioms("prelie", bullet).passed
            and structures.check_axioms("prelie", bulletp).passed)


def _check_cuu(C, Q, T):
    return systems.check_cosystem("symmetric_rb_cosystem", CoOperatorSystem(C, Q, T)).passed


class Rational:
    """Seeded exact rational points of all 16 families, with the derived
    structures of each `cee` point: the `Fraction` path.  Every pass checks
    the same points."""

    layout = {"shards": 1, "processes": 1}

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        QQ = Rationals()
        self.A, self.C = fx.fix_a(QQ), fx.fix_c(QQ)
        self.points = [(fam.kind, *fam.build(QQ, sample_params(fam, rng)))
                       for fam in fx.CEE_FAMILIES + fx.CUU_FAMILIES
                       for _ in range(POINTS[fam.kind])]

    def _check(self, kind, m1, m2):
        if kind == "symmetric_rbs":
            return _check_cee(self.A, m1, m2)
        return _check_cuu(self.C, m1, m2)

    def run_pass(self):
        ops, p = run_ops([lambda pt=pt: self._check(*pt) for pt in self.points])
        p.latencies, p.candidates = [op.seconds for op in ops], len(self.points)
        return p


WORKLOADS = {"paper": Paper, "search": Search, "search-sharded": SearchSharded,
             "rational": Rational}


def make(name, seed):
    """Build a workload and its inputs: the set-up that `setup_s` times."""
    return WORKLOADS[name](seed)
