"""Per-layer metrics: micro-loops over public kernel and structure calls,
the fast-predicate loop, shard timings, and the traced pass's spans.

Every traced run emits every name in `PER_LAYER`; a layer the workload does
not reach reads 0.  Every time is scaled to the reference speed
(`speed.py`): loops and shards by their own probes, spans by the factor
between the traced pass's scaled and raw time.
"""

from __future__ import annotations

import statistics
import timeit
from dataclasses import replace
from fractions import Fraction

from rbx import fixtures as fx
from rbx import kernel, search
from rbx.kernel import Matrix, PrimeField, Tensor2
from rbx.search import SearchJob

import spans
import speed
import workloads

KINDS = list(workloads.SEARCH_HITS)

# The eight identity tags with the most evaluate time on `paper`, slowest first.
SLOW_TAGS = ["de:cv#2", "lie-bialgebra:cocycle", "de:cv#1", "lie:jacobi",
             "eq:cu#1", "eq:cu#2", "associativity", "eq:cu1#1"]

MICRO = [  # (name, statement, calls per timing: about 50 ms each); timed with timeit
    ("kernel.gf_mul_ns", "a * b", 80_000),
    ("kernel.gf_add_ns", "a + b", 80_000),
    ("kernel.q_mul_ns", "x * y", 30_000),
    ("kernel.q_add_ns", "x + y", 30_000),
    ("kernel.matmul_gf_us", "M @ N", 5_000),
    ("kernel.matmul_q_us", "P @ P", 1_000),
    ("kernel.apply_gf_us", "M.apply(v)", 6_000),
    ("kernel.leg_apply_gf_us", "leg_apply(t, M, 1)", 2_000),
    ("kernel.matrix_new_gf_us", "Matrix(F3, 2, 2, ents)", 25_000),
    ("structures.mul_gf_us", "A.mul(v, w)", 5_000),
    ("structures.delta_gf_us", "C.delta(v)", 2_000),
]


def tag_metric(tag):
    """Metric name for an identity tag (':' and '#' are not allowed in names)."""
    return "identities.tag." + tag.replace(":", "_").replace("#", "_") + ".s"


def _per_layer():
    out = [(name, name.rsplit("_", 1)[1], "lower") for name, _, _ in MICRO]
    out += [("kernel.matrix_init.calls", "count", "lower"),
            ("kernel.matmul.calls", "count", "lower"),
            ("kernel.leg_apply.calls", "count", "lower"),
            ("identities.tuples", "count", "lower"),
            ("identities.evaluate.self_s", "s", "lower")]
    out += [(tag_metric(t), "s", "lower") for t in SLOW_TAGS]
    for name, _, _ in spans.SPANS:
        if name in ("identities.evaluate", "search.enumerate_hits"):
            continue
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [("search.enumerate_hits.self_s", "s", "lower"),
            ("search.fast_predicate.cand_per_s", "1/s", "higher"),
            ("search.useful_ratio", "ratio", "higher")]
    for kind in KINDS:
        out += [(f"search.{kind}.s", "s", "lower"), (f"search.{kind}.hits", "count", "higher")]
    out += [("search.shard_s.max", "s", "lower"), ("search.shard_s.min", "s", "lower"),
            ("search.shard_redundant_s", "s", "lower"), ("search.pool_s", "s", "lower"),
            ("regression.scans_s", "s", "lower"), ("regression.fixtures_s", "s", "lower"),
            ("regression.families_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return out


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def micro_loops():
    """Median per-call time of each public kernel and structure call."""
    F3 = PrimeField(3)
    QQ = kernel.Rationals()
    env = {
        "F3": F3, "Matrix": Matrix, "leg_apply": kernel.leg_apply,
        "a": F3.of(2), "b": F3.of(1),
        "x": Fraction(-37, 41), "y": Fraction(53, 19),
        "M": Matrix(F3, 2, 2, [F3.of(c) for c in (1, 2, 2, 1)]),
        "N": Matrix(F3, 2, 2, [F3.of(c) for c in (0, 1, 2, 2)]),
        "P": Matrix(QQ, 2, 2, [Fraction(3, 7), Fraction(-5, 2), Fraction(1, 9), 4]),
        "v": (F3.of(1), F3.of(2)), "w": (F3.of(2), F3.of(2)),
        "t": Tensor2(F3, 2, [F3.of(c) for c in (1, 2, 0, 1)]),
        "ents": [F3.of(c) for c in (1, 2, 2, 1)],
        "A": fx.fix_a(F3), "C": fx.fix_c(F3),
    }
    out = {}
    for name, stmt, number in MICRO:
        scale = {"ns": 1e9, "us": 1e6}[UNITS[name]]
        timer = timeit.Timer(stmt, globals=env)
        runs = speed.timed([lambda: timer.timeit(number)] * 5)
        out[name] = statistics.median(runs) / number * scale
    return out


def fast_predicate_rate():
    """Candidates per second of the int predicate alone: every GF(3)
    `symmetric_rbs` candidate, decoded before the clock starts."""
    F3 = PrimeField(3)
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    pred = search.fast_predicate(job)
    cands = [search.decode_candidate(job, i) for i in range(search.search_space(job))]

    def scan():
        for c in cands:
            pred(c)
    return len(cands) / statistics.median(speed.timed([scan] * 3))


def shard_times(job, shards):
    """Each shard's `enumerate_hits` run in this process, and the serial job."""
    jobs = [replace(job, shard=(k, shards)) for k in range(shards)] + [job]
    *times, serial = speed.timed([lambda j=j: search.enumerate_hits(j) for j in jobs])
    return times, serial


def layer_metrics(work, untraced, traced, tracer):
    """Assemble every per-layer metric from one untraced pass, one traced
    pass of the same workload, and the workload-independent loops."""
    m = dict.fromkeys(UNITS, 0.0)
    m.update(micro_loops())
    m["search.fast_predicate.cand_per_s"] = fast_predicate_rate()

    calls, self_s = tracer.calls, tracer.self_s
    scale = traced.wall_s / traced.raw_s  # span seconds are raw
    for name in ("kernel.matrix_init.calls", "kernel.matmul.calls",
                 "kernel.leg_apply.calls"):
        m[name] = calls[name]
    m["identities.tuples"] = calls["identities.evaluate"]
    m["identities.evaluate.self_s"] = self_s["identities.evaluate"] * scale
    for tag in SLOW_TAGS:
        m[tag_metric(tag)] = tracer.tag_s[tag] * scale
    for name, _, _ in spans.SPANS:
        if f"{name}.calls" in m:
            m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name] * scale

    facts = untraced.facts
    for kind, seconds in facts.get("kind_s", {}).items():
        m[f"search.{kind}.s"] = seconds
        m[f"search.{kind}.hits"] = facts["kind_hits"][kind]
    if "hits" in facts:
        m["search.useful_ratio"] = facts["hits"] / untraced.candidates
    for group, seconds in facts.get("regression", {}).items():
        m[f"regression.{group}_s"] = seconds

    if isinstance(work, workloads.SearchSharded):
        times, serial = shard_times(work.job, workloads.SHARDS)
        m["search.shard_s.max"] = max(times)
        m["search.shard_s.min"] = min(times)
        m["search.shard_redundant_s"] = sum(times) - serial
        m["search.pool_s"] = untraced.wall_s - sum(times) / work.processes

    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    m["trace.overhead_frac"] = m["trace.overhead_s"] / untraced.wall_s
    return m
