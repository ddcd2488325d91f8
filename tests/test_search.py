import collections
import contextlib
import hashlib
import random
import unittest.mock
from dataclasses import replace

import pytest

from rbx import fixtures as fx
from rbx import identities, regression, search
from rbx.errors import BudgetError, FieldError, PayloadError, ToolkitError
from rbx.identities import (CATALOG, Ctx, Identity, _stored, evaluate,
                            seeded_fault, steps)
from rbx.kernel import Matrix, PrimeField, vscale
from rbx.representations import _CK_TAGS
from rbx.search import (FamilySpec, SearchJob, cross_tabulate,
                        decode_candidate, enumerate_hits, fast_predicate,
                        run_search, search_space, verify_family, verify_hit)
from rbx.systems import (_ALG_KINDS, _COALG_KINDS, _YBPAIR_TAGS, OperatorSystem,
                         check_operator_system)
from rbx.yangbaxter import _AYBE_TAGS


from oracles import (adjoint_admissible_hits, aybe_hits, bisystem_hits,
                     coalgebra_hits, lie_rbs_hits, naive_hits,
                     symmetric_ybpair_hits)
from oracles import naive_count as _naive_count


@pytest.mark.parametrize("kind", ["rb_weight", "rbs", "symmetric_rbs",
                                  "averaging", "nijenhuis"])
def test_counts_match_naive_oracle_gf2(F2, kind):
    A = fx.fix_a(F2)
    job = SearchJob(F2, A, kind, weight=F2.zero() if kind == "rb_weight" else None)
    hits = enumerate_hits(job)
    assert len(hits) == _naive_count(2, kind)


def test_zero_algebra_every_pair_passes(F2):
    Z = fx.zero_algebra(F2, 2)
    hits = enumerate_hits(SearchJob(F2, Z, "symmetric_rbs"))
    assert len(hits) == 256


def test_gf3_weight_zero_count_matches_oracle(F3):
    A = fx.fix_a(F3)
    hits = enumerate_hits(SearchJob(F3, A, "rb_weight", weight=F3.zero()))
    assert len(hits) == _naive_count(3, "rb_weight", lam=0)


def test_shard_independence(F3):
    A = fx.fix_a(F3)
    job = SearchJob(F3, A, "symmetric_rbs")
    one = run_search(job, shards=1)
    eight = run_search(job, shards=8)
    assert [h.index for h in one] == [h.index for h in eight]
    assert [tuple(h.parts) for h in one] == [tuple(h.parts) for h in eight]


def test_oracle_agreement_on_subsample():
    # the compiled rows (fast_predicate) against the public checkers
    # (verify_hit), for every kind over GF(2) and GF(3): on 200 seeded random
    # candidates and on every hit
    for p in (2, 3):
        F = PrimeField(p)
        for kind, antisymmetric in [(k, False) for k in ALL_KINDS] + [("aybe", True)]:
            job = _job(kind, F, antisymmetric)
            pred, space = fast_predicate(job), search_space(job)
            rng = random.Random(f"{kind}-{p}-{antisymmetric}")
            cands = [decode_candidate(job, rng.randrange(space)) for _ in range(200)]
            hits = [h.parts for h in run_search(job)]
            assert hits and all(pred(parts) for parts in hits), (kind, p)
            for parts in cands + hits:
                assert pred(parts) == verify_hit(job, parts), (kind, p, parts)


def test_monotone_sanity(F2):
    A = fx.fix_a(F2)
    sym = {h.index for h in enumerate_hits(SearchJob(F2, A, "symmetric_rbs"))}
    plain = {h.index for h in enumerate_hits(SearchJob(F2, A, "rbs"))}
    assert sym <= plain
    singles = enumerate_hits(SearchJob(F2, A, "rb_weight", weight=F2.zero()))
    base = 2 ** 4
    for hit in singles:
        assert hit.index * base + hit.index in sym


def test_budget_enforced(F5):
    A = fx.fix_a(F5)
    job = SearchJob(F5, A, "bisystem", cocarrier=fx.fix_c(F5))
    assert search_space(job) == 5 ** 16
    with pytest.raises(BudgetError):
        enumerate_hits(job)


def test_budget_env_override(F3, monkeypatch):
    A = fx.fix_a(F3)
    job = SearchJob(F3, A, "symmetric_rbs")
    monkeypatch.setenv("RBX_BUDGET", "10")
    with pytest.raises(BudgetError):
        enumerate_hits(job)
    monkeypatch.setenv("RBX_BUDGET", str(2 ** 32))
    assert enumerate_hits(job)


@pytest.mark.parametrize("value", ["abc", "1e6", "-1", "0"])
def test_budget_env_must_be_a_positive_integer(F3, monkeypatch, value):
    monkeypatch.setenv("RBX_BUDGET", value)
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    for run in (run_search, enumerate_hits):
        with pytest.raises(BudgetError) as err:
            run(job)
        assert "exceeds" not in str(err.value)


@pytest.mark.parametrize("budget", [-1, 0, 2.5, "6561", True])
def test_job_budget_must_be_a_positive_integer(F3, budget):
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs", budget=budget)
    for run in (run_search, enumerate_hits):
        with pytest.raises(BudgetError, match="at least 1"):
            run(job)
    assert len(run_search(replace(job, budget=6561))) == 55


def test_hits_reverified(F2):
    # every emitted hit satisfies the reference checker
    A = fx.fix_a(F2)
    for hit in enumerate_hits(SearchJob(F2, A, "symmetric_rbs")):
        R, S = hit.parts
        assert check_operator_system("symmetric_rbs",
                                     OperatorSystem(A, R, S)).passed


# --- families -------------------------------------------------------------

def test_family_d_samples(QQ):
    rep = verify_family(fx.FAMILIES["cee-d"], fx.fix_a(QQ), 20, seed=42)
    assert rep.passed
    assert rep.provenance["seed"] == 42
    assert len(rep.provenance["points"]) == 20


def test_family_cuu_a_respects_denominator(QQ):
    fam = fx.FAMILIES["cuu-a"]
    rep = verify_family(fam, fx.fix_c(QQ), 20, seed=11)
    assert rep.passed
    for point in rep.provenance["points"]:
        assert point["params"]["q1"] != "0"


def test_perturbed_family_fails(QQ):
    # in the first family a sign flip in the second map breaks the paired
    # identity (the degenerate families absorb a global sign into their
    # parameters, so the perturbation targets a family that cannot)
    base = fx.FAMILIES["cee-a"]

    def perturbed(field, pr):
        R, S = base.build(field, pr)
        return R, -S

    fam = FamilySpec("cee-a-perturbed", base.kind, base.params,
                     base.constraints, perturbed)
    rep = verify_family(fam, fx.fix_a(QQ), 3, seed=1)
    assert not rep.passed
    assert rep.provenance["points"][0]["passed"] is False


def test_cross_tabulate_gf2(F2):
    A = fx.fix_a(F2)
    hits = enumerate_hits(SearchJob(F2, A, "symmetric_rbs"))
    rows, unclassified = cross_tabulate(hits, fx.CEE_FAMILIES, F2)
    assert len(rows) == len(hits)
    classified = [names for _, names in rows if names]
    assert classified
    # the zero pair realizes the unconstrained family
    zero_pair = (Matrix.zero(F2, 2), Matrix.zero(F2, 2))
    for hit, names in rows:
        if tuple(hit.parts) == zero_pair:
            assert "cee-b" in names
    # every exhaustive hit lies in one of the bundled families, on the
    # algebra side and on the coalgebra side, over the small prime fields
    for p, count in ((2, 18), (3, 55), (5, 213), (7, 523)):
        F = PrimeField(p)
        for kind, carrier, families in (
                ("symmetric_rbs", fx.fix_a(F), fx.CEE_FAMILIES),
                ("symmetric_rb_cosystem", fx.fix_c(F), fx.CUU_FAMILIES)):
            hits = run_search(SearchJob(F, carrier, kind))
            assert len(hits) == count, (p, kind)
            assert cross_tabulate(hits, families, F)[1] == [], (p, kind)


def test_cross_tabulate_empty(F2):
    rows, unclassified = cross_tabulate([], fx.CEE_FAMILIES, F2)
    assert rows == [] and unclassified == []


@pytest.mark.parametrize("shards", [0, -1])
def test_run_search_rejects_bad_shard_count(F3, shards):
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    with pytest.raises(ToolkitError):
        run_search(job, shards=shards)


def test_run_search_caps_processes_at_cpu_count(F3, monkeypatch):
    layouts = []

    class Pool:
        def __init__(self, max_workers):
            layouts.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", Pool)
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    hits = run_search(job, shards=8, processes=64)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
    assert run_search(job, shards=8, processes=64) == hits
    assert layouts == [2]  # one core: no pool at all
    assert len(hits) == 55


def test_search_job_field_must_match_carrier(F3, F5, QQ):
    with pytest.raises(FieldError):
        run_search(SearchJob(F5, fx.fix_a(F3), "symmetric_rbs"))
    with pytest.raises(FieldError):
        run_search(SearchJob(QQ, fx.fix_a(QQ), "symmetric_rbs"))


@pytest.mark.parametrize("processes", [0, -3])
def test_run_search_rejects_bad_process_count(F3, processes):
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    with pytest.raises(PayloadError, match="process"):
        run_search(job, processes=processes)
    assert len(run_search(job, processes=None)) == 55  # None runs serially


# --- a job is checked before it is enumerated -------------------------------

def test_search_job_payload_rules(F3):
    A, C, L = fx.fix_a(F3), fx.fix_c(F3), fx.fix_lie(F3)
    R, S = fx.fix_rs(F3)
    bad = [
        SearchJob(F3, A, "bisystem"),                      # no cocarrier
        SearchJob(F3, A, "adjoint_admissible"),            # no fixed maps
        SearchJob(F3, A, "adjoint_admissible", fixed={"R": R}),
        SearchJob(F3, A, "rb_weight"),                     # no weight
        SearchJob(F3, C, "rb_coalgebra_weight"),
        SearchJob(F3, A, "lie_rbs"),                       # associative carrier
        SearchJob(F3, C, "lie_rb_cosystem"),               # coassociative carrier
        SearchJob(F3, A, "symmetric_rb_cosystem"),         # algebra carrier
        SearchJob(F3, C, "symmetric_rbs"),                 # coalgebra carrier
        SearchJob(F3, C, "aybe"),
        SearchJob(F3, C, "symmetric_ybpair"),
        SearchJob(F3, A, "bisystem", cocarrier=A),
        SearchJob(F3, C, "bisystem", cocarrier=C),
    ]
    for job in bad:
        with pytest.raises(PayloadError):
            run_search(job)
        with pytest.raises(PayloadError):
            fast_predicate(job)
    assert len(run_search(SearchJob(F3, L, "lie_rbs"))) == 135


@pytest.mark.parametrize("case", ["no fixed maps", "no cocarrier", "wrong part count",
                                  "field mismatch"])
def test_verify_hit_refuses_a_malformed_job(F3, F5, case):
    A, (R, S) = fx.fix_a(F3), fx.fix_rs(F3)
    job, parts, error = {
        "no fixed maps": (SearchJob(F3, A, "adjoint_admissible"), (R, S), PayloadError),
        "no cocarrier": (SearchJob(F3, A, "bisystem"), (R, S, R, S), PayloadError),
        "wrong part count": (SearchJob(F3, A, "symmetric_rbs"), (R, S, R), PayloadError),
        "field mismatch": (SearchJob(F5, A, "symmetric_rbs"), (R, S), FieldError),
    }[case]
    with pytest.raises(error):
        verify_hit(job, parts)


# --- the benchmark's serial jobs, pinned ------------------------------------

def _bench_job(kind):
    F3, F5, F11 = PrimeField(3), PrimeField(5), PrimeField(11)
    R, S = fx.fix_rs(F3)
    return {
        "rb_weight": lambda: SearchJob(F11, fx.fix_a(F11), kind, weight=F11.one()),
        "rbs": lambda: SearchJob(F3, fx.fix_a(F3), kind),
        "symmetric_rbs": lambda: SearchJob(F3, fx.fix_a(F3), kind),
        "averaging": lambda: SearchJob(F11, fx.fix_a(F11), kind),
        "nijenhuis": lambda: SearchJob(F5, fx.fix_a(F5), kind),
        "lie_rbs": lambda: SearchJob(F3, fx.fix_lie(F3), kind),
        "symmetric_rb_cosystem": lambda: SearchJob(F3, fx.fix_c(F3), kind),
        "coaveraging": lambda: SearchJob(F11, fx.fix_c(F11), kind),
        "rb_coalgebra_weight": lambda: SearchJob(F11, fx.fix_c(F11), kind,
                                                 weight=F11.one()),
        "lie_rb_cosystem": lambda: SearchJob(F3, fx.fix_delta(F3), kind),
        "adjoint_admissible": lambda: SearchJob(F3, fx.fix_a(F3), kind,
                                                fixed={"R": R, "S": S}),
        "bisystem": lambda: SearchJob(F3, fx.fix_a(F3), kind, cocarrier=fx.fix_c(F3)),
        "aybe": lambda: SearchJob(F11, fx.fix_a(F11), kind),
        "symmetric_ybpair": lambda: SearchJob(F3, fx.fix_a(F3), kind),
    }[kind]()


# hit count and the first 16 hex digits of the sha256 of the comma-joined
# hit indices, as the hand-written int predicates found them
PINNED = {
    "rb_weight": (134, "4fd27f3d483c02da"), "rbs": (179, "bf9763f0bc262acc"),
    "symmetric_rbs": (55, "eef5bc41eb138ca4"), "averaging": (131, "18e1f18a2ad2c67f"),
    "nijenhuis": (625, "e8aac8605deffbc2"), "lie_rbs": (135, "77924f6f368be8ce"),
    "symmetric_rb_cosystem": (55, "b4799724281d99ec"),
    "coaveraging": (131, "2ff99dd4ba928658"),
    "rb_coalgebra_weight": (134, "4fd27f3d483c02da"),
    "lie_rb_cosystem": (135, "6331775592b1c967"),
    "adjoint_admissible": (9, "d0dfe117692247d1"),
    "bisystem": (191, "92e86418553afbf6"), "aybe": (131, "5f0239c1a28921f3"),
    "symmetric_ybpair": (41, "b53c25c75bb68855"),
}


def _digest(hits):
    text = ",".join(str(h.index) for h in hits)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_bench_job_hits_pinned(kind):
    hits = run_search(_bench_job(kind))
    assert (len(hits), _digest(hits)) == PINNED[kind]
    # hit parts are the components that decode_candidate returns
    for hit in hits[:3]:
        assert decode_candidate(_bench_job(kind), hit.index) == hit.parts


# --- seeded faults reach the search predicates ------------------------------

def _probe_job(kind):
    F3 = PrimeField(3)
    if kind in _ALG_KINDS:
        carrier = fx.fix_lie(F3) if kind == "lie_rbs" else fx.fix_a(F3)
        return SearchJob(F3, carrier, kind, weight=F3.one()), _ALG_KINDS[kind][0]
    if kind in _COALG_KINDS:
        carrier = fx.fix_delta(F3) if kind == "lie_rb_cosystem" else fx.fix_c(F3)
        return SearchJob(F3, carrier, kind, weight=F3.one()), _COALG_KINDS[kind][0]
    tags = _AYBE_TAGS if kind == "aybe" else _YBPAIR_TAGS
    return SearchJob(F3, fx.fix_a(F3), kind), tags


@pytest.mark.parametrize("kind", sorted(set(_ALG_KINDS) | set(_COALG_KINDS)
                                        | {"aybe", "symmetric_ybpair"}))
def test_seeded_fault_moves_search_hits(kind):
    job, tags = _probe_job(kind)
    base = [h.index for h in enumerate_hits(job)]
    for tag in tags:
        with seeded_fault(tag, 0):
            assert [h.index for h in enumerate_hits(job)] != base, tag
    assert [h.index for h in enumerate_hits(job)] == base


def test_adjoint_admissible_hits_survive_each_ck_fault(F3):
    # a probe that no single eq:ck* fault moves, so it is not one of the above
    R, S = fx.fix_rs(F3)
    job = SearchJob(F3, fx.fix_a(F3), "adjoint_admissible", fixed={"R": R, "S": S})
    base = [h.index for h in enumerate_hits(job)]
    assert len(base) == 9
    for tag in _CK_TAGS:
        with seeded_fault(tag, 0):
            assert [h.index for h in enumerate_hits(job)] == base, tag


# --- full-space agreement with the independent oracles ----------------------

@pytest.mark.parametrize("kind, p", [
    ("symmetric_rb_cosystem", 2), ("lie_rb_cosystem", 2),
    ("coaveraging", 2), ("rb_coalgebra_weight", 2),
    ("coaveraging", 3), ("rb_coalgebra_weight", 3),
    ("coaveraging", 5), ("rb_coalgebra_weight", 5)])
def test_coalgebra_hits_match_oracle(kind, p):
    F = PrimeField(p)
    C = fx.fix_delta(F) if kind == "lie_rb_cosystem" else fx.fix_c(F)
    hits = enumerate_hits(SearchJob(F, C, kind, weight=F.one()))
    assert {h.index for h in hits} == coalgebra_hits(C.table, p, kind, lam=1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("antisymmetric", [False, True])
def test_aybe_hits_match_oracle(p, antisymmetric):
    F = PrimeField(p)
    A = fx.fix_a(F)
    hits = enumerate_hits(SearchJob(F, A, "aybe", antisymmetric=antisymmetric))
    assert {h.index for h in hits} == aybe_hits(A.table, p, antisymmetric)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind, lam", [("rb_weight", 0), ("rb_weight", 1),
                                       ("averaging", 0), ("nijenhuis", 0)])
def test_algebra_map_hits_match_oracle(kind, lam, p):
    F = PrimeField(p)
    A = fx.fix_a(F)
    job = SearchJob(F, A, kind, weight=F.of(lam) if kind == "rb_weight" else None)
    hits = enumerate_hits(job)
    assert [h.index for h in hits] == sorted(naive_hits(p, kind, lam, A.table))


def test_symmetric_ybpair_hits_match_oracle(F2):
    A = fx.fix_a(F2)
    hits = enumerate_hits(SearchJob(F2, A, "symmetric_ybpair"))
    assert {h.index for h in hits} == symmetric_ybpair_hits(A.table, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_lie_rbs_hits_match_oracle(p):
    F = PrimeField(p)
    L = fx.fix_lie(F)
    hits = enumerate_hits(SearchJob(F, L, "lie_rbs"))
    assert [h.index for h in hits] == sorted(lie_rbs_hits(L.table, p))


def test_adjoint_admissible_hits_match_oracle(F3):
    A = fx.fix_a(F3)
    R, S = fx.fix_rs(F3)
    hits = enumerate_hits(SearchJob(F3, A, "adjoint_admissible", fixed={"R": R, "S": S}))

    def grid(m):
        return [list(m.row(a)) for a in range(m.rows)]
    want = adjoint_admissible_hits(A.table, grid(R), grid(S), 3)
    assert [h.index for h in hits] == sorted(want)
    assert len(want) == 9


# --- two-component kinds against brute force --------------------------------

TWO_COMPONENT = ["rbs", "symmetric_rbs", "lie_rbs", "symmetric_rb_cosystem",
                 "lie_rb_cosystem", "adjoint_admissible", "bisystem",
                 "symmetric_ybpair"]


def _two_job(kind, F):
    R, S = fx.fix_rs(F)
    carrier = {"lie_rbs": fx.fix_lie, "symmetric_rb_cosystem": fx.fix_c,
               "lie_rb_cosystem": fx.fix_delta}.get(kind, fx.fix_a)(F)
    return SearchJob(F, carrier, kind,
                     cocarrier=fx.fix_c(F) if kind == "bisystem" else None,
                     fixed={"R": R, "S": S} if kind == "adjoint_admissible" else None)


def _holds(job):
    """Early-exit form of the job's catalog condition, the reference for the
    compiled rows: each (tag, basis tuple) step of each group goes through
    `evaluate` with the candidate bound into the group's context, so seeded
    faults reach it, and the first nonzero residual rejects the candidate."""
    ok, groups = search._groups(job)
    todo = [(bound, steps(bound.tags, bound.ctx)) for bound in groups]

    def holds(parts):
        if not ok or job.kind == "aybe" and job.antisymmetric \
                and not parts[0].is_antisymmetric():
            return False
        for bound, group in todo:
            bound.bind(parts)
            for tag, idx in group:
                res = _stored(evaluate(tag, bound.ctx, idx), job.field)
                if any(res if isinstance(res, tuple) else res.entries):
                    return False
        return True
    return holds


def _brute(job):
    """Indices of every candidate that the job's catalog condition holds on.
    The bisystem condition is a conjunction that starts with the paired
    system on (R, S) and the paired cosystem on (Q, T), so only candidates
    made of those two factors' own brute-force hits can satisfy it."""
    pred = _holds(job)
    if job.kind != "bisystem":
        return [i for i in range(search_space(job)) if pred(decode_candidate(job, i))]
    rs = _brute(SearchJob(job.field, job.carrier, "symmetric_rbs"))
    qt = _brute(SearchJob(job.field, job.cocarrier, "symmetric_rb_cosystem"))
    base = job.field.modulus ** 8
    return [i for i in (m * base + n for m in rs for n in qt)
            if pred(decode_candidate(job, i))]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind, fault", [(k, None) for k in TWO_COMPONENT] + [
    (k, tag) for k in ("symmetric_rbs", "bisystem")
    for tag in ("eq:ea0#1", "eq:ea1#2")])
def test_slice_matches_brute_force(kind, fault, p):
    # eq:ea0#1 is affine in S, so the solver solves its rows for S's entries;
    # eq:ea1#2 is quadratic in S, so it tries their rows at every value
    job = _two_job(kind, PrimeField(p))
    with seeded_fault(fault, 0) if fault else contextlib.nullcontext():
        want = _brute(job)
        assert [h.index for h in enumerate_hits(job)] == want
        assert [h.index for h in run_search(job, shards=3)] == want


@pytest.mark.parametrize("shards", [1, 3])
def test_bisystem_hits_match_oracle(F2, shards):
    A, C = fx.fix_a(F2), fx.fix_c(F2)
    want = sorted(bisystem_hits(A.table, C.table, 2))
    assert len(want) == 48
    job = SearchJob(F2, A, "bisystem", cocarrier=C)
    assert [h.index for h in run_search(job, shards=shards)] == want


def test_bisystem_compiled_once(F2, monkeypatch):
    compiled = []
    compile_ = search._compile

    def spy(*args):
        compiled.append(args)
        return compile_(*args)

    monkeypatch.setattr(search, "_compile", spy)
    job = SearchJob(F2, fx.fix_a(F2), "bisystem", cocarrier=fx.fix_c(F2))
    hits = run_search(job, shards=3)
    assert len(compiled) == 1  # once for all three shards
    compiled.clear()
    assert enumerate_hits(job) == hits  # alone, a shard compiles for itself
    assert len(compiled) == 1


def test_serial_search_shares_one_verdict_scope(F2, F3, monkeypatch):
    # the compile and every serial shard share one scope, so a bisystem's
    # carriers have their asi_bialgebra axioms evaluated once per search
    counts = collections.Counter()
    real = identities._run

    def spy(check, tags, ctx):
        counts[check] += 1
        return real(check, tags, ctx)

    monkeypatch.setattr(identities, "_run", spy)
    job = SearchJob(F3, fx.fix_a(F3), "bisystem", cocarrier=fx.fix_c(F3))
    for shards in (1, 8):
        counts.clear()
        assert len(run_search(job, shards=shards)) == 191
        assert counts["axioms:asi_bialgebra"] == 1, shards
    counts.clear()
    job = SearchJob(F2, fx.fix_a(F2), "bisystem", cocarrier=fx.fix_c(F2))
    assert len(enumerate_hits(job)) == 48  # a lone shard compiles in its own scope
    assert counts["axioms:asi_bialgebra"] == 1



def test_only_a_bisystem_search_opens_a_verdict_scope(F2, F3, monkeypatch):
    # the survivors of a one-group condition never repeat a verdict, so a
    # serial search of any other kind re-verifies outside every scope and
    # builds no verdict key; a bisystem search re-verifies inside one
    scoped = []
    real = search.verify_hit

    def spy(job, parts):
        scoped.append(identities._VERDICTS.get() is not None)
        return real(job, parts)

    monkeypatch.setattr(search, "verify_hit", spy)
    for shards in (1, 3):
        assert len(run_search(SearchJob(F3, fx.fix_a(F3), "rbs"), shards=shards)) == 179
        assert len(scoped) == 179 and not any(scoped)
        scoped.clear()
    job = SearchJob(F2, fx.fix_a(F2), "bisystem", cocarrier=fx.fix_c(F2))
    assert len(run_search(job)) == len(scoped) == 48 and all(scoped)
    assert identities._VERDICTS.get() is None


# --- every kind compiled into joint quadratic forms -------------------------

ALL_KINDS = sorted(search._KINDS)


def _one_job(kind, F, antisymmetric=False):
    carrier = fx.fix_c(F) if kind in _COALG_KINDS else fx.fix_a(F)
    weighted = kind in ("rb_weight", "rb_coalgebra_weight")
    return SearchJob(F, carrier, kind, weight=F.one() if weighted else None,
                     antisymmetric=antisymmetric)


def _job(kind, F, antisymmetric=False):
    if len(search._KINDS[kind]) == 1:
        return _one_job(kind, F, antisymmetric)
    return _two_job(kind, F)


def _value(row, y, p):
    """A compiled row at the variables y, y[-1] being the constant 1."""
    return sum(c * y[v] * y[w] for c, v, w in row) % p


@pytest.mark.parametrize("p", [2, 3, 11])
@pytest.mark.parametrize("kind, antisymmetric, fault", [
    (k, False, None) for k in ALL_KINDS] + [
    ("aybe", True, None), ("rb_weight", False, "eq:cee")])
def test_quadratic_rows_match_evaluate(kind, antisymmetric, fault, p):
    # each compiled row, evaluated at a candidate's entries (those of all its
    # components), is the stored residual entry that evaluate gives with the
    # candidate bound into the step's group; the solver's rows all vanish
    # exactly where the job's catalog condition holds
    F = PrimeField(p)
    job = _job(kind, F, antisymmetric)
    rng = random.Random(f"{kind}-{p}-{fault}")
    with seeded_fault(fault, 0) if fault else contextlib.nullcontext():
        _, groups = search._groups(job)
        compiled = search._compile(F, job.carrier.dim, search._KINDS[kind], groups)
        assert list(compiled) == [step for bound in groups
                                  for step in steps(bound.tags, bound.ctx)]
        system, pred = search._system(job), _holds(job)
        for _ in range(200):
            parts = decode_candidate(job, rng.randrange(search_space(job)))
            y = [v for part in parts for v in part.entries] + [1]
            for bound in groups:
                bound.bind(parts)
                for tag, idx in steps(bound.tags, bound.ctx):
                    res = _stored(evaluate(tag, bound.ctx, idx), F)
                    want = res if isinstance(res, tuple) else res.entries
                    assert [_value(row, y, p) for row in compiled[tag, idx]] == list(want), \
                        (tag, idx)
            assert all(_value(row, y, p) == 0 for row in system) == pred(parts)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_compile_is_exact_with_a_constant_term(p, monkeypatch):
    # the catalog's search tags all vanish at zero maps; this test-local
    # entry has a constant, linear, square and cross terms in R and S jointly
    def terms(ctx, idx):
        (i,) = idx
        A, R, S = ctx.A, ctx.R, ctx.S
        return [A.basis_vector(i), R.col(i), S.apply(R.col(i)),
                A.mul(S.col(i), S.col(1 - i)), vscale(ctx.lam, R.apply(R.col(i)))]

    monkeypatch.setitem(CATALOG, "test:constant",
                        Identity("test:constant", ("A",), terms))
    F = PrimeField(p)
    A, zero = fx.fix_a(F), Matrix.zero(F, 2)
    job = SearchJob(F, A, "symmetric_rbs")
    bound = search._on(("R", "S"), ("test:constant",),
                       Ctx({"A": A.basis}, A=A, R=zero, S=zero, lam=F.of(2)))
    compiled = search._compile(F, 2, ("map", "map"), (bound,))
    assert any(m[1:] == (-1, -1) for rows in compiled.values() for row in rows for m in row)
    rng = random.Random(p)
    for _ in range(100):
        parts = decode_candidate(job, rng.randrange(search_space(job)))
        y = [v for part in parts for v in part.entries] + [1]
        bound.ctx.R, bound.ctx.S = parts
        for (tag, idx), rows in compiled.items():
            res = _stored(evaluate(tag, bound.ctx, idx), F)
            assert [_value(row, y, p) for row in rows] == list(res)


def _row_set_digests():
    """{case: first 16 hex digits of the sha256 of its sorted `_unique` row
    sets over GF(2), GF(3) and GF(5)}: each search kind's `_system` (`aybe`
    also antisymmetric), and the rows that `solve_parts` builds for both
    sides of each equivalence scan at every lam."""
    texts = collections.defaultdict(list)
    for p in (2, 3, 5):
        F = PrimeField(p)
        for kind, anti in [(k, False) for k in ALL_KINDS] + [("aybe", True)]:
            rows = search._system(_job(kind, F, anti))
            texts[kind + "-antisymmetric" * anti].append(repr(sorted(rows)))
        for row, scan in regression._SCANS.items():
            A, C = (make(F) for make in scan.carriers)
            for lam in range(p) if scan.weighted else (None,):
                for parts, binding in regression._sides(scan, A, C, lam):
                    built = []
                    with unittest.mock.patch.object(
                            search, "_solve", lambda rows, *_: built.append(rows) or ()):
                        search.solve_parts(F, A.dim, parts, binding)
                    texts[f"scan:{row}"].append(repr(sorted(built[0])))
    return {case: hashlib.sha256("\n".join(t).encode()).hexdigest()[:16]
            for case, t in texts.items()}


# computed before the compile evaluated each step once over polynomial
# scalars, when it still interpolated every step from probes
ROW_SET_DIGESTS = {
    "adjoint_admissible": "457d4e047196cfe8", "averaging": "e1c76d1eee3a12f8",
    "aybe": "3d1a2bdacc64665b", "aybe-antisymmetric": "0b1fb776d01145c2",
    "bisystem": "535dfd698b5f9281", "coaveraging": "d8a43ef4a04b79ed",
    "lie_rb_cosystem": "e598d46db80b5e45", "lie_rbs": "66c13f2def143a22",
    "nijenhuis": "8e0295846cd06ee3", "rb_coalgebra_weight": "026f375f7b6a6f22",
    "rb_weight": "026f375f7b6a6f22", "rbs": "26be7f4601a51809",
    "symmetric_rb_cosystem": "c3202f9768d737eb", "symmetric_rbs": "c22d0b94a235a4df",
    "symmetric_ybpair": "2be690a98d09468d",
    "scan:averaging": "308bfb86a59faa70", "scan:averaging-lie": "a6ca90811f7865cc",
    "scan:weighted": "95c8ffc1980365a0", "scan:weighted-lie": "43d725606b433f2d",
}


def test_compiled_row_sets_are_pinned():
    assert _row_set_digests() == ROW_SET_DIGESTS


def test_search_results_hold_plain_ints(F2, monkeypatch):
    # the compile's polynomial scalar stays inside the compile: hits, the
    # parts that verify_hit sees and solve_parts' survivors are plain ints
    seen, real = [], search.verify_hit
    monkeypatch.setattr(search, "verify_hit",
                        lambda job, parts: seen.append(parts) or real(job, parts))
    hits = [h for kind in ALL_KINDS for h in run_search(_job(kind, F2))]
    assert hits and [h.parts for h in hits] == seen
    assert all(type(x) is int for parts in seen for part in parts for x in part.entries)
    survivors = []
    for scan in regression._SCANS.values():
        A, C = (make(F2) for make in scan.carriers)
        for _, *found in regression._survivors(scan, A, C):
            survivors += [y for side in found for y in side]
    assert survivors and all(type(x) is int for y in survivors for x in y)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_kind_shards_like_serial(kind):
    # a shard keeps the candidates whose first component's index is its
    # residue, also when the first component is the only one
    F2 = PrimeField(2)
    job = _job(kind, F2)
    serial = run_search(job)
    assert serial
    assert run_search(job, shards=3) == serial
    rest = 2 ** (4 * (len(search._KINDS[kind]) - 1))
    for s in range(3):
        hits = enumerate_hits(replace(job, shard=(s, 3)))
        assert hits == [h for h in serial if h.index // rest % 3 == s]


def test_decode_candidate_refuses_indices_outside_the_space(F3):
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    space = search_space(job)
    assert space == 6561
    two = Matrix(F3, 2, 2, [2, 2, 2, 2])
    assert decode_candidate(job, space - 1) == (two, two)
    for index in (space, space + 1, -1, -space):
        with pytest.raises(PayloadError, match="outside"):
            decode_candidate(job, index)
