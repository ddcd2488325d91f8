import random

import pytest

from rbx import fixtures as fx
from rbx.errors import BudgetError, FieldError, ToolkitError
from rbx.kernel import Matrix
from rbx.search import (FamilySpec, SearchJob, cross_tabulate,
                        decode_candidate, enumerate_hits, fast_predicate,
                        run_search, search_space, verify_family, verify_hit)
from rbx.systems import OperatorSystem, check_operator_system


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


def test_oracle_agreement_on_subsample(F3):
    # fast predicate vs reference checkers on a random 1% of the space
    A = fx.fix_a(F3)
    job = SearchJob(F3, A, "symmetric_rbs")
    space = search_space(job)
    rng = random.Random(13)
    pred = fast_predicate(job)
    for _ in range(space // 100):
        idx = rng.randrange(space)
        parts = decode_candidate(job, idx)
        assert pred(parts) == verify_hit(job, parts)


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
    assert len(unclassified) <= len(hits)


def test_cross_tabulate_empty(F2):
    rows, unclassified = cross_tabulate([], fx.CEE_FAMILIES, F2)
    assert rows == [] and unclassified == []


@pytest.mark.parametrize("shards", [0, -1])
def test_run_search_rejects_bad_shard_count(F3, shards):
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    with pytest.raises(ToolkitError):
        run_search(job, shards=shards)


def test_run_search_caps_processes_at_cpu_count(F3, monkeypatch):
    from rbx import search
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
