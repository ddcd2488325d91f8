"""The benchmark's ways into rbx, checked in the test suite: every name that
`bench/` looks up resolves, its per-layer loops give finite positive
numbers, and the traced and fast-predicate paths give the search's hits.
`bench/` is put on `sys.path` as it stands; nothing in it is edited."""

import math
import pathlib

from rbx import fixtures as fx
from rbx import search
from rbx.kernel import PrimeField
from rbx.search import SearchJob, decode_candidate, run_search, search_space

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_bench_entry_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans

    for _, module, attr in spans.SPANS + spans.COUNTERS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
    for _, cls, attr in spans.METHOD_COUNTERS:
        assert callable(cls.__dict__.get(attr)), (cls.__name__, attr)
    loops = layers.micro_loops()
    assert set(loops) == {name for name, _, _ in layers.MICRO}
    assert all(math.isfinite(v) and v > 0 for v in loops.values()), loops
    rate = layers.fast_predicate_rate()
    assert math.isfinite(rate) and rate > 0

    F3 = PrimeField(3)
    job = SearchJob(F3, fx.fix_a(F3), "symmetric_rbs")
    hits = [h.index for h in run_search(job)]
    pred = search.fast_predicate(job)
    assert [i for i in range(search_space(job)) if pred(decode_candidate(job, i))] == hits
    assert len(hits) == 55
    # the traced run wraps every span and counter, the compile included
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert [h.index for h in run_search(job)] == hits
    assert tracer.calls["identities.evaluate"] and tracer.calls["search.verify_hit"] == 55
    assert search.evaluate is spans.identities.evaluate  # unwrapped again
