"""Spans and counters recorded around rbx's public functions.

The tracer replaces a function at every binding site it has in the `rbx.*`
module namespaces (and on its class, for the two `Matrix` methods), so calls
between modules pass through the wrapper too.  Spans are aggregated in
memory per name: call count, total time and self time, where self time is a
span's duration minus the time of the spans it contains.  A span's duration
leaves out the speed probes (`speed.py`) that ran inside it.  Nothing is
recorded inside pool worker processes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

from rbx import (bisystems, bridges, identities, kernel, report,
                 representations, search, structures, systems, yangbaxter)

import speed

# (metric prefix, module, function name) for every span.  The checkers are
# those of systems, bisystems, bridges, representations and yangbaxter that
# some workload reaches.
SPANS = [
    ("identities.evaluate", identities, "evaluate"),
    ("identities.run_identities", identities, "run_identities"),
    ("structures.check_axioms", structures, "check_axioms"),
    ("report.make_report", report, "make_report"),
    ("search.enumerate_hits", search, "enumerate_hits"),
    ("search.verify_hit", search, "verify_hit"),
    ("systems.check_operator_system", systems, "check_operator_system"),
    ("systems.check_cosystem", systems, "check_cosystem"),
    ("systems.check_symmetric_ybpair", systems, "check_symmetric_ybpair"),
    ("systems.check_crossed_products", systems, "check_crossed_products"),
    ("systems.split_dendriform", systems, "split_dendriform"),
    ("systems.derived_products", systems, "derived_products"),
    ("bisystems.check_bisystem", bisystems, "check_bisystem"),
    ("bisystems.check_matched_pair_srbs", bisystems, "check_matched_pair_srbs"),
    ("bridges.check_weighted_rb_asi", bridges, "check_weighted_rb_asi"),
    ("bridges.check_averaging_asi", bridges, "check_averaging_asi"),
    ("bridges.check_lie_bisystem", bridges, "check_lie_bisystem"),
    ("bridges.check_averaging_lie_bialgebra", bridges, "check_averaging_lie_bialgebra"),
    ("bridges.check_weighted_rb_lie_bialgebra", bridges,
     "check_weighted_rb_lie_bialgebra"),
    ("representations.check_bimodule", representations, "check_bimodule"),
    ("representations.check_representation", representations, "check_representation"),
    ("representations.adjoint_admissible_report", representations,
     "adjoint_admissible_report"),
    ("representations.coadjoint_admissible_report", representations,
     "coadjoint_admissible_report"),
    ("yangbaxter.check_aybe", yangbaxter, "check_aybe"),
]

# (metric name, module, function name) for call counters without spans:
# these functions are too small and too frequent for a span.
COUNTERS = [
    ("kernel.leg_apply.calls", kernel, "leg_apply"),
]
METHOD_COUNTERS = [
    ("kernel.matrix_init.calls", kernel.Matrix, "__init__"),
    ("kernel.matmul.calls", kernel.Matrix, "__matmul__"),
]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.tag_s = defaultdict(float)  # evaluate time per identity tag
        self._open = [0.0]  # time of the finished children of each open span

    def span(self, name, fn):
        calls, self_s, tag_s, open_ = self.calls, self.self_s, self.tag_s, self._open
        clock, probed = time.perf_counter, speed.PROBED
        per_tag = name == "identities.evaluate"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            p0 = probed[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0 - (probed[0] - p0)
                children = open_.pop()
                open_[-1] += d
                calls[name] += 1
                self_s[name] += d - children
                if per_tag:
                    tag_s[args[0]] += d
        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _rbx_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rbx" or name.startswith("rbx."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function while the context is open."""
    wrappers = {}
    for name, module, attr in SPANS:
        fn = getattr(module, attr)
        wrappers[id(fn)] = (fn, tracer.span(name, fn))
    for name, module, attr in COUNTERS:
        fn = getattr(module, attr)
        wrappers[id(fn)] = (fn, tracer.counter(name, fn))
    patched = []
    for module in _rbx_modules():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    for name, cls, attr in METHOD_COUNTERS:
        fn = cls.__dict__[attr]
        setattr(cls, attr, tracer.counter(name, fn))
        patched.append((cls, attr, fn))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)
