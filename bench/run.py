"""rbx benchmark entry point.

    python3 bench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: rbx is imported from `src/`, never
from an installed copy.  With `--trace 0` the workload runs in passes for
about `--seconds` seconds (at least two passes) and the last line of stdout
is one JSON object with the end-to-end metrics.  With `--trace 1` it runs one
untraced and one traced pass plus the layer micro-loops and reports the
per-layer metrics instead.  Every time is scaled to a reference machine
speed by probes run next to and inside the work (`speed.py`).  The line
before the result carries provenance, per-pass scaled and raw times and the
machine's speed, the failure fraction and any error messages.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("paper", "search", "search-sharded", "rational")
MIN_PASSES = 2
SETUP_REPEATS = 11
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cand_per_s": "1/s", "checks_per_s": "1/s",
    "check_p50_ms": "ms", "check_p99_ms": "ms", "peak_rss_mib": "MiB",
}
# Timed by a fresh interpreter: start, import, and the workload's set-up.
SETUP_CODE = ("import sys; sys.path[:0] = [{bench!r}, {src!r}]; import speed; "
              "speed.child_setup(lambda: __import__('workloads').make({name!r}, {seed!r}))")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def import_rbx():
    """Import rbx from this checkout's `src/`; anything else is an error."""
    sys.path[:0] = [str(BENCH), str(SRC)]
    try:
        import rbx
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import rbx from {SRC}: {exc}")
    if Path(rbx.__file__).resolve().parent != SRC / "rbx":
        raise SystemExit(f"bench: rbx resolved to {rbx.__file__}, not {SRC / 'rbx'}")
    return rbx


def git_commit():
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "rbx").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(rbx, work, args):
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "rbx_version": rbx.__version__,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "layout": work.layout,
    }


def setup_seconds(name, seed):
    """Median wall time, scaled to the reference speed by probes in the
    child, of a fresh interpreter that imports rbx and builds the workload;
    one untimed start first fills the bytecode cache."""
    code = SETUP_CODE.format(bench=str(BENCH), src=str(SRC), name=name, seed=seed)
    cmd = [sys.executable, "-I", "-c", code]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        times.append(speed.scale_child(time.perf_counter() - t0, child.stdout))
    return statistics.median(times)


def measure(work, seconds):
    """Run passes until another would end past `seconds`, at least MIN_PASSES."""
    passes, took = [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(work.run_pass())
        took.append(time.perf_counter() - start)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - t0 + statistics.median(took) > seconds):
            return passes


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mib():
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def check_latencies(passes):
    """Each check's median latency over the run's passes, sorted."""
    return sorted(statistics.median(col) for col in zip(*(p.latencies for p in passes)))


def end_to_end(passes, setup_s):
    lat = check_latencies(passes)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cand_per_s": statistics.median(p.candidates / p.wall_s for p in passes),
        "checks_per_s": statistics.median(len(p.latencies) / p.wall_s for p in passes),
        "check_p50_ms": statistics.median(lat) * 1e3,
        "check_p99_ms": nearest_rank(lat, 0.99) * 1e3,
        "peak_rss_mib": peak_rss_mib(),
    }


def main(argv=None):
    args = parse_args(argv)
    rbx = import_rbx()
    import layers
    import spans
    import workloads

    work = workloads.make(args.workload, args.seed)
    if args.trace:
        untraced = work.run_pass()
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = work.run_pass()
        passes = [untraced, traced]
        values = layers.layer_metrics(work, untraced, traced, tracer)
        units = layers.UNITS
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        passes = measure(work, args.seconds)
        values = end_to_end(passes, setup_s)
        units = END_TO_END

    ops = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    n_lat = len(passes[0].latencies)  # checks per pass
    detail = {
        "provenance": provenance(rbx, work, args),
        "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
        "pass_raw_s": [p.raw_s for p in passes], "pass_speed": [p.speed for p in passes],
        "attempted": len(ops), "failed": failed, "fail_frac": failed / len(ops),
        "errors": [op.error for op in ops if op.error][:5],
        "latency_samples": n_lat,
        "samples_beyond_p99": n_lat - math.ceil(0.99 * n_lat),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
