"""Self-test of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

Runs every workload for one second (two passes, the least a run makes) with
and without tracing, and checks that the emitted metric names and units are
exactly those of BENCHMARK.json, that every output was correct, that
`bench/pairing.json` pairs every layer metric, and that the benchmark fails
without printing a result where the rbx sources are missing.  It takes a
few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_selftest"


def run(cwd, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics differ: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    pairing = json.loads((BENCH / "pairing.json").read_text())
    assert set(pairing) == set(per_layer), set(pairing) ^ set(per_layer)
    workloads = [w["name"] for w in spec["workloads"]]
    for pair in pairing.values():
        for ref in pair["moves"] + pair["unchanged"]:
            workload, metric = ref.split(":")
            assert workload in workloads and metric in end_to_end, ref

    for workload in workloads:
        res = check_result(run(ROOT, workload, 0), end_to_end, f"{workload} trace 0")
        assert all(m["value"] > 0 for m in res["metrics"].values()), res
        check_result(run(ROOT, workload, 1), per_layer, f"{workload} trace 1")
        print(f"ok {workload}", flush=True)

    # Without the rbx sources the benchmark must fail and print no result.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        proc = run(SCRATCH, workloads[0], 0)
        assert proc.returncode != 0, proc.stdout
        assert not any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("ok bare directory fails")
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
