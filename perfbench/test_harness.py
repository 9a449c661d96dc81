"""Tiny-size self-test of the benchmark harness; it has no timing gate.

    python3 -m pytest perfbench/test_harness.py

Runs every workload at toy size, untraced and traced, and checks that every
metric named in BENCHMARK.json is emitted and that no job failed; then
checks the oracles and the tracer's bookkeeping on small cases.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from run import tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    if not trace:
        printed = dict(line.split()[:2] for line in proc.stdout.splitlines()
                       if line and not line.startswith(("#", "{")))
        assert float(printed["failed_frac"]) == 0.0
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(tmp_path, "exact-core", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_count_oracles_match_enumeration():
    import liespec
    spectrum = liespec.su2_sublaplacian_spectrum(300)     # complete below s = 301
    for s in (0.5, 2.0, 2.5, 37.0, 199.5, 256.0, 300.0):
        assert wl.su2_count_oracle(s) == sum(m for ev, m in spectrum if 0 < ev < s)
    for n, s in [(1, 50.0), (2, 300.0), (2, 4 * 3.14159 ** 2 * 25), (3, 900.0), (4, 500.0)]:
        r2 = s / (4.0 * 3.141592653589793 ** 2)
        k = int(r2 ** 0.5) + 1
        grid = [()]
        for _ in range(n):
            grid = [g + (j,) for g in grid for j in range(-k, k + 1)]
        brute = sum(1 for g in grid if 0 < sum(x * x for x in g) < r2)
        assert wl.torus_count_oracle(n, s) == brute


def test_tail_keeps_ten_jobs_beyond():
    p, value, beyond = tail([float(k) for k in range(200)])
    assert (p, beyond) == (95, 10) and value == 189.0


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.span_wrapper("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.span_wrapper("outer", outer_body)
    outer()
    selfs = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert tracer.counts == {"inner": 2, "outer": 1}
    assert abs(selfs["outer"] + selfs["inner"] - total) < 1e-9
    assert 0 < selfs["outer"] < total
    assert tracer.calls_under("inner", "outer") == 2
