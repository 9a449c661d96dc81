"""Run the benchmark on one or more checkouts and keep the results.

    python3 tools/bench_snapshot.py --label pr7 \
        --checkout parent=../liespec-parent --checkout change=. \
        --workloads cli-batch --seeds 1,2 --pairs 5

For every pair, workload and seed this runs
``python3 -B perfbench/run.py --workload W --seed S --seconds 30 --trace 0``
in each checkout, alternating which checkout goes first, with
``PYTHONDONTWRITEBYTECODE=1`` so that its child processes write no byte code
either, and keeps the final JSON line of each run with the checkout's git
sha (and whether its tracked files differ from it, and a digest of its
``src/``), whether its ``src/`` held a ``__pycache__`` directory when the run
started (stale byte code changes import times), the Python, numpy and scipy
versions and ``nproc``.  Rows go to ``BENCH_<label>.json`` at the root
of this repository; rows already in that file are kept, so several
invocations add up.  A summary gives, per workload, checkout and metric, the
median, the quartiles and the run count, and per checkout beyond the first
the pairs it wins against the first on each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-core", "spectral-lab", "cli-batch")
SECONDS = 30
VERSIONS = ("import sys, numpy, scipy; "
            "print(sys.version.split()[0], numpy.__version__, scipy.__version__)")


def checkout_info(path: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    python, numpy, scipy = subprocess.run(
        [sys.executable, "-c", VERSIONS], capture_output=True, text=True,
        check=True).stdout.split()
    src = hashlib.sha256()
    for f in sorted((path / "src").rglob("*.py")):
        src.update(f.relative_to(path).as_posix().encode() + f.read_bytes())
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": src.hexdigest()[:16],
            "python": python, "numpy": numpy, "scipy": scipy,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def run_once(path: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=path, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"{path}: {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "quartiles": [q1, q3],
            "runs": len(values)}


def summarize(rows: list[dict], better: dict[str, str]) -> dict:
    """Median and quartiles per (workload, checkout, metric); pair wins of
    every later checkout against the first one named."""
    out: dict = {}
    names = list(dict.fromkeys(r["checkout"] for r in rows))
    for wl in dict.fromkeys(r["workload"] for r in rows):
        here = [r for r in rows if r["workload"] == wl]
        entry = out.setdefault(wl, {})
        for name in names:
            mine = [r for r in here if r["checkout"] == name]
            if not mine:
                continue
            entry[name] = {
                metric: spread([r["result"]["metrics"][metric]["value"]
                                for r in mine])
                for metric in mine[0]["result"]["metrics"]}
        base = names[0]
        for name in names[1:]:
            pairs = {}
            for r in here:
                if r["checkout"] != name:
                    continue
                mate = [b for b in here if b["checkout"] == base
                        and b["pair"] == r["pair"] and b["seed"] == r["seed"]]
                if not mate:
                    continue
                for metric, m in r["result"]["metrics"].items():
                    a, b = m["value"], mate[0]["result"]["metrics"][metric]["value"]
                    sign = 1 if better.get(metric, "lower") == "higher" else -1
                    won = (a - b) * sign > 0
                    stats = pairs.setdefault(metric, {"won": 0, "pairs": 0})
                    stats["won"] += won
                    stats["pairs"] += 1
            entry[f"{name}_vs_{base}"] = pairs
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--checkout", action="append", required=True,
                    metavar="NAME=DIR", help="a checkout to run (repeatable)")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--pairs", type=int, default=1,
                    help="rounds over all checkouts, alternating their order")
    args = ap.parse_args()

    checkouts = []
    for item in args.checkout:
        name, _, path = item.partition("=")
        checkouts.append((name, Path(path).resolve()))
    infos = {name: checkout_info(path) for name, path in checkouts}
    out = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.exists() else {"rows": []}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    first_pair = 1 + max((r["pair"] for r in doc["rows"]), default=0)

    for pair in range(first_pair, first_pair + args.pairs):
        for workload in args.workloads.split(","):
            for seed in (int(s) for s in args.seeds.split(",")):
                order = checkouts if pair % 2 else checkouts[::-1]
                for name, path in order:
                    pycache = any((path / "src").rglob("__pycache__"))
                    result = run_once(path, workload, seed)
                    doc["rows"].append({"checkout": name, "pair": pair,
                                        "workload": workload, "seed": seed,
                                        **infos[name], "src_pycache": pycache,
                                        "result": result})
                    m = result["metrics"]
                    print(f"pair {pair} {workload} seed {seed} {name}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                          flush=True)
                    doc = {"summary": summarize(doc["rows"], better),
                           "rows": doc["rows"]}
                    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
