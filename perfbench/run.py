"""liespec benchmark: three seeded closed-loop workloads, end to end.

    python3 perfbench/run.py --workload exact-core --seed 1 --seconds 30 --trace 0

Run from the root of a liespec checkout; the library is imported from its
``src/`` directory (nothing needs installing).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
# The timed phase is split over this many sequential client processes; each
# also gives one set-up sample.
LEGS = 5
CHILD_TIMEOUT = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LIESPEC_SEED", None)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(os.cpu_count() or 1)
    return env


def run_client(args, out: Path, seconds: float, *extra) -> dict:
    cmd = [sys.executable, str(BENCH / "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", str(out), *extra]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark client failed with exit code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten jobs beyond it (nearest
    rank); falls back to the median when a run has too few jobs."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 49, -1):
        i = math.ceil(p / 100 * n) - 1
        if n - 1 - i >= 10:
            return p, xs[i], n - 1 - i
    i = math.ceil(n / 2) - 1
    return 50, xs[i], n - 1 - i


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    def sysconf(code):        # glibc _SC_LEVEL2/3_CACHE_SIZE; cpuid, no files
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    env = child_env()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "l2_bytes": sysconf(191), "l3_bytes": sysconf(194),
        "thread_caps": {v: env[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny sizes (harness self-test)")
    args = ap.parse_args()

    if not (ROOT / "src" / "liespec" / "__init__.py").is_file():
        print(f"error: no liespec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "cli").mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"

    if args.trace:
        result = run_client(args, OUT / f"client-{stem}.json", args.seconds)
    else:
        legs = [run_client(args, OUT / f"client-{stem}-leg{k}.json", args.seconds / LEGS,
                           "--leg", str(k)) for k in range(LEGS)]
        result = {key: sum((leg[key] for leg in legs), [])
                  for key in ("latencies", "raw_latencies", "errors")}
        result.update({key: sum(leg[key] for leg in legs)
                       for key in ("elapsed_s", "raw_elapsed_s", "rounds")})
        result["setup_samples"] = [leg["setup_s"] for leg in legs]
        result["leg_p50s"] = [statistics.median(leg["latencies"]) for leg in legs]
    errors = result["errors"]
    attempted = len(errors)
    failed = sum(e is not None for e in errors)
    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "attempted": attempted, "failed": failed,
              "failures": sorted({e.splitlines()[-1] for e in errors if e})[:20]}

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
        report["spans"] = result["spans"]
    else:
        samples = result["setup_samples"]
        lat = result["latencies"]
        ok = [t for t, e in zip(lat, errors) if e is None]
        p, tail_s, beyond = tail(lat)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "jobs_per_s": {"value": len(ok) / result["elapsed_s"], "unit": "1/s"},
            # median of the legs' medians: one slow leg does not move it
            "job_p50_s": {"value": statistics.median(result["leg_p50s"]), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": len(ok) / attempted, "unit": "frac"},
        }
        raw = result["raw_latencies"]
        report["unscaled"] = {
            "jobs_per_s": sum(e is None for e in errors) / result["raw_elapsed_s"],
            "job_p50_s": statistics.median(raw), "job_tail_s": tail(raw)[1]}
        report.update({"setup_samples": samples, "leg_p50s": result["leg_p50s"],
                       "rounds": result["rounds"],
                       "elapsed_s": result["elapsed_s"], "jobs": attempted,
                       "job_tail_percentile": p, "job_tail_beyond": beyond,
                       "failed_frac": failed / attempted})
    report["metrics"] = metrics
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_caps")
          + f" threads={env['thread_caps']['OMP_NUM_THREADS']}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_frac':48s} {failed / attempted:.6g} frac")
        print(f"# job_tail_s is p{report['job_tail_percentile']} of "
              f"{attempted} jobs ({report['job_tail_beyond']} beyond it)")
    if not args.trace:
        print("# unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in report["unscaled"].items()))
    for msg in report["failures"]:
        print(f"# failure: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
