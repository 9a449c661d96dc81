"""One workload client: set-up, the closed-loop timed phase and the checks.

Run by ``run.py`` in its own child process; writes its raw results as JSON
to ``--out``.  An untraced run is split into legs, one fresh client process
each, so that per-process luck (memory layout, page placement) averages out
and each leg gives one set-up sample.

With ``--trace 1`` it instead runs a fixed number of rounds, each job once
untraced and once traced (``trace.overhead_frac`` compares the two), then
the probes of the process layer, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads as wl
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BENCH_REL = BENCH.relative_to(ROOT).as_posix()
# What the installed `liespec` console script runs.
LIESPEC = [sys.executable, "-c", "import sys; from liespec.cli import main; sys.exit(main())"]
TRACED_LIESPEC = [sys.executable, str(BENCH / "cli_traced.py")]

# Rounds of the traced run at full size.  Fixed, not timed, so that counts
# repeat exactly for a seed and compare across commits.
TRACE_ROUNDS = {"exact-core": 2, "spectral-lab": 3, "cli-batch": 5}
PROC_TIMEOUT = 60


def _process(cmd):
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROC_TIMEOUT)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(workload: str):
    """Import liespec and build the workload's catalog entries / backends.

    For cli-batch the set-up is one ``liespec --version`` process.
    """
    t0 = time.perf_counter()
    if workload == "exact-core":
        ctx = wl.exact_setup()
    elif workload == "spectral-lab":
        ctx = wl.spectral_setup()
    else:
        proc = _process(LIESPEC + ["--version"])
        if proc.returncode != 0:
            raise RuntimeError(f"liespec --version failed: {proc.stderr}")
        ctx = {"pool": wl.cli_pool(BENCH_REL)}
    return ctx, time.perf_counter() - t0


def _check_source(lib) -> None:
    origin = Path(lib.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"liespec imported from {origin}, not from {SRC}")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

class Runner:
    """Generates rounds, runs jobs and checks their outputs for one workload."""

    def __init__(self, workload: str, ctx, seed: int, leg: int, toy: bool):
        self.workload = workload
        self.ctx = ctx
        self.toy = toy
        self.rng = random.Random(f"{seed}/{leg}")
        self.check_rng = random.Random(f"{seed}/{leg}/checks")
        self.goldens = wl.load_goldens()
        self.index = 0

    def next_round(self):
        self.index += 1
        if self.workload == "exact-core":
            return wl.exact_round(self.ctx["entries"], self.rng, self.toy)
        if self.workload == "spectral-lab":
            return wl.spectral_round(self.rng, self.toy)
        return wl.cli_round(self.ctx["pool"], self.rng, self.index - 1)

    def run(self, job, traced_spans: str | None = None):
        if self.workload == "exact-core":
            return wl.exact_run(job, self.ctx)
        if self.workload == "spectral-lab":
            return wl.spectral_run(job, self.ctx)
        argv = job.params["argv"]
        cmd = (TRACED_LIESPEC + [traced_spans] if traced_spans else LIESPEC) + argv
        proc = _process(cmd)
        written = None
        if "--output" in argv:
            with open(ROOT / argv[argv.index("--output") + 1], encoding="utf-8") as fh:
                written = fh.read()
        return proc.returncode, proc.stdout, written

    def check(self, job, out) -> str | None:
        if self.workload == "exact-core":
            return wl.exact_check(job, out, self.ctx, self.goldens)
        if self.workload == "spectral-lab":
            return wl.spectral_check(job, out, self.ctx, self.check_rng)
        return wl.cli_check(job, out, self.goldens)

    def run_checks(self, done) -> dict[int, str]:
        if self.workload == "spectral-lab":
            return wl.spectral_run_checks(done, self.ctx)
        return {}


def _attempt(runner: Runner, job, **kw):
    t0 = time.perf_counter()
    try:
        out, err = runner.run(job, **kw), None
    except Exception:
        out, err = None, traceback.format_exc(limit=3)
    return out, err, time.perf_counter() - t0


def _check_all(runner: Runner, records) -> list[str | None]:
    """Check every output outside the timed region; None means correct."""
    verdicts = []
    done = []
    for job, out, err in records:
        if err is None:
            try:
                err = runner.check(job, out)
            except Exception:
                err = "check raised: " + traceback.format_exc(limit=3)
        if err is None:
            done.append((job, out))
        verdicts.append(err)
    # a failed run-level verdict counts against every job it covers
    whole = runner.run_checks(done)
    return [whole.get(id(job), v) if v is None else v
            for v, (job, _, _) in zip(verdicts, records)]


# The host's speed drifts by up to ~1.5x over seconds to minutes (other
# tenants), and the drift slows liespec's in-process work and this pure-Python
# exact-arithmetic kernel alike.  In-process latencies are therefore scaled by
# REFERENCE_NOMINAL_S / (kernel time measured around their round): seconds on
# a host whose kernel takes REFERENCE_NOMINAL_S.  The kernel is the
# benchmark's own code, so a change to liespec never moves it.
REFERENCE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(10)]
                    for i in range(10)]
REFERENCE_NOMINAL_S = 0.025


def reference_s() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        wl.rational_inverse(REFERENCE_MATRIX)
    return time.perf_counter() - t0


def timed_phase(runner: Runner, seconds: float) -> dict:
    """Closed loop, one client: whole rounds for about ``seconds`` of job time.

    Another round starts only while the leg would end nearer ``seconds``
    with it than without it, so legs end on target on average.  cli-batch
    latencies are not scaled: process start-up does not follow the kernel.
    """
    records, raw, scaled, labels = [], [], [], []
    elapsed = elapsed_scaled = 0.0
    ref_before = reference_s()
    while runner.index == 0 or elapsed + 0.5 * elapsed / runner.index < seconds:
        jobs = runner.next_round()             # input generation: not timed
        t0 = time.perf_counter()
        round_lat = []
        for job in jobs:
            out, err, dt = _attempt(runner, job)
            records.append((job, out, err))
            round_lat.append(dt)
            labels.append(job.label)
        round_s = time.perf_counter() - t0
        ref_after = reference_s()
        scale = (1.0 if runner.workload == "cli-batch"
                 else 2 * REFERENCE_NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after
        raw += round_lat
        scaled += [dt * scale for dt in round_lat]
        elapsed += round_s
        elapsed_scaled += round_s * scale
    verdicts = _check_all(runner, records)
    return {"elapsed_s": elapsed_scaled, "latencies": scaled,
            "raw_elapsed_s": elapsed, "raw_latencies": raw,
            "rounds": runner.index, "labels": labels, "errors": verdicts}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_phase(runner: Runner, rounds: int, out_dir: Path) -> dict:
    tracer = Tracer()
    import liespec.cli  # noqa: F401  (its names are patched too)
    if runner.workload != "cli-batch":
        tracer.install()                       # set-up construction, traced
        tracer.current_job = -2
        (wl.exact_setup if runner.workload == "exact-core" else wl.spectral_setup)()
        tracer.uninstall()
    records, plain, traced = [], 0.0, 0.0
    span_file = out_dir / "proc-spans.json"

    def run_traced(job):
        if runner.workload != "cli-batch":
            tracer.install()
            try:
                return _attempt(runner, job)
            finally:
                tracer.uninstall()
        result = _attempt(runner, job, traced_spans=str(span_file))
        if span_file.exists():
            with open(span_file, encoding="utf-8") as fh:
                tracer.absorb(json.load(fh))
            span_file.unlink()
        return result

    round_jobs = [runner.next_round() for _ in range(rounds)]
    jobs = [job for batch in round_jobs for job in batch]
    for job_id, job in enumerate(jobs):
        tracer.current_job, tracer.variant = job_id, job.variant
        # Alternate which of the pair runs first, so warm-up favours neither.
        if job_id % 2:
            out, err, dt = run_traced(job)
            dt_plain = _attempt(runner, job)[2]
        else:
            dt_plain = _attempt(runner, job)[2]
            out, err, dt = run_traced(job)
        tracer.variant = ""
        records.append((job, out, err))
        plain += dt_plain
        traced += dt
    verdicts = _check_all(runner, records)
    lab_jobs = round_jobs[0] if runner.workload == "spectral-lab" else []
    probes = process_probes(tracer, runner.check_rng, lab_jobs)
    layers = layer_metrics(tracer)
    layers.update(probes)
    layers["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    tracer.dump(out_dir / f"spans-{runner.workload}.json")
    return {"errors": verdicts, "labels": [j.label for j, _, _ in records],
            "layers": layers, "spans": len(tracer.start)}


def process_probes(tracer: Tracer, rng: random.Random, lab_jobs) -> dict:
    """The process layer, measured the same way on every workload.

    Fresh interpreters give cli.interpreter_s and cli.import_s; one
    ``-X importtime`` run gives the scipy share of the import.  In-process
    cli.dispatch / cli.emit are timed untraced over the cli-batch command
    pool, then run once more traced, as does one toy round of exact-core and
    spectral-lab, so that every layer metric has a reading on every workload.
    The counting allocation peak comes from a separate tracemalloc pass over
    the toy lab round plus ``lab_jobs``.
    """
    bare = [_wall([sys.executable, "-c", "pass"]) for _ in range(5)]
    imp = [_wall([sys.executable, "-c", "import liespec.cli"]) for _ in range(3)]
    interpreter = statistics.median(bare)
    proc = _process([sys.executable, "-X", "importtime", "-c", "import liespec.cli"])
    share = _scipy_share(proc.stderr)

    import liespec.cli as cli
    argvs = [argv for group in wl.cli_pool(BENCH_REL).values() for argv in group]
    dispatch_t, emit_t = [], []

    def dispatch_and_emit(argv):
        t0 = time.perf_counter()
        report, args = cli.dispatch(argv)
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.emit(report, getattr(args, "format", "json"), getattr(args, "output", None))
        return t1 - t0, time.perf_counter() - t1

    for argv in argvs:
        d, e = dispatch_and_emit(argv)
        dispatch_t.append(d)
        emit_t.append(e)

    exact_ctx, lab_ctx = wl.exact_setup(), wl.spectral_setup()
    toy_exact = wl.exact_round(exact_ctx["entries"], rng, toy=True)
    toy_lab = wl.spectral_round(rng, toy=True)
    tracer.current_job = -3
    tracer.install()
    try:
        for argv in argvs:
            dispatch_and_emit(argv)
        for job in toy_exact:
            tracer.variant = job.variant
            wl.exact_run(job, exact_ctx)
        tracer.variant = ""
        for job in toy_lab:
            wl.spectral_run(job, lab_ctx)
    finally:
        tracer.uninstall()

    alloc = Tracer(alloc=True)
    alloc.install()
    try:
        for job in toy_lab + list(lab_jobs):
            if job.kind in ("growth", "count"):
                wl.spectral_run(job, lab_ctx)
    finally:
        alloc.uninstall()
    return {
        "spectral.counting_function.alloc_peak_mb": (alloc.alloc_peak_bytes / 2**20, "MB"),
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (statistics.median(imp) - interpreter, "s"),
        "cli.import.scipy_share": (share, "frac"),
        "cli.dispatch_s": (statistics.median(dispatch_t), "s"),
        "cli.emit_s": (statistics.median(emit_t), "s"),
    }


def _wall(cmd) -> float:
    t0 = time.perf_counter()
    proc = _process(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed: {proc.stderr}")
    return time.perf_counter() - t0


def _scipy_share(importtime: str) -> float:
    """Share of ``import liespec.cli`` spent in scipy modules: the self times
    of every scipy.* line of ``-X importtime`` over the cumulative time of
    liespec.cli."""
    scipy_us, total_us = 0, 0
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us, cumulative = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue
        mod = parts[2].strip()
        if mod == "liespec.cli":
            total_us = cumulative
        elif mod == "scipy" or mod.startswith("scipy."):
            scipy_us += self_us
    return scipy_us / total_us if total_us else 0.0


LAYER_SPANS = [
    "lie_core.check_jacobi", "lie_core.span", "lie_core.solve_coordinates",
    "weighted.build_filtration", "weighted.reduce_basis", "weighted.check_grading",
    "weighted.contract", "spectral.make_backend", "spectral.verify_growth",
    "spectral.heat_trace_l2", "spectral.h1_heat_kernel",
    "spectral.torus_embedding_witness", "spectral.multiplier_norm_bound",
    "estimates.annuli_integral_check", "estimates.fit_gaussian_envelope",
    "forms.heisenberg_rockland_check",
]


def layer_metrics(tracer: Tracer) -> dict:
    selfs = tracer.self_times()
    c = tracer.counts
    out = {f"{name}.self_s": (selfs.get(name, 0.0), "s") for name in LAYER_SPANS}
    out.update({
        "lie_core.bracket.calls": (c["lie_core.bracket"], "count"),
        "lie_core.bracket.calls_sparse": (c["lie_core.bracket.sparse"], "count"),
        "lie_core.bracket.calls_dense": (c["lie_core.bracket.dense"], "count"),
        "lie_core.contains.calls": (c["lie_core.contains"], "count"),
        "lie_core.span.calls": (c["lie_core.span"], "count"),
        "weighted.build_filtration.calls_per_contract": (
            tracer.calls_under("weighted.build_filtration", "weighted.contract")
            / max(c["weighted.contract"], 1), "ratio"),
        "weighted.is_algebraic_basis.calls": (c["weighted.is_algebraic_basis"], "count"),
        "spectral.counting_function.calls": (c["spectral.counting_function"], "count"),
        "spectral.counting_function.grid_self_s": (
            selfs.get("spectral.counting_function.grid", 0.0), "s"),
        "spectral.counting_function.point_self_s": (
            selfs.get("spectral.counting_function.point", 0.0), "s"),
        "spectral.h1_heat_kernel.calls": (c["spectral.h1_heat_kernel"], "count"),
    })
    return out


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--leg", type=int, default=0,
                    help="index of this client among the run's sequential clients")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    ctx, setup_s = setup(args.workload)
    result = {"setup_s": setup_s}
    if "lib" in ctx:
        _check_source(ctx["lib"])
    runner = Runner(args.workload, ctx, args.seed, args.leg, args.toy)
    out_dir = Path(args.out).parent
    if args.trace:
        rounds = 1 if args.toy else TRACE_ROUNDS[args.workload]
        result.update(traced_phase(runner, rounds, out_dir))
    else:
        result.update(timed_phase(runner, args.seconds))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
