"""Seeded inputs, job runners and output checks for the three workloads.

A workload is a stream of *rounds*.  Every in-process round holds the same
job kinds in the same proportions; the seed picks sizes inside each kind's
narrow band, the random bases, the query points and the order inside the
round.  The timed phase runs whole rounds, so the mix of a run does not
depend on where the clock stopped.

liespec is imported lazily (inside ``setup``) so that the client can time
the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exact-core", "spectral-lab", "cli-batch")
HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"


@dataclass
class Job:
    kind: str
    label: str
    params: dict = field(default_factory=dict)
    variant: str = ""          # "sparse" / "dense" for exact-core jobs


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exact-core
# ---------------------------------------------------------------------------

# The three-dimensional non-nilpotent entries are not graded in the catalog;
# their canonical two-generator bases contract to heisenberg(1).
_H1_WEIGHTS = (Fraction(1), Fraction(1), Fraction(2))

THREE_DIM = ["su2", "so3", "sl2r", "se2"]
# Every round contracts each of these in its catalog basis ...
SPARSE = THREE_DIM + ["engel4"] + [f"abelian{n}" for n in range(3, 9)] \
    + [f"heisenberg{n}" for n in range(1, 8)]
# ... twice the largest (dimension 21), so that job_tail_s, which keeps ten
# jobs beyond it, falls inside this class and not on a class boundary ...
LARGE = ["heisenberg10", "heisenberg10"]
# ... and each of these in a fresh seeded random basis.
DENSE = THREE_DIM + ["engel4", "heisenberg1", "heisenberg2", "heisenberg3", "abelian3"]
REDUCE = THREE_DIM + ["heisenberg1", "heisenberg2", "heisenberg3"]
TOY_SPARSE = THREE_DIM + ["engel4", "abelian3", "heisenberg1", "heisenberg2"]
EXACT_NAMES = sorted(set(SPARSE + LARGE + DENSE + REDUCE))


def expected_weights(entry) -> tuple[Fraction, ...]:
    if entry.graded_weights is not None:
        return tuple(entry.graded_weights)
    return _H1_WEIGHTS


def _raw(entry) -> dict:
    alg = entry.algebra
    return {"name": alg.name, "dim": alg.dim, "labels": alg.basis_labels,
            "table": {(i, j): list(c) for i, j, c in alg.structure_table()}}


def _random_change_of_basis(d: int, rng: random.Random):
    """P = D L U with unit-triangular L, U (entries -1/0/1) and a rational
    diagonal D; returns P and its exact inverse."""
    low = [[Fraction(int(i == j)) if j >= i else Fraction(rng.choice((-1, 0, 1)))
            for j in range(d)] for i in range(d)]
    up = [[Fraction(int(i == j)) if j <= i else Fraction(rng.choice((-1, 0, 1)))
           for j in range(d)] for i in range(d)]
    diag = [rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1),
                        Fraction(3), Fraction(-2, 3))) for _ in range(d)]
    lu = [[sum((low[i][t] * up[t][j] for t in range(d)), Fraction(0))
           for j in range(d)] for i in range(d)]
    p = [[diag[i] * x for x in row] for i, row in enumerate(lu)]
    return p, rational_inverse(p)


def rational_inverse(p):
    """Exact inverse of a square Fraction matrix (Gauss-Jordan)."""
    d = len(p)
    m = [list(r) + [Fraction(int(i == j)) for j in range(d)]
         for i, r in enumerate(p)]
    for c in range(d):
        piv = next(r for r in range(c, d) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [inv * x for x in m[c]]
        for r in range(d):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[d:] for row in m]


def _dense(raw: dict, rng: random.Random):
    """Structure constants of the same algebra in the basis f = P e."""
    d = raw["dim"]
    p, q = _random_change_of_basis(d, rng)

    def bracket(x, y):
        out = [Fraction(0)] * d
        for (i, j), c in raw["table"].items():
            a = x[i] * y[j] - x[j] * y[i]
            if a:
                for k in range(d):
                    if c[k]:
                        out[k] += a * c[k]
        return out

    table = {}
    for a in range(d):
        for b in range(a + 1, d):
            v = bracket(p[a], p[b])
            w = [sum((v[k] * q[k][c] for k in range(d) if v[k]), Fraction(0))
                 for c in range(d)]
            if any(w):
                table[(a, b)] = w
    dense = {"name": raw["name"] + "~", "dim": d,
             "labels": [f"f{k + 1}" for k in range(d)], "table": table}
    return dense, q        # row q[i] = coordinates of e_i in the f basis


def _in_basis(vec_e, q):
    """f-coordinates of a vector given in e-coordinates."""
    d = len(q)
    return tuple(sum((vec_e[i] * q[i][c] for i in range(d) if vec_e[i]),
                     Fraction(0)) for c in range(d))


def _unit(i, d):
    return tuple(Fraction(int(k == i)) for k in range(d))


def _exact_job(entries, name, rng, dense=False, reduce=False) -> Job:
    entry = entries[name]
    raw = _raw(entry)
    d = raw["dim"]
    elements = [_unit(g, d) for g in entry.generators]
    weights = list(entry.generator_weights)
    expect_size = len(elements)
    if reduce:
        # Over-weighted and redundant extra elements: reduce_basis lowers
        # each to the jump where it first appears and drops the redundant.
        if name == "engel4":
            x3, x4 = _unit(2, 4), _unit(3, 4)
            elements += [x4, tuple(a + b for a, b in zip(x3, x4))]
            weights += [Fraction(3), Fraction(rng.choice((3, 4)))]
            expect_size = 3
        else:
            top = d - 1          # Z for heisenberg<n>, e3 for the 3-dim entries
            elements.append(_unit(top, d))
            weights.append(Fraction(rng.choice((3, 4, 5))))
            expect_size = len(elements)
    if dense:
        raw, q = _dense(raw, rng)
        elements = [_in_basis(v, q) for v in elements]
    kind = "reduce" if reduce else "contract"
    label = f"{kind}:{name}{'~' if dense else ''}"
    return Job(kind, label, {"raw": raw, "elements": elements, "weights": weights,
                             "catalog": name, "expect_size": expect_size},
               variant="dense" if dense else "sparse")


def exact_round(entries, rng: random.Random, toy: bool = False):
    """One round: every catalog algebra of the workload once in its catalog
    basis, the small ones once more in a random basis, and reduction jobs.
    The seed draws the random bases, the extra weights and the order, so a
    round costs about the same whatever the seed."""
    jobs = [_exact_job(entries, name, rng)
            for name in (TOY_SPARSE if toy else SPARSE + LARGE)]
    jobs += [_exact_job(entries, name, rng, dense=True)
             for name in (DENSE[:2] if toy else DENSE)]
    jobs += [_exact_job(entries, name, rng, reduce=True, dense=rng.random() < 0.5)
             for name in rng.sample(REDUCE, 1 if toy else 3) + ["engel4"]]
    rng.shuffle(jobs)
    return jobs


def exact_setup():
    import liespec
    entries = {name: liespec.resolve_catalog(name) for name in EXACT_NAMES}
    return {"lib": liespec, "entries": entries}


def exact_run(job: Job, ctx):
    lib = ctx["lib"]
    p = job.params
    raw = p["raw"]
    alg = lib.LieAlgebra(raw["dim"], raw["table"], raw["labels"], name=raw["name"])
    basis = lib.WeightedBasis(alg, p["elements"], p["weights"])
    if job.kind == "reduce":
        basis = lib.reduce_basis(alg, basis)
    graded = lib.contract(alg, basis)
    filt = lib.build_filtration(alg, basis)
    reduced = lib.is_reduced(alg, basis).reduced
    return graded, filt, len(basis), reduced


def structure_digest(table) -> str:
    text = ";".join(f"{i},{j}:" + " ".join(str(c) for c in v) for i, j, v in table)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exact_check(job: Job, out, ctx, goldens) -> str | None:
    graded, filt, size, reduced = out
    entry = ctx["entries"][job.params["catalog"]]
    want = expected_weights(entry)
    if graded.homogeneous_dimension != sum(want, Fraction(0)):
        return f"Q* {graded.homogeneous_dimension} != {sum(want)}"
    layers = tuple((w, want.count(w)) for w in sorted(set(want)))
    if graded.layer_dims() != layers:
        return f"layer dims {graded.layer_dims()} != {layers}"
    if tuple(filt.jumps) != tuple(sorted(set(want))):
        return f"filtration jumps {filt.jumps}"
    if not reduced:
        return "basis not reduced"
    if size != job.params["expect_size"]:
        return f"reduced basis size {size} != {job.params['expect_size']}"
    if job.kind == "contract" and job.variant == "sparse":
        digest = structure_digest(graded.base.structure_table())
        golden = goldens["exact"][job.params["catalog"]]
        if digest != golden:
            return f"structure table digest {digest} != golden {golden}"
    return None


# ---------------------------------------------------------------------------
# spectral-lab
# ---------------------------------------------------------------------------

BACKENDS = ("torus2", "torus3", "torus4", "su2", "heisenberg")


def spectral_setup():
    import liespec
    backends = {name: liespec.make_backend(name) for name in BACKENDS}
    return {"lib": liespec, "backends": backends}


def _logu(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def spectral_round(rng: random.Random, toy: bool = False):
    """One round of every lab job kind.  Each size is drawn from a narrow
    band (a (full, toy) pair), so a job's cost hardly depends on the seed."""
    def band(full, small=None):
        lo, hi = small if toy and small else full
        return _logu(rng, lo, hi)

    s4 = band((250, 280))
    t_grid = band((0.05, 1.0))
    jobs = [
        Job("growth", "growth:torus2", {"backend": "torus2", "s_min": band((1e2, 1e3)),
                                        "s_max": band((3e6, 1e7)), "ppd": 20}),
        Job("growth", "growth:torus3", {"backend": "torus3", "s_min": band((1e2, 1e3)),
                                        "s_max": band((1.5e6, 1.7e6), (1e5, 1.2e5)),
                                        "ppd": 10}),
        # torus4 on a reduced range; below s ~ 200 the fit misses Q*/m.
        Job("growth", "growth:torus4", {"backend": "torus4", "s_min": s4,
                                        "s_max": s4 * band((110, 120)), "ppd": 4}),
        Job("growth", "growth:su2", {"backend": "su2", "s_min": band((1e3, 3e3)),
                                     "s_max": band((4e5, 4.5e5), (3e5, 3.3e5)), "ppd": 8}),
        Job("growth", "growth:heisenberg", {"backend": "heisenberg", "s_min": 1e3,
                                            "s_max": band((1e6, 1e8)), "ppd": 20}),
        Job("count", "count:su2", {"backend": "su2",
                                   "s": band((1.4e6, 1.5e6), (7e4, 7.5e4))}),
        Job("count", "count:torus2", {"backend": "torus2", "s": band((1e7, 1e8))}),
        # Two per round: the median job falls inside this class.
        Job("count", "count:torus3", {"backend": "torus3",
                                      "s": band((6e5, 6.6e5), (3e4, 3.3e4))}),
        Job("count", "count:torus3", {"backend": "torus3",
                                      "s": band((6e5, 6.6e5), (3e4, 3.3e4))}),
        Job("heat_su2", "heat:su2-small-t", {"t": band((3.35e-3, 3.45e-3), (1.4e-2, 1.6e-2))}),
        Job("heat_su2", "heat:su2", {"t": band((1.5e-2, 1.8e-2), (3e-2, 4e-2))}),
        Job("cross", "cross:heisenberg", {"t": band((1e-3, 1e-1))}),
        Job("kernel_grid", "kernel:heisenberg-grid", {
            "t": t_grid,
            "points": [(rng.uniform(-1, 1) * t_grid ** 0.5, rng.uniform(-1, 1) * t_grid ** 0.5,
                        rng.uniform(-1, 1) * t_grid) for _ in range(12)]}),
        Job("witness", "witness:n2", {"n": 2, "gamma": rng.choice((0.0, 0.25, 0.5)),
                                      "K": 6 if toy else rng.randint(21, 23),
                                      "trials": 4, "seed": rng.randrange(1000)}),
        Job("witness", "witness:n1", {"n": 1, "gamma": rng.choice((0.0, 0.25, 0.5)),
                                      "K": 32 if toy else 256, "trials": 16,
                                      "seed": rng.randrange(1000)}),
        Job("multiplier", "multiplier:heat", {"backend": rng.choice(BACKENDS),
                                              "scale": band((0.1, 10.0)),
                                              "p": rng.choice((1.25, 4 / 3, 1.5)),
                                              "q": rng.choice((3.0, 4.0, 6.0))}),
        # The convergence verdict compares successive differences, which
        # presumes a geometric time grid: decades from a seeded offset.
        Job("annuli", "annuli", {"times": [band((1e-2, 1e-1)) / 10 ** k for k in range(4)],
                                 "b": rng.choice((0.5, 1.0, 2.0)),
                                 "beta": rng.choice((0.5, 1.0)),
                                 "qstar": rng.choice((3.0, 4.0, 6.0))}),
    ]
    rng.shuffle(jobs)
    return jobs


def spectral_run(job: Job, ctx):
    lib = ctx["lib"]
    b = ctx["backends"]
    p = job.params
    if job.kind == "growth":
        return lib.verify_growth(b[p["backend"]], s_min=p["s_min"], s_max=p["s_max"],
                                 points_per_decade=p["ppd"])
    if job.kind == "count":
        return lib.counting_function(b[p["backend"]], p["s"])
    if job.kind == "heat_su2":
        return lib.heat_trace_l2(b["su2"], p["t"])
    if job.kind == "cross":
        return (lib.heat_trace_l2(b["heisenberg"], p["t"]),
                lib.h1_heat_kernel(2.0 * p["t"]))
    if job.kind == "kernel_grid":
        return [lib.h1_heat_kernel(p["t"], pt) for pt in p["points"]]
    if job.kind == "witness":
        return lib.torus_embedding_witness(p["n"], 2.0, 4.0, p["gamma"], p["trials"],
                                           p["K"], seed=p["seed"])
    if job.kind == "multiplier":
        be = b[p["backend"]]
        return lib.multiplier_norm_bound(lib.MultiplierSpec.heat(p["scale"]),
                                         p["p"], p["q"], be.Q_star, be.m)
    if job.kind == "annuli":
        params = lib.GaussianParams(1.0, p["b"], 0.0, 2.0, p["qstar"])
        return lib.annuli_integral_check(p["times"], params,
                                         lib.VolumeModel(p["qstar"], p["beta"]))
    raise ValueError(f"unknown spectral job kind {job.kind}")


def _isqrt_floor(a):
    """Exact floor(sqrt(a)) for an int64 numpy array of non-negative values."""
    import numpy as np
    r = np.floor(np.sqrt(a.astype(float))).astype(np.int64)
    r = np.where(r * r > a, r - 1, r)
    return np.where((r + 1) * (r + 1) <= a, r + 1, r)


def torus_count_oracle(n: int, s: float) -> int:
    """#{xi in Z^n : 0 < |xi|^2 < s/(4 pi^2)}, one math.isqrt per lattice line."""
    r2 = s / (4.0 * math.pi ** 2)          # the same float the library forms
    m = math.ceil(r2) - 1                  # |xi|^2 < r2  <=>  |xi|^2 <= m
    if m < 0:
        return 0

    def count(dim, budget):
        if dim == 1:
            return 2 * math.isqrt(budget) + 1
        k = math.isqrt(budget)
        return sum(count(dim - 1, budget - j * j) for j in range(-k, k + 1))

    return count(n, m) - 1


def su2_count_oracle(s: float) -> int:
    """Exact su2 count: level l contributes (2l+1) * #{k : l(l+1) - k^2 < s}."""
    import numpy as np
    top = math.ceil(s) - 1                 # integer eigenvalues < s are <= top
    lmax = math.ceil(s)
    if lmax <= 1:
        return 0
    l = np.arange(1, lmax, dtype=np.int64)
    g = l * (l + 1) - top                  # need k^2 >= g
    kmin = np.where(g <= 0, 0, _isqrt_floor(np.maximum(g - 1, 0)) + 1)
    per_level = np.where(kmin <= l, 2 * (l - kmin) + np.where(kmin == 0, 1, 2), 0)
    return int(((2 * l + 1) * per_level).sum())


def _count_oracle(backend: str, s: float):
    if backend.startswith("torus"):
        return torus_count_oracle(int(backend[5:]), s)
    if backend == "su2":
        return su2_count_oracle(s)
    return None


def spectral_check(job: Job, out, ctx, rng: random.Random) -> str | None:
    p = job.params
    if job.kind == "growth":
        if not out.passed:
            return f"growth verdict failed: exponent {out.fitted_exponent}"
        s, value = rng.choice(out.samples)
        want = _count_oracle(p["backend"], s)
        if want is not None and value != want:
            return f"count at s={s!r}: {value} != oracle {want}"
        return None
    if job.kind == "count":
        want = _count_oracle(p["backend"], p["s"])
        return None if out == want else f"count {out} != oracle {want}"
    if job.kind == "heat_su2":
        return None if math.isfinite(out) and out > 0 else f"heat trace {out}"
    if job.kind == "cross":
        trace, kernel = out
        rel = abs(trace - kernel) / abs(trace)
        return None if rel <= 1e-4 else f"cross-check rel diff {rel:.3e} > 1e-4"
    if job.kind == "kernel_grid":
        centre = 1.0 / (16.0 * p["t"] ** 2)
        bad = [v for v in out if not (0.0 < v <= centre * (1 + 1e-9))]
        return None if not bad else f"kernel values outside (0, centre]: {bad[:3]}"
    if job.kind == "witness":
        if not (math.isfinite(out.max_ratio) and out.max_ratio >= 1.0 - 1e-12):
            return f"witness max ratio {out.max_ratio}"
        if out.max_ratio != max(r for _, r in out.ratios):
            return "witness max ratio is not the max over candidates"
        return None
    if job.kind == "multiplier":
        be = ctx["backends"][p["backend"]]
        a = float(be.Q_star) / float(be.m) * (1 / p["p"] - 1 / p["q"])
        want = (a / (p["scale"] * math.e)) ** a      # sup of exp(-s x) x^a
        # The library's grid search stops once a refinement changes the
        # sup by < 1e-9; at the flat maximum that leaves ~1e-6 relative.
        rel = abs(out - want) / want
        return None if rel <= 1e-5 else f"multiplier bound {out} vs {want}"
    if job.kind == "annuli":
        return None if out.bounded and out.converging else "annuli verdict failed"
    return f"unknown kind {job.kind}"


def spectral_run_checks(done, ctx) -> dict[int, str]:
    """Checks that need the whole run: the su2 heat-trace decay verdict.

    Returns {id(job): message} for the jobs a failed verdict covers."""
    lib = ctx["lib"]
    heat = [(j, o) for j, o in done if j.kind == "heat_su2"]
    pts = sorted((j.params["t"], o) for j, o in heat)
    if len({t for t, _ in pts}) < 3:
        return {}
    fit = lib.fit_power_exponent(pts)
    target = -float(ctx["backends"]["su2"].growth_target)
    if abs(fit.exponent - target) <= 0.1:
        return {}
    msg = f"su2 heat trace decay exponent {fit.exponent:.4f} vs {target}"
    return {id(j): msg for j, _ in heat}


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

OUT = ".out/cli"          # relative to the benchmark directory


def cli_pool(bench_dir: str) -> dict[str, list[list[str]]]:
    """Named groups of liespec argv lists; a group runs as consecutive jobs."""
    out = f"{bench_dir}/{OUT}"
    return {
        "contract-su2": [["contract", "su2"]],
        "contract-heisenberg3": [["contract", "heisenberg3"]],
        "contract-engel4": [["contract", "engel4"]],
        "contract-sl2r-weights": [["contract", "sl2r", "--weights", "1,1"]],
        "contract-so3-csv": [["contract", "so3", "--format", "csv"]],
        "filtration-heisenberg2": [["filtration", "heisenberg2"]],
        "filtration-sl2r": [["filtration", "sl2r"]],
        "filtration-engel4": [["filtration", "engel4"]],
        "reduce-heisenberg1": [["reduce", "heisenberg1", "--weights", "1,1,3",
                                "--indices", "1,2,3"]],
        "reduce-engel4": [["reduce", "engel4", "--weights", "1,1,3,3",
                           "--indices", "1,2,3,4"]],
        "dimension-heisenberg4": [["dimension", "heisenberg4"]],
        "dimension-abelian5": [["dimension", "abelian5"]],
        "algebra-se2": [["algebra", "se2"]],
        "spec-heisenberg2": [["algebra", "heisenberg2", "--output", f"{out}/heisenberg2.json"],
                             ["contract", f"{out}/heisenberg2.json"]],
        "spec-engel4": [["algebra", "engel4", "--output", f"{out}/engel4.json"],
                        ["filtration", f"{out}/engel4.json"]],
        "form-rockland": [["form", "--kind", "rockland", "--weights", "1,2",
                           "--coeffs", "1,1", "--order", "4"]],
        # light lab subcommands
        "heat-trace-cross": [["heat-trace", "heisenberg", "--cross-check"]],
        "multiplier-bound": [["multiplier-bound", "heisenberg", "--phi", "heat",
                              "--scale", "1", "--p", "4/3", "--q", "4"]],
        "annuli": [["annuli", "--qstar", "4", "--m", "2", "--b", "1", "--beta", "1",
                    "--times", "1e-2,1e-3,1e-4"]],
        "form-rockland-check": [["form", "--kind", "sublaplacian", "--dim", "2",
                                 "--rockland-check", "16"]],
        "embedding-witness": [["embedding-witness", "--gamma", "0.25",
                               "--cutoffs", "8,16,32", "--check-plateau", "0.5"]],
        "verify-growth-torus2": [["verify-growth", "torus2"]],
        "envelope": [["envelope", "--points", "6"]],
    }


CLI_LAB = ("heat-trace-cross", "multiplier-bound", "annuli", "form-rockland-check",
           "embedding-witness", "verify-growth-torus2", "envelope")

# Relative float tolerance of each subcommand's own numerics: the heat-trace
# cross-check is certified to 1e-4, the other reports to their quadrature or
# search tolerance.
CLI_RTOL = {"heat-trace": 1e-4, "envelope": 1e-6, "form": 1e-6}
CLI_RTOL_DEFAULT = 1e-9


# cli-batch rounds are one command group each, exact-only or lab in this
# repeating pattern (3:2); every process costs about the same, so short
# rounds keep the overshoot past --seconds small.
CLI_PATTERN = ("exact", "lab", "exact", "exact", "lab")


def cli_round(pool: dict, rng: random.Random, index: int):
    exact = [k for k in pool if k not in CLI_LAB]
    name = rng.choice(exact if CLI_PATTERN[index % len(CLI_PATTERN)] == "exact" else CLI_LAB)
    return [Job("cli", name, {"argv": argv, "group": name, "step": step})
            for step, argv in enumerate(pool[name])]


def _close(a, b, rtol) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rtol) for x, y in zip(a, b))
    return a == b


def parse_cli_output(argv: list[str], stdout: str):
    """A report as data: JSON reports parsed, CSV rows split into fields."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        rows = [line.split(",") for line in stdout.splitlines()]
        return [[float(x) if _is_float(x) else x for x in row] for row in rows]
    return json.loads(stdout) if stdout.strip() else None


def _is_float(x: str) -> bool:
    try:
        float(x)
    except ValueError:
        return False
    return "." in x or "e" in x


def cli_check(job: Job, out, goldens) -> str | None:
    code, stdout, written = out
    golden = goldens["cli"][job.params["group"]][job.params["step"]]
    if code != golden["exit_code"]:
        return f"exit code {code} != {golden['exit_code']}"
    argv = job.params["argv"]
    rtol = CLI_RTOL.get(argv[0], CLI_RTOL_DEFAULT)
    got = parse_cli_output(argv, stdout)
    if not _close(got, golden["stdout"], rtol):
        return "stdout report differs from golden"
    if golden.get("written") is not None and not _close(
            json.loads(written or "null"), golden["written"], rtol):
        return "--output file differs from golden"
    return None
