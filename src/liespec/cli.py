"""Command-line interface: algebra ingestion, dispatch and report emission.

Algebra spec files are JSON with exact rational entries ("p/q" strings or
integers; floats are rejected).  Indices are 1-based in files and on the
command line, 0-based inside the library.

.. code-block:: json

    {
      "name": "h1",
      "dim": 3,
      "labels": ["X", "Y", "Z"],
      "brackets": [{"i": 1, "j": 2, "c": ["0", "0", "1"]}],
      "bases": {"canonical": {"indices": [1, 2], "weights": ["1", "1"]}},
      "metadata": {}
    }

Reports serialize as versioned JSON (everything) or CSV (the primary table).
Exit codes: 0 when every verdict passes, 1 when any verdict fails, 2 on
errors.  Reports are deterministic given (inputs, seed, version): rationals
are emitted as "p/q" strings, floats as shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .catalog import resolve as catalog_resolve
from .estimates import (
    GaussianParams,
    VolumeModel,
    annuli_integral_check,
    dyadic_series_bound,
    fit_gaussian_envelope,
    gaussian_envelope,
)
from .forms import (
    Form,
    adjoint,
    heisenberg_rockland_check,
    is_homogeneous,
    is_symmetric,
    order_compatibility,
    principal_part,
    rockland_power_form,
    sublaplacian_form,
)
from .lie_core import LieAlgebra
from .weighted import (
    WeightedBasis,
    _is_reduced,
    _reduce_basis,
    build_filtration,
    contract,
    filtration_law_holds,
    isomorphic_to_heisenberg1,
)

REPORT_SCHEMA = "liespec-report/1"


class CLIError(Exception):
    """User-facing command error (exit code 2)."""


# ---------------------------------------------------------------------------
# Algebra spec files
# ---------------------------------------------------------------------------

@dataclass
class AlgebraSpec:
    name: str
    algebra: LieAlgebra
    bases: dict[str, tuple[tuple[int, ...], tuple[Fraction, ...]]]
    metadata: dict

    def weighted_basis(self, basis_name: str = "canonical") -> WeightedBasis:
        if basis_name not in self.bases:
            raise CLIError(
                f"algebra {self.name!r} has no basis named {basis_name!r} "
                f"(available: {sorted(self.bases) or 'none'})")
        idx, w = self.bases[basis_name]
        return WeightedBasis(self.algebra, list(idx), list(w))


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise CLIError(f"{where}: expected an exact rational "
                       f"(integer or 'p/q' string), got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise CLIError(f"{where}: cannot parse rational {value!r}: {exc}")


def _catalog_spec(name: str) -> AlgebraSpec:
    entry = catalog_resolve(name)
    bases = {"canonical": (entry.generators, entry.generator_weights)}
    if entry.graded_weights is not None:
        bases["graded"] = (tuple(range(entry.algebra.dim)),
                           entry.graded_weights)
    return AlgebraSpec(entry.algebra.name, entry.algebra, bases, {})


def parse_algebra_spec(source: str) -> AlgebraSpec:
    """Resolve a catalog name or parse + validate a JSON algebra file."""
    try:
        return _catalog_spec(source)
    except KeyError:
        pass
    if not os.path.exists(source):
        raise CLIError(f"{source!r} is neither a catalog name nor a file")
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIError(f"{source}: JSON parse error at line {exc.lineno}, "
                       f"column {exc.colno}: {exc.msg}")
    return algebra_spec_from_dict(raw, where=source)


def algebra_spec_from_dict(raw: dict, where: str = "<spec>") -> AlgebraSpec:
    if not isinstance(raw, dict):
        raise CLIError(f"{where}: top level must be an object")
    try:
        dim = int(raw["dim"])
    except (KeyError, TypeError, ValueError):
        raise CLIError(f"{where}: missing or invalid 'dim'")
    name = str(raw.get("name", "algebra"))
    labels = raw.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != dim):
        raise CLIError(f"{where}: 'labels' must list {dim} names")
    structure = {}
    for k, entry in enumerate(raw.get("brackets", [])):
        loc = f"{where}: brackets[{k}]"
        if not isinstance(entry, dict):
            raise CLIError(f"{loc}: must be an object")
        try:
            i, j = int(entry["i"]), int(entry["j"])
        except (KeyError, TypeError, ValueError):
            raise CLIError(f"{loc}: needs integer fields 'i' and 'j'")
        if not (1 <= i < j <= dim):
            raise CLIError(f"{loc}: need 1 <= i < j <= dim, got ({i}, {j})")
        coeffs = entry.get("c")
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise CLIError(f"{loc}: 'c' must list {dim} rationals")
        structure[(i - 1, j - 1)] = [
            _rational(c, f"{loc}.c[{t}]") for t, c in enumerate(coeffs)]
    try:
        algebra = LieAlgebra(dim, structure, labels, name=name)
    except (ValueError, TypeError) as exc:
        raise CLIError(f"{where}: {exc}")
    jac = algebra.check_jacobi()
    if not jac.ok:
        i, j, k = (t + 1 for t in jac.triple)
        raise CLIError(
            f"{where}: Jacobi identity fails at basis triple ({i}, {j}, {k})")
    bases = {}
    for bname, bent in (raw.get("bases") or {}).items():
        loc = f"{where}: bases[{bname!r}]"
        if not isinstance(bent, dict):
            raise CLIError(f"{loc}: must be an object")
        idx = bent.get("indices")
        ws = bent.get("weights")
        if not isinstance(idx, list) or not isinstance(ws, list) \
                or len(idx) != len(ws):
            raise CLIError(f"{loc}: needs matching 'indices' and 'weights'")
        idx0 = []
        for t, i in enumerate(idx):
            if not isinstance(i, int) or not (1 <= i <= dim):
                raise CLIError(f"{loc}.indices[{t}]: out of range 1..{dim}")
            idx0.append(i - 1)
        weights = [_rational(w, f"{loc}.weights[{t}]")
                   for t, w in enumerate(ws)]
        try:
            WeightedBasis(algebra, idx0, weights)
        except ValueError as exc:
            raise CLIError(f"{loc}: {exc}")
        bases[str(bname)] = (tuple(idx0), tuple(weights))
    metadata = raw.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise CLIError(f"{where}: 'metadata' must be an object")
    return AlgebraSpec(name, algebra, bases, metadata)


def algebra_spec_to_dict(spec: AlgebraSpec) -> dict:
    brackets = []
    for (i, j, coeffs) in spec.algebra.structure_table():
        brackets.append({"i": i + 1, "j": j + 1,
                         "c": [str(c) for c in coeffs]})
    bases = {}
    for bname in sorted(spec.bases):
        idx, ws = spec.bases[bname]
        bases[bname] = {"indices": [i + 1 for i in idx],
                        "weights": [str(w) for w in ws]}
    return {
        "name": spec.name,
        "dim": spec.algebra.dim,
        "labels": list(spec.algebra.basis_labels),
        "brackets": brackets,
        "bases": bases,
        "metadata": spec.metadata,
    }


def _comma_list(flag: str, text: str, convert=None) -> list:
    """Split a comma list and convert each entry (exact rationals by
    default); a bad entry names its flag."""
    try:
        return [_rational(tok, flag) if convert is None else convert(tok)
                for tok in text.split(",")]
    except ValueError as exc:
        raise CLIError(f"{flag}: {exc}")


def _basis_from_args(spec: AlgebraSpec, args) -> WeightedBasis:
    """--weights/--indices override the named basis; weights alone apply to
    the first k basis vectors, and --indices needs --weights."""
    if args.indices and not args.weights:
        raise CLIError("--indices needs --weights")
    if args.weights:
        weights = _comma_list("--weights", args.weights)
        if args.indices:
            idx = []
            for i in _comma_list("--indices", args.indices, int):
                if not (1 <= i <= spec.algebra.dim):
                    raise CLIError(f"--indices: {i} out of range")
                idx.append(i - 1)
        else:
            idx = list(range(len(weights)))
        if len(idx) != len(weights):
            raise CLIError("--indices and --weights must have equal length")
        try:
            return WeightedBasis(spec.algebra, idx, weights)
        except ValueError as exc:
            raise CLIError(str(exc))
    return spec.weighted_basis(args.basis or "canonical")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list]


@dataclass
class CommandReport:
    command: list[str]
    seed: int
    normalization: str = ""
    notes: dict = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list)
    verdicts: dict[str, bool] = field(default_factory=dict)
    # when set, JSON emission writes this document instead of the report
    # wrapper (used by `algebra` so spec files round-trip byte-stably)
    document: dict | None = None

    @property
    def exit_code(self) -> int:
        return 0 if all(self.verdicts.values()) else 1

    def to_json(self) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "normalization": self.normalization,
            "notes": self.notes,
            "tables": {
                t.name: {"columns": t.columns, "rows": t.rows}
                for t in self.tables
            },
            "verdicts": self.verdicts,
        }
        return json.dumps(payload, indent=2, allow_nan=True) + "\n"

    def to_csv(self) -> str:
        if not self.tables:
            return ""
        table = self.tables[0]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
        return buf.getvalue()


def emit(report: CommandReport, fmt: str, path: str | None) -> str:
    if fmt == "json" and report.document is not None:
        text = json.dumps(report.document, indent=2) + "\n"
    else:
        text = report.to_json() if fmt == "json" else report.to_csv()
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _fmt_vector(v) -> str:
    return ",".join(str(c) for c in v)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_algebra(args, report) -> None:
    spec = parse_algebra_spec(args.algebra)
    payload = algebra_spec_to_dict(spec)
    report.document = payload
    table = Table("brackets", ["i", "j", "c"],
                  [[b["i"], b["j"], " ".join(b["c"])]
                   for b in payload["brackets"]])
    report.tables.append(table)
    report.verdicts["jacobi"] = True


def _cmd_contract(args, report) -> None:
    spec = parse_algebra_spec(args.algebra)
    basis = _basis_from_args(spec, args)
    graded = contract(spec.algebra, basis)
    report.notes["algebra"] = spec.name
    report.notes["Q_star"] = str(graded.homogeneous_dimension)
    report.notes["adapted_labels"] = list(graded.base.basis_labels)
    report.notes["layer_dims"] = [[str(w), d] for w, d in graded.layer_dims()]
    if graded.base.dim == 3:
        report.notes["isomorphic_to_heisenberg1"] = \
            isomorphic_to_heisenberg1(graded)
    rows = []
    for (i, j, coeffs) in graded.base.structure_table():
        for k, c in enumerate(coeffs):
            if c != 0:
                rows.append([i + 1, j + 1, k + 1, str(c)])
    report.tables.append(Table("structure", ["i", "j", "k", "coeff"], rows))
    report.tables.append(Table(
        "adapted_basis", ["index", "label", "weight", "vector"],
        [[k + 1, graded.base.basis_labels[k], str(graded.weights[k]),
          _fmt_vector(row)]
         for k, row in enumerate(graded.adapted_rows)]))
    report.verdicts["grading"] = True  # contract raises if grading fails


def _filtration_or_error(spec: AlgebraSpec, basis: WeightedBasis):
    try:
        return build_filtration(spec.algebra, basis)
    except ValueError:
        raise CLIError("the selected elements do not form an algebraic basis")


def _cmd_filtration(args, report) -> None:
    spec = parse_algebra_spec(args.algebra)
    filt = _filtration_or_error(spec, _basis_from_args(spec, args))
    rows = []
    for jump, space in zip(filt.jumps, filt.spaces):
        rows.append([str(jump), space.dim,
                     "; ".join(_fmt_vector(r) for r in space.rows)])
    report.tables.append(Table("filtration", ["jump", "dim", "basis_rows"], rows))
    report.verdicts["filtration_law"] = filtration_law_holds(spec.algebra, filt)


def _cmd_reduce(args, report) -> None:
    spec = parse_algebra_spec(args.algebra)
    basis = _basis_from_args(spec, args)
    before = _filtration_or_error(spec, basis)
    reduced = _reduce_basis(spec.algebra, basis, before)
    after = build_filtration(spec.algebra, reduced)
    rows = []
    for v, w, idx in zip(reduced.vectors, reduced.weights, reduced.indices):
        label = (spec.algebra.basis_labels[idx] if idx is not None
                 else _fmt_vector(v))
        rows.append([label, str(w)])
    report.tables.append(Table("reduced_basis", ["element", "weight"], rows))
    report.notes["input_size"] = len(basis)
    report.notes["output_size"] = len(reduced)
    report.verdicts["reduced"] = _is_reduced(spec.algebra, reduced,
                                             after).reduced
    report.verdicts["filtration_preserved"] = before == after


def _cmd_dimension(args, report) -> None:
    spec = parse_algebra_spec(args.algebra)
    basis = _basis_from_args(spec, args)
    graded = contract(spec.algebra, basis)
    report.notes["Q_star"] = str(graded.homogeneous_dimension)
    report.tables.append(Table(
        "layers", ["weight", "dim"],
        [[str(w), d] for w, d in graded.layer_dims()]))
    report.verdicts["grading"] = True  # contract raises if grading fails


def _parse_form(args) -> Form:
    if args.kind == "sublaplacian":
        if args.dim is None:
            raise CLIError("--kind sublaplacian needs --dim")
        return sublaplacian_form(args.dim)
    if args.kind == "rockland":
        if not (args.weights and args.coeffs and args.order):
            raise CLIError("--kind rockland needs --weights, --coeffs, --order")
        u = _comma_list("--weights", args.weights)
        c = _comma_list("--coeffs", args.coeffs)
        try:
            return rockland_power_form(u, c, _rational(args.order, "--order"))
        except ValueError as exc:
            raise CLIError(str(exc))
    if not (args.weights and args.coeff):
        raise CLIError("--kind custom needs --weights and --coeff entries")
    weights = _comma_list("--weights", args.weights)
    table = {}
    for item in args.coeff:
        where = f"--coeff {item!r}"
        if "=" not in item:
            raise CLIError(f"{where}: expected 'i,j,...=re[,im]'")
        alpha_s, _, val_s = item.partition("=")
        alpha = tuple(i - 1 for i in _comma_list(where, alpha_s, int))
        if val_s.count(",") > 1:
            raise CLIError(f"{where}: too many value parts")
        value = _comma_list(where, val_s)
        table[alpha] = value[0] if len(value) == 1 else tuple(value)
    try:
        return Form(table, weights)
    except ValueError as exc:
        raise CLIError(str(exc))


def _cmd_form(args, report) -> None:
    form = _parse_form(args)
    shown = form
    if args.show == "adjoint":
        shown = adjoint(form)
    elif args.show == "principal":
        shown = principal_part(form)
    rows = [[",".join(str(a + 1) for a in alpha), str(re), str(im)]
            for alpha, (re, im) in shown.items()]
    report.tables.append(Table("form", ["multi_index", "re", "im"], rows))
    report.notes["order"] = str(form.order)
    report.notes["weights"] = [str(w) for w in form.weights]
    report.notes["symmetric"] = is_symmetric(form)
    report.notes["homogeneous"] = is_homogeneous(form)
    report.notes["order_compatible"] = order_compatibility(form, form.weights)
    if args.rockland_check:
        lam_grid = _comma_list("--lambda-grid", args.lambda_grid, float)
        screen = heisenberg_rockland_check(form, args.rockland_check, lam_grid,
                                           n_characters=args.characters)
        report.tables.append(Table(
            "hermite_screen", ["lambda", "min_singular_value"],
            [[lam, sv] for lam, sv in screen.hermite_min_singular]))
        report.notes["realization"] = screen.realization
        report.notes["character_min"] = screen.character_min
        if screen.character_witness is not None:
            report.notes["character_witness"] = list(screen.character_witness)
        report.verdicts["rockland_screen"] = screen.passed


# The lab handlers import the numerics themselves, so that the exact
# commands start without numpy and scipy.

def _cmd_verify_growth(args, report) -> None:
    from .spectral import make_backend, verify_growth
    backend = make_backend(args.backend)
    growth = verify_growth(backend, s_min=args.s_from, s_max=args.s_to,
                           points_per_decade=args.points_per_decade,
                           tol=args.tol)
    report.normalization = backend.normalization
    verdict = "pass" if growth.passed else "fail"
    rows = [[s, v, growth.fitted_exponent, str(growth.target),
             growth.residual, verdict] for s, v in growth.samples]
    report.tables.append(Table(
        "growth", ["s", "value", "fitted", "target", "residual", "verdict"],
        rows))
    report.notes["fitted_exponent"] = growth.fitted_exponent
    report.notes["target"] = str(growth.target)
    report.notes["tolerance"] = growth.tolerance
    report.verdicts["growth"] = growth.passed


def _cmd_heat_trace(args, report) -> None:
    from .spectral import fit_power_exponent, heat_trace_l2, make_backend
    backend = make_backend(args.backend)
    times = sorted(_comma_list("--times", args.times, float))
    if any(t <= 0 for t in times):
        raise CLIError("--times must be positive")
    report.normalization = backend.normalization
    cross = args.cross_check
    if cross and backend.cross_check is None:
        raise CLIError("--cross-check is defined for the heisenberg backend")
    columns = ["t", "trace"]
    if cross:
        columns += ["kernel_2t", "rel_diff"]
    rows = []
    worst = 0.0
    for t in times:
        val = heat_trace_l2(backend, t)
        row = [t, val]
        if cross:
            other = backend.cross_check(t)
            rel = abs(val - other) / abs(val)
            worst = max(worst, rel)
            row += [other, rel]
        rows.append(row)
    report.tables.append(Table("heat_trace", columns, rows))
    if len(times) >= 3:
        fit = fit_power_exponent([(r[0], r[1]) for r in rows])
        report.notes["fitted_exponent"] = fit.exponent
        report.notes["target"] = str(-backend.growth_target)
        report.verdicts["decay_exponent"] = (
            abs(fit.exponent + float(backend.growth_target)) <= args.tol)
    if cross:
        report.notes["cross_check_max_rel"] = worst
        report.verdicts["cross_check"] = worst <= 1e-4


def _cmd_multiplier_bound(args, report) -> None:
    from .spectral import (MultiplierSpec, _lp_lq_exponent, heat_lp_lq_bound,
                           make_backend, multiplier_norm_bound)
    if args.backend:
        backend = make_backend(args.backend)
        q_star, m = backend.Q_star, backend.m
        report.normalization = backend.normalization
    else:
        if args.qstar is None or args.m is None:
            raise CLIError("give a backend or both --qstar and --m")
        q_star, m = _rational(args.qstar, "--qstar"), _rational(args.m, "--m")
        report.normalization = "abstract (Q*, m) supplied directly"
    if args.phi == "heat":
        phi = MultiplierSpec.heat(args.scale)
    else:
        phi = MultiplierSpec.power_decay(args.power)
    p, q = float(_rational(args.p, "--p")), float(_rational(args.q, "--q"))
    try:
        bound = multiplier_norm_bound(phi, p, q, q_star, m)
        heat_bound = (heat_lp_lq_bound(args.scale, p, q, q_star, m)
                      if args.phi == "heat" else None)
    except ValueError as exc:
        raise CLIError(str(exc))
    rows = [[phi.name, p, q, _lp_lq_exponent(p, q, q_star, m), bound]]
    report.tables.append(Table(
        "multiplier_bound", ["phi", "p", "q", "exponent_a", "bound"], rows))
    if heat_bound is not None:
        report.notes["heat_scaling_bound"] = heat_bound


def _cmd_embedding_witness(args, report) -> None:
    from .spectral import torus_embedding_witness
    cutoffs = _comma_list("--cutoffs", args.cutoffs, int)
    for flag, value in (("--check-plateau", args.check_plateau),
                        ("--check-growth", args.check_growth)):
        if value is not None and len(cutoffs) < 2:
            raise CLIError(f"{flag} needs at least two --cutoffs")
    p, q = float(_rational(args.p, "--p")), float(_rational(args.q, "--q"))
    report.normalization = f"probability Haar on [0,1)^{args.n}; >=4x oversampled"
    rows = []
    for cut in cutoffs:
        wit = torus_embedding_witness(args.n, p, q, args.gamma,
                                      trials=args.trials, freq_cutoff=cut,
                                      seed=report.seed)
        rows.append([cut, wit.max_ratio, wit.best_candidate])
    report.tables.append(Table(
        "witness", ["freq_cutoff", "max_ratio", "best_candidate"], rows))
    report.notes["gamma"] = args.gamma
    report.notes["certificate"] = "lower bounds only; never an upper bound"
    if args.check_plateau is not None:
        lo, hi = rows[-2][1], rows[-1][1]
        variation = abs(hi - lo) / max(lo, hi)
        report.notes["plateau_variation"] = variation
        report.verdicts["plateau"] = variation < args.check_plateau
    if args.check_growth is not None:
        growth = rows[-1][1] / rows[0][1]
        report.notes["ratio_growth"] = growth
        report.verdicts["growth"] = growth > args.check_growth


def _envelope_grid(t_min: float, t_max: float, r_max: float, points: int):
    """(t, r, group point) grid mixing planar, central and diagonal directions."""
    import numpy as np
    ts = np.logspace(math.log10(t_min), math.log10(t_max), points)
    rs = np.linspace(0.0, r_max, points)
    cells = []
    for t in ts:
        for j, r in enumerate(rs):
            r = float(r)
            if j % 3 == 0:
                pt = (r, 0.0, 0.0)
            elif j % 3 == 1:
                pt = (0.0, 0.0, r * r)
            else:
                w = r / 2.0 ** 0.25
                pt = (w, 0.0, w * w)
            cells.append((float(t), r, pt))
    return cells


def _cmd_envelope(args, report) -> None:
    from .spectral import h1_heat_kernel
    for flag, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if value <= 0:
            raise CLIError(f"{flag} must be positive, got {value}")
    cells = _envelope_grid(args.t_min, args.t_max, args.r_max, args.points)
    samples = [(t, r, h1_heat_kernel(t, pt)) for t, r, pt in cells]
    fit = fit_gaussian_envelope(samples, m=2.0, Q_star=4.0,
                                cap_factor=args.cap_factor)
    report.normalization = ("heisenberg kernel, Lebesgue Haar; quasi-norm "
                            "proxy ((x^2+y^2)^2 + u^2)^(1/4)")
    rows = []
    for (t, r, _), (_, _, v) in zip(cells, samples):
        rows.append([t, r, v, gaussian_envelope(t, r, fit.params)])
    report.tables.append(Table("envelope", ["t", "r", "kernel", "envelope"],
                               rows))
    report.notes["c"] = fit.params.c
    report.notes["b"] = fit.params.b
    report.notes["omega"] = fit.params.omega
    report.notes["margin"] = fit.margin
    report.verdicts["domination"] = fit.violations == 0


def _cmd_annuli(args, report) -> None:
    times = _comma_list("--times", args.times, float)
    q_star = float(_rational(args.qstar, "--qstar"))
    params = GaussianParams(1.0, args.b, 0.0, float(args.m), q_star)
    rep = annuli_integral_check(times, params, VolumeModel(q_star, args.beta))
    report.normalization = f"volume model r^Q* stitched to exp({args.beta}(r-1))"
    rows = [[row.t, row.integral, row.ratio, row.tail_bound,
             "pass" if row.certified else "fail"] for row in rep.rows]
    report.tables.append(Table(
        "annuli", ["t", "integral", "ratio", "certified_tail", "verdict"],
        rows))
    series = dyadic_series_bound(args.b, float(args.m), q_star)
    report.notes["dyadic_series"] = series.value
    report.notes["dyadic_tail"] = series.tail_bound
    report.notes["limit_estimate"] = rep.limit_estimate
    report.verdicts["finite"] = rep.bounded
    report.verdicts["converging"] = rep.converging


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _common_flags(p: argparse.ArgumentParser) -> None:
    # SUPPRESS defaults let the flags appear before or after the subcommand
    # without the subparser default clobbering an earlier occurrence.
    p.add_argument("--format", choices=["json", "csv"],
                   default=argparse.SUPPRESS,
                   help="report format (default json)")
    p.add_argument("--output", default=argparse.SUPPRESS,
                   help="write the report to a file")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="random seed (default: $LIESPEC_SEED or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liespec",
        description="Weighted Lie algebra contractions and spectral-growth "
                    "verification on torus / Heisenberg / SU(2) backends.")
    parser.add_argument("--version", action="version", version=__version__)
    _common_flags(parser)
    sub = parser.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("algebra", help="validate and emit an algebra spec")
    s.add_argument("algebra", help="catalog name or spec file path")
    s.set_defaults(handler=_cmd_algebra)

    for name, handler, text in [
            ("contract", _cmd_contract, "graded contraction of a weighted algebra"),
            ("filtration", _cmd_filtration, "filtration jumps and spaces"),
            ("reduce", _cmd_reduce, "reduce a weighted basis"),
            ("dimension", _cmd_dimension,
             "homogeneous dimension of the contraction")]:
        s = sub.add_parser(name, help=text)
        s.add_argument("algebra", help="catalog name or spec file path")
        s.add_argument("--basis", default="canonical",
                       help="named basis from the algebra file or catalog "
                            "entry (default: canonical)")
        s.add_argument("--weights",
                       help="comma list of rational weights; applies to the "
                            "first k basis vectors unless --indices is given")
        s.add_argument("--indices",
                       help="comma list of 1-based basis indices for --weights")
        s.set_defaults(handler=handler)

    s = sub.add_parser("form", help="build and inspect operator forms")
    s.add_argument("--kind", choices=["sublaplacian", "rockland", "custom"],
                   required=True)
    s.add_argument("--dim", type=int, help="generator count (sublaplacian)")
    s.add_argument("--weights", help="comma list of generator weights")
    s.add_argument("--coeffs", help="comma list of coefficients (rockland)")
    s.add_argument("--order", help="homogeneous order m (rockland)")
    s.add_argument("--coeff", action="append",
                   help="custom coefficient 'i,j,...=re[,im]' (repeatable)")
    s.add_argument("--show", choices=["form", "adjoint", "principal"],
                   default="form")
    s.add_argument("--rockland-check", type=int, metavar="N",
                   help="run the Hermite/character screen with N functions")
    s.add_argument("--lambda-grid", default="0.5,1,2,-1",
                   help="comma list of nonzero lambdas for the screen")
    s.add_argument("--characters", type=int, default=16,
                   help="character grid size on the unit circle")
    s.set_defaults(handler=_cmd_form)

    s = sub.add_parser("verify-growth", help="fit counting growth against Q*/m")
    s.add_argument("backend", help="torus<n>, heisenberg or su2")
    s.add_argument("--from", dest="s_from", type=float, default=1e3)
    s.add_argument("--to", dest="s_to", type=float, default=1e6)
    s.add_argument("--points-per-decade", type=int, default=20)
    s.add_argument("--tol", type=float, default=0.05)
    s.set_defaults(handler=_cmd_verify_growth)

    s = sub.add_parser("heat-trace", help="L2 heat trace over a time grid")
    s.add_argument("backend", help="torus<n>, heisenberg or su2")
    s.add_argument("--times", default="1e-3,1e-2,1e-1")
    s.add_argument("--tol", type=float, default=0.05)
    s.add_argument("--cross-check", action="store_true",
                   help="heisenberg only: compare against kernel quadrature")
    s.set_defaults(handler=_cmd_heat_trace)

    s = sub.add_parser("multiplier-bound",
                       help="sup_s phi(s) s^((Q*/m)(1/p-1/q))")
    s.add_argument("backend", nargs="?",
                   help="torus<n>, heisenberg or su2 (or use --qstar/--m)")
    s.add_argument("--qstar", help="homogeneous dimension override")
    s.add_argument("--m", help="operator order override")
    s.add_argument("--phi", choices=["heat", "power"], default="heat")
    s.add_argument("--scale", type=float, default=1.0,
                   help="s in exp(-s lam) for --phi heat")
    s.add_argument("--power", type=float, default=3.0,
                   help="k in (1+lam)^-k for --phi power")
    s.add_argument("--p", default="4/3")
    s.add_argument("--q", default="4")
    s.set_defaults(handler=_cmd_multiplier_bound)

    s = sub.add_parser("embedding-witness",
                       help="random/concentrated witness ratios on the torus")
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--p", default="2")
    s.add_argument("--q", default="4")
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--trials", type=int, default=16)
    s.add_argument("--cutoffs", default="8,16,32,64,128,256")
    s.add_argument("--check-plateau", type=float, default=None,
                   metavar="VARIATION",
                   help="verdict: last two cutoffs vary less than this")
    s.add_argument("--check-growth", type=float, default=None, metavar="FACTOR",
                   help="verdict: last/first ratio exceeds this factor")
    s.set_defaults(handler=_cmd_embedding_witness)

    s = sub.add_parser("envelope",
                       help="fit a Gaussian envelope over the heisenberg kernel")
    s.add_argument("--t-min", type=float, default=1e-2)
    s.add_argument("--t-max", type=float, default=1.0)
    s.add_argument("--r-max", type=float, default=3.0)
    s.add_argument("--points", type=int, default=20)
    s.add_argument("--cap-factor", type=float, default=50.0)
    s.set_defaults(handler=_cmd_envelope)

    s = sub.add_parser("annuli", help="dyadic annuli bound for the L2 integral")
    s.add_argument("--qstar", default="4")
    s.add_argument("--m", type=float, default=2.0)
    s.add_argument("--b", type=float, default=1.0)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--times", default="1e-2,1e-3,1e-4")
    s.set_defaults(handler=_cmd_annuli)

    for action in sub.choices.values():
        _common_flags(action)

    return parser


def dispatch(argv: list[str]) -> tuple[CommandReport, argparse.Namespace]:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(os.environ.get("LIESPEC_SEED", "0"))
    report = CommandReport(command=list(argv), seed=seed)
    args.handler(args, report)
    return report, args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        report, args = dispatch(argv)
    except (CLIError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(report, getattr(args, "format", "json"), getattr(args, "output", None))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
