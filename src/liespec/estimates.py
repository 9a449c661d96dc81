"""Evaluable Gaussian heat-kernel envelopes and the dyadic-annuli bound.

The envelope has the shape

    c * t^{-Q*/m} * exp(omega t) * exp(-b (r^m / t)^{1/(m-1)}),

with r a homogeneous quasi-norm standing in for the control modulus, and the
annuli machinery bounds the integral of the squared Gaussian factor against
a two-regime volume model (polynomial r^{Q*} inside the unit ball, stitched
continuously to exponential growth exp(beta (r-1)) outside).

Reported numbers are certified partial sums: every truncation carries a
geometric tail bound, never a silent cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "GaussianParams", "VolumeModel", "gaussian_envelope",
    "DyadicSeriesBound", "dyadic_series_bound",
    "AnnuliRow", "AnnuliReport", "annuli_integral_check",
    "EnvelopeFit", "fit_gaussian_envelope",
]


@dataclass(frozen=True)
class GaussianParams:
    c: float
    b: float
    omega: float
    m: float
    Q_star: float

    def __post_init__(self):
        if self.c <= 0 or self.b <= 0:
            raise ValueError("c and b must be positive")
        if self.omega < 0:
            raise ValueError("omega must be >= 0")
        if self.m < 2:
            raise ValueError("order m must be >= 2")
        if self.Q_star <= 0:
            raise ValueError("Q_star must be positive")


def gaussian_envelope(t: float, r: float, params: GaussianParams) -> float:
    """Envelope value at time t and quasi-norm radius r."""
    if t <= 0:
        raise ValueError("t must be positive")
    if r < 0:
        raise ValueError("r must be >= 0")
    decay = (r ** params.m / t) ** (1.0 / (params.m - 1.0))
    return (params.c * t ** (-params.Q_star / params.m)
            * math.exp(params.omega * t) * math.exp(-params.b * decay))


@dataclass(frozen=True)
class VolumeModel:
    """|B_r| = r^{Q*} for r <= 1 stitched to exp(beta (r-1)) for r > 1."""

    Q_star: float
    beta: float

    def __post_init__(self):
        if self.Q_star <= 0 or self.beta <= 0:
            raise ValueError("Q_star and beta must be positive")

    def ball_volume(self, r: float) -> float:
        if r < 0:
            raise ValueError("r must be >= 0")
        if r <= 1.0:
            return r ** self.Q_star
        return math.exp(self.beta * (r - 1.0))


# ---------------------------------------------------------------------------
# Dyadic series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicSeriesBound:
    value: float
    tail_bound: float
    terms: int

    def __float__(self) -> float:
        return self.value


def dyadic_series_bound(b: float, m: float, Q_star: float,
                        tail_tol: float = 1e-12) -> DyadicSeriesBound:
    """sum_{j>=1} exp(-2b 2^{j/(m-1)}) 2^{(j+1) Q*/m} with a certified tail.

    The term ratio 2^{Q*/m} exp(-2b 2^{j/(m-1)} (2^{1/(m-1)} - 1)) is strictly
    decreasing in j, so once it drops below 1/2 the remainder is dominated by
    the geometric series with the current ratio.
    """
    if b <= 0 or m < 2 or Q_star <= 0:
        raise ValueError("need b > 0, m >= 2, Q_star > 0")
    e = 1.0 / (m - 1.0)
    growth = 2.0 ** (Q_star / m)
    total = 0.0
    j = 1
    while True:
        term = growth ** (j + 1) * math.exp(-2.0 * b * 2.0 ** (j * e))
        total += term
        ratio = growth * math.exp(-2.0 * b * 2.0 ** (j * e) * (2.0 ** e - 1.0))
        if ratio < 0.5:
            tail = term * ratio / (1.0 - ratio)
            if tail < tail_tol:
                return DyadicSeriesBound(total, tail, j)
        j += 1
        if j > 100000:
            raise AssertionError("dyadic series failed to certify a tail")


# ---------------------------------------------------------------------------
# Annuli decomposition of the squared-Gaussian integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnuliRow:
    t: float
    integral: float
    ratio: float            # integral / t^{Q*/m}
    tail_bound: float
    terms: int
    certified: bool


@dataclass(frozen=True)
class AnnuliReport:
    rows: tuple[AnnuliRow, ...]
    bounded: bool
    converging: bool
    limit_estimate: float


def _annuli_integral(t: float, params: GaussianParams, volume: VolumeModel,
                     tail_rel: float = 1e-12) -> tuple[float, float, int, bool]:
    """Upper bound for the integral of exp(-2b (|x|^m/t)^{1/(m-1)}).

    The space is cut at radii R_j = (2^j t)^{1/m}: a ball for j = 0 and
    annuli between R_j and R_{j+1} on which the integrand is bounded by its
    value at the inner radius; annulus measures come from the volume model.
    The Gaussian exponent grows like 2^{j/(m-1)} while the model volume
    exponent grows like 2^{j/m}, so the term ratio is eventually decreasing
    below any threshold and a geometric tail certificate applies.
    """
    e = 1.0 / (params.m - 1.0)

    def radius(j: int) -> float:
        return (2.0 ** j * t) ** (1.0 / params.m)

    total = volume.ball_volume(radius(1))   # j = 0: sup = 1 on the ball
    prev_vol = volume.ball_volume(radius(1))
    j = 1
    prev_term = None
    decreasing_run = 0
    while True:
        vol_out = volume.ball_volume(radius(j + 1))
        shell = max(vol_out - prev_vol, 0.0)
        term = math.exp(-2.0 * params.b * 2.0 ** (j * e)) * shell
        total += term
        if prev_term is not None and prev_term > 0:
            ratio = term / prev_term
            decreasing_run = decreasing_run + 1 if ratio < 0.5 else 0
            if decreasing_run >= 3 and term > 0:
                tail = term * ratio / (1.0 - ratio)
                if tail < tail_rel * max(total, 1e-300):
                    return total, tail, j, True
        if term == 0.0 and j > 60:
            # underflowed terms: remainder is below float resolution
            return total, 0.0, j, True
        prev_term = term
        prev_vol = vol_out
        j += 1
        if j > 100000:
            return total, float("inf"), j, False


def annuli_integral_check(t_grid: Sequence[float], params: GaussianParams,
                          volume: VolumeModel,
                          tail_rel: float = 1e-12) -> AnnuliReport:
    """Evaluate the annuli bound over a time grid and study I(t)/t^{Q*/m}."""
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] <= 0:
        raise ValueError("time grid must be positive")
    rows = []
    for t in ts:
        integral, tail, terms, certified = _annuli_integral(
            t, params, volume, tail_rel)
        ratio = integral / t ** (params.Q_star / params.m)
        rows.append(AnnuliRow(t, integral, ratio, tail, terms, certified))
    # convergence is studied toward t -> 0
    rows_desc = sorted(rows, key=lambda r: -r.t)
    ratios = [r.ratio for r in rows_desc]
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    converging = all(d2 <= d1 + 1e-12 * max(ratios)
                     for d1, d2 in zip(diffs, diffs[1:]))
    limit = ratios[-1]
    if len(diffs) >= 2 and diffs[-2] > 0:
        rho = diffs[-1] / diffs[-2]
        if 0.0 < rho < 0.95:
            direction = 1.0 if ratios[-1] >= ratios[-2] else -1.0
            limit = ratios[-1] + direction * diffs[-1] * rho / (1.0 - rho)
    bounded = all(r.certified for r in rows) and all(
        math.isfinite(r.integral) for r in rows)
    return AnnuliReport(tuple(rows), bounded, converging, limit)


# ---------------------------------------------------------------------------
# Envelope fitting against kernel samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeFit:
    params: GaussianParams
    margin: float            # min envelope / kernel over the fit samples
    cap_factor: float
    violations: int


_B_CANDIDATES = (1.0, 0.7, 0.5, 0.35, 0.25, 0.18, 0.12, 0.08, 0.06,
                 0.045, 0.035, 0.025, 0.018, 0.012, 0.008, 0.005)


def fit_gaussian_envelope(samples: Sequence[tuple[float, float, float]],
                          m: float, Q_star: float,
                          b_candidates: Sequence[float] = _B_CANDIDATES,
                          cap_factor: float = 50.0,
                          safety: float = 1.02) -> EnvelopeFit:
    """Fit (c, b) with omega = 0 so the envelope dominates the samples.

    ``samples`` are (t, r, value) triples.  For each candidate decay rate b
    the minimal admissible c is the sup of value * t^{Q*/m} * exp(+b decay);
    the largest b whose c stays within ``cap_factor`` of the b -> 0 limit is
    selected, trading sharp decay against a sane constant.  Kernel values at
    or below zero (quadrature noise deep in the tail) impose no constraint.
    """
    if not samples:
        raise ValueError("need at least one sample")
    if cap_factor <= 0:
        raise ValueError(f"cap_factor must be positive, got {cap_factor}")
    e = 1.0 / (m - 1.0)
    positive = [(t, (r ** m / t) ** e, v) for t, r, v in samples if v > 0.0]
    if not positive:
        raise ValueError("all samples are nonpositive; nothing to fit")

    def log_c_required(b: float) -> float:
        return max(math.log(v) + (Q_star / m) * math.log(t) + b * decay
                   for t, decay, v in positive)

    log_c0 = log_c_required(0.0)
    chosen_b, chosen_log_c = None, None
    for b in sorted(b_candidates, reverse=True):
        log_c = log_c_required(b)
        if log_c <= log_c0 + math.log(cap_factor):
            chosen_b, chosen_log_c = b, log_c
            break
    if chosen_b is None:
        chosen_b = min(b_candidates)
        chosen_log_c = log_c_required(chosen_b)
    params = GaussianParams(math.exp(chosen_log_c) * safety, chosen_b,
                            0.0, m, Q_star)

    margin = float("inf")
    violations = 0
    for t, r, v in samples:
        env = gaussian_envelope(t, r, params)
        if v > env:
            violations += 1
        if v > 0:
            margin = min(margin, env / v)
    return EnvelopeFit(params, margin, cap_factor, violations)
