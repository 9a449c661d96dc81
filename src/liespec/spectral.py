"""Concrete spectral backends and growth-law verification.

Three backends, one ``SpectralBackend`` subclass each, are provided:

* ``torus(n)``: probability Haar on [0,1)^n, Laplacian eigenvalues
  |2 pi xi|^2 over the integer lattice;
* ``heisenberg``: Lebesgue Haar on R^3 in exponential coordinates, the
  standard sub-Laplacian on the 3-dimensional Heisenberg group; its
  ``cross_check(t)`` is the heat kernel at 2t, a second heat-trace route;
* ``su2``: probability Haar, the invariant sub-Laplacian built from two of
  the three rotation generators, spectrum l(l+1) - k^2 with multiplicity
  2l+1 per weight vector, integer l.  On a diagonal a = l - |k| >= 0, with
  c = 2a+1, eigenvalue a(a+1) + |k|c and multiplicity c + 2|k| are arithmetic
  in |k|: below an integer top it holds c(2K+1) + 2K(K+1) states, K =
  (top - a(a+1)) // c, and its heat sum is exp(-2t a(a+1)) (c(1+q)/(1-q) +
  4q/(1-q)^2), q = exp(-2tc).  So counting is exact for every s in O(sqrt s)
  time and O(1) memory, and the heat trace takes O(t^-1/2) terms.

Counting always refers to the open spectral interval (0, s): zero modes are
excluded, values at eigenvalue crossings follow the strict inequality.

For the Heisenberg backend, the counting constant is computed from the
fiberwise Landau-level decomposition (density of states |lam|/2pi per level
and per unit area, partial Fourier weight dlam/2pi):

    N(s) = (1/4pi^2) int_R sum_k 1{(2k+1)|lam| < s} |lam| dlam
         = (1/4pi^2) sum_k (s/(2k+1))^2 = kappa s^2,
    kappa = (1/4pi^2) sum_{k>=0} (2k+1)^{-2} = zeta(2, 1/2) / (16 pi^2).

The same decomposition yields the heat kernel used by ``h1_heat_kernel``;
agreement of the two routes is part of the acceptance suite rather than an
assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

import numpy as np

from .catalog import resolve
from .weighted import WeightedBasis, contract

__all__ = [
    "SpectralBackend", "make_backend", "counting_function",
    "su2_sublaplacian_spectrum", "h1_heat_kernel", "heat_trace_l2",
    "PowerFit", "fit_power_exponent", "GrowthReport", "verify_growth",
    "MultiplierSpec", "multiplier_norm_bound", "heat_lp_lq_bound",
    "EmbeddingWitnessReport", "torus_embedding_witness",
    "h1_counting_constant", "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot certify the requested accuracy."""


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralBackend:
    """One group's spectrum: ``count(s)`` on (0, s) with multiplicity,
    ``heat_trace(t)``, and ``cross_check``: None or a second route to it."""
    name: str
    Q_star: Fraction
    m: Fraction
    normalization: str
    cross_check: ClassVar[Callable[[float], float] | None] = None

    @property
    def growth_target(self) -> Fraction:
        return self.Q_star / self.m

    def count(self, s: float) -> float:
        raise NotImplementedError

    def heat_trace(self, t: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class _Torus(SpectralBackend):
    n: int

    def count(self, s: float) -> int:
        # integer |xi|^2 < radius2 iff |xi|^2 <= ceil(radius2) - 1
        radius2 = s / (4.0 * math.pi ** 2)
        R = math.ceil(radius2) - 1
        if self.n in (2, 3) and R >= _INT64_LIMIT:
            raise ValueError(
                f"torus{self.n} counts need s/(4 pi^2) <= 2^62 "
                f"(s <= {4.0 * math.pi ** 2 * _INT64_LIMIT:.6g}), got s={s!r}")
        return _ball_count(self.n, R) - 1

    def heat_trace(self, t: float) -> float:
        a = 8.0 * math.pi ** 2 * t      # theta(a) = sum_{k in Z} exp(-a k^2)
        k = np.arange(1, int(math.ceil(math.sqrt(45.0 / a))) + 2, dtype=float)
        theta = 1.0 + 2.0 * float(np.exp(-a * k * k).sum())
        return theta ** self.n - 1.0


class _Heisenberg(SpectralBackend):
    def count(self, s: float) -> float:
        return h1_counting_constant() * s * s

    def heat_trace(self, t: float) -> float:
        # int_0^inf exp(-2 t lam) d(kappa lam^2) = kappa / (2 t^2)
        return h1_counting_constant() / (2.0 * t * t)

    def cross_check(self, t: float) -> float:
        return h1_heat_kernel(2.0 * t)


class _Su2(SpectralBackend):
    # Sums along diagonals a = l - |k| (module docstring), c = 2a+1: count
    # exact in Python ints, O(sqrt s) time, O(1) memory; heat trace O(t^-1/2).
    def count(self, s: float) -> int:
        top = math.ceil(s) - 1          # integer eigenvalues below s
        total = -1                      # the zero mode (a, k) = (0, 0)
        for c in range(1, math.isqrt(4 * top + 1) + 1, 2):  # a(a+1) <= top
            K = (top - c * c // 4) // c         # c*c // 4 = a(a+1)
            total += c * (2 * K + 1) + 2 * K * (K + 1)
        return total

    def heat_trace(self, t: float) -> float:
        A = int(math.sqrt(40.0 / t)) + 1
        while True:
            c = 2.0 * np.arange(A + 2) + 1.0            # diagonals 0..A+1
            r = np.exp(-2.0 * t * c) / -np.expm1(-2.0 * t * c)     # q/(1-q)
            # c(1+q)/(1-q) + 4q/(1-q)^2 = c + 2r(c + 2 + 2r); a = 0 leaves out
            # its leading c, the zero mode, as subtracting it cancels digits
            diag = 2.0 * r * (c + 2.0 + 2.0 * r)
            diag[1:] += c[1:]
            w = np.exp(-0.5 * t * (c[1:] ** 2 - 1))  # exp(-2t a(a+1)), a >= 1
            total = float(diag[0] + (w[:-1] * diag[1:-1]).sum())
            # Past A, weights fall by rho <= exp(-4t(A+2)) per diagonal and
            # diag/c falls: the tail is below sum_i rho^i (c + 2i) diag/c
            one_rho = -math.expm1(-4.0 * t * (A + 2))
            tail = w[-1] * diag[-1] / one_rho * (
                1.0 + 2.0 * (1.0 - one_rho) / (c[-1] * one_rho))
            if tail < 1e-15 * max(total, 1e-300):
                return total
            A *= 2


def _contracted_qstar(catalog_name: str) -> Fraction:
    entry = resolve(catalog_name)
    basis = WeightedBasis(entry.algebra, list(entry.generators),
                          list(entry.generator_weights))
    return contract(entry.algebra, basis).homogeneous_dimension


def make_backend(name: str) -> SpectralBackend:
    """Backends by name: 'torus<n>', 'heisenberg', 'su2'.

    The homogeneous dimension is computed by contracting the backend's
    catalog algebra with its canonical generator basis, never hand-entered.
    """
    key = name.strip().lower()
    if key.startswith("torus"):
        n = int(key[len("torus"):] or "1")
        if n < 1:
            raise ValueError("torus dimension must be >= 1")
        q = _contracted_qstar(f"abelian{n}")
        return _Torus(
            f"torus{n}", q, Fraction(2),
            "probability Haar on [0,1)^n; eigenvalues |2*pi*xi|^2", n)
    if key == "heisenberg":
        # count, heat_trace and cross_check need scipy: load it with the
        # backend, so that no later call pays the import
        import scipy.integrate  # noqa: F401
        import scipy.special  # noqa: F401
        q = _contracted_qstar("heisenberg1")
        return _Heisenberg(
            "heisenberg", q, Fraction(2),
            "Lebesgue Haar on R^3 (exponential coordinates); "
            "Landau-fiber Plancherel |lam| dlam / (2 pi)^2")
    if key == "su2":
        q = _contracted_qstar("su2")
        return _Su2(
            "su2", q, Fraction(2),
            "probability Haar; integer highest weights, eigenvalues "
            "l(l+1) - k^2 with multiplicity 2l+1")
    raise KeyError(f"unknown backend {name!r} (use torus<n>, heisenberg, su2)")


# ---------------------------------------------------------------------------
# Counting functions and heat traces
# ---------------------------------------------------------------------------

def _isqrt(a: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(a)) for an int64 array with 0 <= a < 2^62: there the
    float root is off by at most one and (r+1)^2 does not overflow."""
    r = np.sqrt(a.astype(np.float64)).astype(np.int64)
    r -= r * r > a
    r += (r + 1) * (r + 1) <= a
    return r


_INT64_LIMIT = 2 ** 62   # n = 2, 3 count in int64 through _isqrt
_BLOCK = 1 << 16         # most array entries one numpy pass holds


def _divisor_sum(R: int) -> int:
    """S(R) = sum_{d <= R} d * floor(R/d), in O(sqrt R) blocks of d that
    share q = floor(R/d)."""
    total, d = 0, 1
    while d <= R:
        q = R // d
        e = R // q                  # the last d with floor(R/d) = q
        total += q * (d + e) * (e - d + 1) // 2
        d = e + 1
    return total


def _ball_count(n: int, R: int) -> int:
    """#{xi in Z^n : |xi|^2 <= R} for an integer R >= 0, origin included.
    n = 2, 3 need R < 2^62; their arrays never exceed _BLOCK entries."""
    if n == 1:
        return 2 * math.isqrt(R) + 1
    if n == 4:      # Jacobi: r_4(m) = 8 sigma(m) - 32 sigma(m/4), summed
        return 1 + 8 * _divisor_sum(R) - 32 * _divisor_sum(R // 4)
    kmax = math.isqrt(R)
    if n > 4:
        return sum(_ball_count(n - 1, R - k * k) * (2 if k else 1)
                   for k in range(kmax + 1))
    # n = 2, 3: lines along the last axis, L = 2 isqrt(R - k^2 [- j^2]) + 1,
    # summed over k >= 0 (k, j >= 0 for n = 3) as half.  Mirroring counts
    # the axes twice: N_2 = 2 half - L(0), N_3 = 4 half - 2 N_2 - L(0).
    line0 = 2 * kmax + 1
    half = 0
    if n == 2:
        for k0 in range(0, kmax + 1, _BLOCK):
            k = np.arange(k0, min(k0 + _BLOCK, kmax + 1), dtype=np.int64)
            half += 2 * int(_isqrt(R - k * k).sum()) + len(k)
        return 2 * half - line0
    # rectangles of rows k0.. as wide as row k0, the widest; cells outside
    # the quarter disc have rem < 0 and add nothing once rem is clipped to 0
    k0 = 0
    while k0 <= kmax:
        width = math.isqrt(R - k0 * k0) + 1
        k = np.arange(k0, min(k0 + max(_BLOCK // width, 1), kmax + 1),
                      dtype=np.int64)
        rows = (R - k * k)[:, None]
        for j0 in range(0, width, _BLOCK):
            j = np.arange(j0, min(j0 + _BLOCK, width), dtype=np.int64)
            rem = rows - j * j
            half += int(np.count_nonzero(rem >= 0))
            half += 2 * int(_isqrt(np.maximum(rem, 0, out=rem)).sum())
        k0 += len(k)
    return 4 * half - 2 * _ball_count(2, R) - line0


def h1_counting_constant() -> float:
    """kappa with N(s) = kappa * s^2, from the documented Plancherel sum."""
    from scipy.special import zeta
    odd_inverse_square_sum = float(zeta(2, 0.5)) / 4.0
    return odd_inverse_square_sum / (4.0 * math.pi ** 2)


def counting_function(backend: SpectralBackend, s: float) -> float:
    """Spectral counting over the open interval (0, s); zero modes excluded.
    A float for reports: exact below 2^53 (su2 passes it near s = 9.5e7).
    NaN and s = inf have no finite count and are rejected by value."""
    if s != s or s == math.inf:
        raise ValueError(f"s must be finite, got {s}")
    if s <= 0:
        raise ValueError("s must be positive")
    return float(backend.count(s))


def heat_trace_l2(backend: SpectralBackend, t: float) -> float:
    """L2 norm squared of the heat kernel, integrated against the counting
    measure over (0, inf); zero modes never contribute.  t = inf gives 0.0;
    NaN is rejected by value."""
    if t != t:
        raise ValueError(f"t must be a number, got {t}")
    if t <= 0:
        raise ValueError("t must be positive")
    return backend.heat_trace(t)


def su2_sublaplacian_spectrum(l_max: int) -> list[tuple[int, int]]:
    """Aggregated (eigenvalue, multiplicity) pairs for integer levels <= l_max."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    agg: dict[int, int] = {}
    for l in range(l_max + 1):
        for k in range(-l, l + 1):
            ev = l * (l + 1) - k * k
            agg[ev] = agg.get(ev, 0) + (2 * l + 1)
    return sorted(agg.items())


# ---------------------------------------------------------------------------
# Heisenberg heat kernel (fiberwise Landau / Mehler formula)
# ---------------------------------------------------------------------------

def _mehler_factors(lam: float, t: float, rho2: float) -> float:
    """(lam/sinh(lam t)) * exp(-lam*coth(lam t)*rho2/4), stable near lam=0."""
    lt = lam * t
    if lt > 700.0:
        return 0.0
    if lt < 1e-8:
        g = (1.0 - lt * lt / 6.0) / t
        q = (1.0 + lt * lt / 3.0) / t
    else:
        s = math.sinh(lt)
        g = lam / s
        q = lam * math.cosh(lt) / s
    return g * math.exp(-q * rho2 / 4.0)


def h1_heat_kernel(t: float, point: Sequence[float] = (0.0, 0.0, 0.0),
                   rtol: float = 1e-9) -> float:
    """Heat kernel of the Heisenberg sub-Laplacian at time t and a group point.

    Coordinates (x, y, u) are exponential coordinates with group law
    (x,y,u)(x',y',u') = (x+x', y+y', u+u'+(x y' - y x')/2); the kernel is the
    inverse partial Fourier transform (in u) of the fiber Mehler kernels:

        k_t(x,y,u) = (1/4pi^2) * int_0^inf cos(lam u) (lam/sinh(lam t))
                       exp(-lam coth(lam t) (x^2+y^2)/4) dlam.

    The normalization makes the kernel a probability density.  Values below
    the quadrature resolution floor (~1e-12 of the central value t^{-2}/16)
    carry no certified digits; larger values are accurate to ``rtol``.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    from scipy.integrate import quad
    x, y, u = (float(c) for c in point)
    rho2 = x * x + y * y
    prefactor = 1.0 / (4.0 * math.pi ** 2)

    def f(lam: float) -> float:
        return _mehler_factors(lam, t, rho2)

    # Absolute-value tail: for lam*t >= 3 the integrand is below
    # 2.2*lam*exp(-rate*lam) with rate = t + 0.99*rho2/4.
    rate = t + 0.2475 * rho2
    cutoff = max(60.0 / rate, 6.0 / t)
    tail = 2.2 * math.exp(-rate * cutoff) * (cutoff / rate + 1.0 / rate ** 2)

    if u == 0.0:
        res = quad(f, 0.0, cutoff, epsabs=1e-300, epsrel=min(rtol, 1e-9),
                   limit=400, full_output=1)
    else:
        res = quad(f, 0.0, cutoff, weight="cos", wvar=abs(u),
                   epsabs=1e-300, epsrel=min(rtol, 1e-9),
                   limit=2000, full_output=1)
    val, err = res[0], res[1]
    val *= prefactor
    err = err * prefactor + tail * prefactor
    resolution_floor = 1e-12 / (16.0 * t * t)
    if err > max(rtol * abs(val), resolution_floor):
        raise QuadratureError(
            f"heat kernel quadrature did not converge at t={t}, point="
            f"({x}, {y}, {u}): value {val:.3e}, error estimate {err:.3e}")
    return val


# ---------------------------------------------------------------------------
# Power-law fitting and growth verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerFit:
    exponent: float
    log_intercept: float
    residual: float          # max |log v - (a log s + b)|, natural log


def fit_power_exponent(samples: Sequence[tuple[float, float]]) -> PowerFit:
    """Ordinary least squares in log-log coordinates."""
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    s = np.array([p[0] for p in samples], dtype=float)
    v = np.array([p[1] for p in samples], dtype=float)
    if np.any(s <= 0) or np.any(v <= 0):
        raise ValueError("samples must be strictly positive")
    ls, lv = np.log(s), np.log(v)
    slope, intercept = np.polyfit(ls, lv, 1)
    residual = float(np.max(np.abs(lv - (slope * ls + intercept))))
    return PowerFit(float(slope), float(intercept), residual)


@dataclass(frozen=True)
class GrowthReport:
    backend: str
    samples: tuple[tuple[float, float], ...]
    fitted_exponent: float
    log_intercept: float
    target: Fraction
    residual: float
    tolerance: float
    passed: bool
    normalization: str


def verify_growth(backend: SpectralBackend,
                  s_grid: Sequence[float] | None = None,
                  s_min: float = 1e3, s_max: float = 1e6,
                  points_per_decade: int = 20,
                  tol: float = 0.05) -> GrowthReport:
    """Fit the counting function's growth exponent against Q*/m.

    The target comes from the contraction machinery via the backend; it is
    never hand-entered here.  A NaN, infinite or nonpositive
    ``s_min``/``s_max`` is rejected by name and value; explicit grid points
    meet the same checks in ``counting_function``.
    """
    if s_grid is None:
        for name, s in (("s_min", s_min), ("s_max", s_max)):
            if not math.isfinite(s):
                raise ValueError(f"{name} must be finite, got {s}")
            if s <= 0:
                raise ValueError(f"{name} must be positive, got {s}")
        decades = math.log10(s_max) - math.log10(s_min)
        npts = max(int(round(decades * points_per_decade)) + 1, 5)
        s_grid = list(np.logspace(math.log10(s_min), math.log10(s_max), npts))
    s_grid = sorted(float(s) for s in s_grid)
    if len(s_grid) < 5 or s_grid[0] <= 0 or s_grid[-1] / s_grid[0] < 99.0:
        raise ValueError("grid must span at least two decades with >= 5 points")
    samples = tuple((s, counting_function(backend, s)) for s in s_grid)
    fit = fit_power_exponent(samples)
    target = backend.growth_target
    passed = abs(fit.exponent - float(target)) <= tol
    return GrowthReport(backend.name, samples, fit.exponent,
                        fit.log_intercept, target, fit.residual, tol, passed,
                        backend.normalization)


# ---------------------------------------------------------------------------
# Multiplier bound functional
# ---------------------------------------------------------------------------

def _check_pq(p: float, q: float) -> None:
    if not (1.0 < p <= 2.0 <= q) or not math.isfinite(q):
        raise ValueError(f"need 1 < p <= 2 <= q < inf, got p={p}, q={q}")


class MultiplierSpec:
    """A decreasing multiplier profile phi with phi(0) = 1 and phi -> 0.

    A closed-form callable, or the piecewise-linear interpolant of a sample
    grid (zero past the last sample).  Validation checks the endpoints and
    monotonicity on a wide logarithmic probe grid.
    """

    def __init__(self, evaluate: Callable[[float], float], name: str,
                 probe_max: float = 1e12, tail_threshold: float = 1e-3):
        self.evaluate = evaluate
        self.name = name
        probe = np.concatenate(([0.0], np.logspace(-10, math.log10(probe_max), 221)))
        vals = np.array([float(evaluate(x)) for x in probe])
        if abs(vals[0] - 1.0) > 1e-12:
            raise ValueError(f"phi(0) must be 1 (got {float(vals[0])!r})")
        if np.any(np.diff(vals) > 1e-12):
            raise ValueError("phi must be non-increasing")
        if vals[-1] > tail_threshold:
            raise ValueError(
                f"phi does not decay: phi({probe[-1]:.2e}) = {vals[-1]:.3e}")

    @staticmethod
    def heat(s: float) -> "MultiplierSpec":
        if s <= 0:
            raise ValueError("heat multiplier needs s > 0")
        return MultiplierSpec(lambda lam: math.exp(-s * lam), f"exp(-{s}*lam)",
                              probe_max=max(1e12, 1e4 / s))

    @staticmethod
    def power_decay(k: float) -> "MultiplierSpec":
        if k <= 0:
            raise ValueError("power decay needs k > 0")
        return MultiplierSpec(lambda lam: (1.0 + lam) ** (-k),
                              f"(1+lam)^-{k}", tail_threshold=1e-3)

    @staticmethod
    def from_samples(lams: Sequence[float], values: Sequence[float]) -> "MultiplierSpec":
        lams = np.asarray(lams, dtype=float)
        values = np.asarray(values, dtype=float)
        if lams.ndim != 1 or lams.shape != values.shape or len(lams) < 3:
            raise ValueError("need matching 1-d sample arrays with >= 3 points")
        if lams[0] != 0.0:
            raise ValueError("sample grid must start at lam = 0")
        if np.any(np.diff(lams) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        if np.any(np.diff(values) > 1e-12):
            raise ValueError("sampled multiplier values must be non-increasing")
        if abs(values[0] - 1.0) > 1e-12:
            raise ValueError("phi(0) must be 1")
        if values[-1] > 1e-3:
            raise ValueError("sampled multiplier does not decay")

        def interp(lam: float) -> float:
            if lam > lams[-1]:
                return 0.0
            return float(np.interp(lam, lams, values))

        return MultiplierSpec(interp, f"samples[{len(lams)}]")


def _lp_lq_exponent(p: float, q: float, Q_star, m) -> float:
    """a = (Q*/m)(1/p - 1/q); Q* and m must be finite and positive."""
    _check_pq(p, q)
    for name, value in (("Q_star", Q_star), ("m", m)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    return float(Q_star) / float(m) * (1.0 / p - 1.0 / q)


def multiplier_norm_bound(phi: MultiplierSpec, p: float, q: float,
                          Q_star, m) -> float:
    """sup_{s>0} phi(s) s^a with a = (Q*/m)(1/p - 1/q), by refined grid search."""
    a = _lp_lq_exponent(p, q, Q_star, m)
    if a == 0.0:
        return float(phi.evaluate(0.0))

    lo, hi = 1e-12, 1e12
    best = 0.0
    for _ in range(8):
        grid = np.logspace(math.log10(lo), math.log10(hi), 481)
        vals = np.array([phi.evaluate(x) for x in grid]) * grid ** a
        i = int(np.argmax(vals))
        best = float(vals[i])
        if i == 0:
            lo, hi = lo * 1e-6, grid[2]
            continue
        if i == len(grid) - 1:
            lo, hi = grid[-3], hi * 1e6
            continue
        lo, hi = grid[i - 1], grid[i + 1]
        break
    else:
        raise ValueError("sup phi(s) s^a did not localize; phi decays too slowly")

    prev = best
    for _ in range(60):
        grid = np.logspace(math.log10(lo), math.log10(hi), 65)
        vals = np.array([phi.evaluate(x) for x in grid]) * grid ** a
        i = int(np.argmax(vals))
        best = float(vals[i])
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        if abs(best - prev) <= 1e-9 * max(best, 1e-300):
            break
        prev = best
    return best


def heat_lp_lq_bound(s: float, p: float, q: float, Q_star, m) -> float:
    """Unit-constant heat semigroup bound s^{-(Q*/m)(1/p - 1/q)}."""
    a = _lp_lq_exponent(p, q, Q_star, m)
    if s <= 0:
        raise ValueError("s must be positive")
    return s ** (-a)


# ---------------------------------------------------------------------------
# Embedding witness on the torus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingWitnessReport:
    max_ratio: float
    best_candidate: str
    freq_cutoff: int
    gamma: float
    p: float
    q: float
    trials: int
    seed: int
    ratios: tuple[tuple[str, float], ...]


def _witness_family(n: int, K: int, trials: int,
                    seed: int) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]]:
    """|xi|^2 on the coefficient box [-K, K]^n and the named candidates."""
    side = 2 * K + 1
    grids = np.meshgrid(*([np.arange(-K, K + 1)] * n), indexing="ij")
    absmax = np.max(np.stack([np.abs(g) for g in grids]), axis=0)
    lat2 = sum(g.astype(float) ** 2 for g in grids)

    widths = []
    w = 1
    while w <= K:
        widths.append(w)
        w *= 2
    if widths[-1] != K:
        widths.append(K)

    candidates: list[tuple[str, np.ndarray]] = []
    const = np.zeros((side,) * n)
    const[(K,) * n] = 1.0
    candidates.append(("constant", const))
    for w in widths:
        mode = np.zeros((side,) * n)
        mode[(K + w,) + (K,) * (n - 1)] = 1.0
        candidates.append((f"mode[{w}]", mode))
        candidates.append((f"dirichlet[{w}]", (absmax <= w).astype(float)))
        fejer = np.ones((side,) * n)
        for g in grids:
            fejer = fejer * np.clip(1.0 - np.abs(g) / (w + 1.0), 0.0, None)
        candidates.append((f"fejer[{w}]", fejer))
        candidates.append((f"gauss[{w}]", np.exp(-lat2 / (2.0 * w * w))))

    rng = np.random.default_rng(seed)
    for trial in range(trials):
        w = widths[int(rng.integers(0, len(widths)))]
        profile = np.exp(-lat2 / (2.0 * w * w))
        noise = rng.standard_normal((side,) * n) \
            + 1j * rng.standard_normal((side,) * n)
        candidates.append((f"random[{trial}]", noise * profile))
    return lat2, candidates


def _padded_ifftn(coeffs: np.ndarray, G: int, pads: list[np.ndarray]) -> np.ndarray:
    """|G^n ifftn| of the box placed at frequencies -K..K mod G on a G^n grid.

    ``np.fft.ifftn`` runs one ``np.fft.ifft`` pass per axis, last axis
    first.  This runs the same passes in the same order but pads each axis
    to G only just before its own pass, so a pass transforms only the lines
    that can be nonzero.  ``pads[axis]`` is a zeroed buffer of shape
    (2K+1,)*axis + (G,)*(n-axis); each call rewrites the same entries, so
    the rest stays zero.
    """
    K = (coeffs.shape[0] - 1) // 2
    c = coeffs
    for axis in reversed(range(coeffs.ndim)):
        pad = pads[axis]
        head = (slice(None),) * axis
        pad[head + (slice(0, K + 1),)] = c[head + (slice(K, None),)]
        pad[head + (slice(G - K, None),)] = c[head + (slice(0, K),)]
        c = np.fft.ifft(pad, axis=axis)
    c *= G ** coeffs.ndim
    return np.abs(c)


def torus_embedding_witness(n: int, p: float, q: float, gamma: float,
                            trials: int, freq_cutoff: int,
                            seed: int = 0,
                            oversample: int = 4) -> EmbeddingWitnessReport:
    """Max observed ||f||_q / ||(1+L)^gamma f||_p over a witness family.

    The family mixes deterministic concentrated candidates (Dirichlet, Fejer
    and Gaussian coefficient profiles of dyadic widths, single modes, the
    constant) with seeded random trigonometric polynomials; every candidate
    certifies a lower bound for the embedding constant, never an upper bound.
    Norms are computed on a >= 4x oversampled grid, exact for the p, q = 2, 4
    cases by bandwidth counting.

    Cost: with side = 2K+1 and G = oversample * side, each candidate takes
    sum_{j<n} side^(n-1-j) G^j inverse line transforms of length G (side + G
    for n = 2), twice when gamma > 0 and once when gamma == 0, where
    (1+L)^0 f is f.  Candidates are transformed one at a time, so memory is
    O(G^n) above the O(trials * side^n) family.
    """
    _check_pq(p, q)
    if not gamma >= 0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not float(freq_cutoff).is_integer():
        raise ValueError(f"freq_cutoff must be an integer, got {freq_cutoff}")
    if freq_cutoff < 1:
        raise ValueError("freq_cutoff must be >= 1")
    if n < 1:
        raise ValueError("torus dimension must be >= 1")
    if oversample < 4:
        raise ValueError("grid must be at least 4x oversampled")

    K = int(freq_cutoff)
    side = 2 * K + 1
    G = oversample * side
    lat2, candidates = _witness_family(n, K, trials, seed)
    symbol = (1.0 + 4.0 * math.pi ** 2 * lat2) ** gamma
    pads = [np.zeros((side,) * axis + (G,) * (n - axis), dtype=complex)
            for axis in range(n)]

    ratios = []
    best, best_name = 0.0, ""
    for name_c, c in candidates:
        coeffs = np.asarray(c, dtype=complex)
        f = _padded_ifftn(coeffs, G, pads)
        g = f if gamma == 0 else _padded_ifftn(coeffs * symbol, G, pads)
        num = float(np.mean(f ** q) ** (1.0 / q))
        den = float(np.mean(g ** p) ** (1.0 / p))
        r = 0.0 if den == 0.0 else num / den
        ratios.append((name_c, r))
        if r > best:
            best, best_name = r, name_c
    return EmbeddingWitnessReport(best, best_name, K, gamma, p, q, trials,
                                  seed, tuple(ratios))
