import bisect
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
from liespec import spectral
from liespec.spectral import (
    MultiplierSpec,
    counting_function,
    fit_power_exponent,
    h1_counting_constant,
    h1_heat_kernel,
    heat_lp_lq_bound,
    heat_trace_l2,
    make_backend,
    multiplier_norm_bound,
    su2_sublaplacian_spectrum,
    torus_embedding_witness,
    verify_growth,
)

TORUS1 = make_backend("torus1")
TORUS2 = make_backend("torus2")
HEIS = make_backend("heisenberg")
SU2 = make_backend("su2")

SU2_ORACLE_TOP = 3000
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def su2_spectrum_up_to(top):
    """Brute-force su2 eigenvalues 0 < lam <= top with multiplicities.

    Enumerates the (l, k) pairs with lam = l(l+1) - k^2 <= top.  Level l
    only holds eigenvalues >= l, so levels up to top give all of them; on
    level l, |k| starts at the ceiling of sqrt(l(l+1) - top).
    """
    agg = {}
    for l in range(top + 1):
        excess = l * (l + 1) - top
        k_min = math.isqrt(excess - 1) + 1 if excess > 0 else 0
        for k in range(k_min, l + 1):
            ev = l * (l + 1) - k * k
            if ev > 0:
                agg[ev] = agg.get(ev, 0) + (2 * l + 1) * (2 if k else 1)
    return sorted(agg.items())


@pytest.fixture(scope="module")
def su2_spectrum():
    """su2 eigenvalues 0 < lam <= 3000 with multiplicities, checked against
    the library's full level enumeration where that is cheap."""
    spectrum = su2_spectrum_up_to(SU2_ORACLE_TOP)
    assert [(ev, m) for ev, m in spectrum if ev <= 200] == [
        (ev, m) for ev, m in su2_sublaplacian_spectrum(200) if 0 < ev <= 200]
    return spectrum


def su2_multiplicity(lam):
    """Multiplicity of lam from the factor pairs d <= e of
    4 lam + 1 = (2l+1-2|k|)(2l+1+2|k|): each gives 2l+1 = (d+e)/2, twice
    when k != 0."""
    n = 4 * lam + 1
    mult = 0
    for d in range(1, math.isqrt(n) + 1, 2):
        if n % d == 0:
            e = n // d
            mult += (d + e) // 2 * (1 if d == e else 2)
    return mult


def su2_irrep_generators(l):
    """Skew-hermitian irrep matrices E1, E2, E3 with [E1, E2] = E3."""
    m = np.arange(l, -l - 1, -1, dtype=float)
    dim = 2 * l + 1
    J3 = np.diag(m)
    Jp = np.zeros((dim, dim))
    for k in range(1, dim):
        mm = m[k]
        Jp[k - 1, k] = math.sqrt(l * (l + 1) - mm * (mm + 1))
    Jm = Jp.T
    J1 = (Jp + Jm) / 2.0
    J2 = (Jp - Jm) / 2j
    return -1j * J1, -1j * J2, -1j * J3


class TestBackends:
    def test_targets_from_contraction(self):
        assert TORUS1.Q_star == 1 and TORUS2.Q_star == 2
        assert HEIS.Q_star == 4 and SU2.Q_star == 4
        assert HEIS.m == 2

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            make_backend("sl2r")


class TestCountingFunction:
    def test_torus1_at_forty(self):
        # eigenvalues 4 pi^2 xi^2: only xi = +-1 fall in (0, 40)
        assert counting_function(TORUS1, 40.0) == 2

    def test_torus2_against_enumeration(self):
        # torus1 and torus3 too: torus3 sums z-lines over a quarter disc
        for n in (1, 2, 3):
            backend = make_backend(f"torus{n}")
            rng = random.Random(17)
            for _ in range(10):
                s = rng.uniform(30.0, 4000.0)
                r2 = s / (4 * math.pi ** 2)
                k = int(math.isqrt(int(r2)) + 2)
                grid = np.meshgrid(*[np.arange(-k, k + 1)] * n)
                norm2 = sum(g ** 2 for g in grid)
                inside = (norm2 < r2) & (norm2 != 0)
                assert counting_function(backend, s) == inside.sum(), (n, s)

    def test_su2_at_two(self):
        # l = 1, k = +-1 give eigenvalue 1 with multiplicity 3 each; the
        # eigenvalue 2 at k = 0 is excluded by the strict inequality
        assert counting_function(SU2, 2.0) == 6

    def test_su2_against_enumeration(self):
        rng = random.Random(5)
        # every integer >= 1 is an eigenvalue (k = l): integer s are ties
        ties = [1, 2, 5, 12, 57, 200]
        for s in [rng.uniform(1.0, 200.0) for _ in range(8)] + ties:
            brute = 0
            for l in range(0, int(s) + 2):
                for k in range(-l, l + 1):
                    ev = l * (l + 1) - k * k
                    if 0 < ev < s:
                        brute += 2 * l + 1
            assert counting_function(SU2, s) == brute, s

    def test_su2_levels_exact_beyond_float_precision(self):
        # l(l+1) > 2^53 near 1e8; a float threshold test dropped level
        # 99,999,999 at s = 99,999,999.5
        spectrum = dict(su2_sublaplacian_spectrum(80))
        assert all(su2_multiplicity(lam) == spectrum.get(lam, 0)
                   for lam in range(80))
        assert su2_multiplicity(99_999_999) == 407_286_432
        for lam in (99_999_999, 12_345):
            jump = SU2.count(lam + 0.5) - SU2.count(lam - 0.5)
            assert jump == su2_multiplicity(lam), lam

    def test_su2_exact_at_1e10(self):
        # about 2.5e20 states, beyond int64; the Weyl law N(s) ~ (pi^2/4) s^2
        n = SU2.count(1e10)
        assert isinstance(n, int)
        assert abs(n / 1e20 - math.pi ** 2 / 4) < 1e-9

    @PROPERTY
    @given(st.one_of(
        st.floats(0.0, SU2_ORACLE_TOP, exclude_min=True),
        st.integers(1, SU2_ORACLE_TOP).flatmap(
            lambda n: st.sampled_from([n, n - 1e-9, n + 1e-9]))))
    def test_su2_against_spectrum_oracle(self, su2_spectrum, s):
        evs = [ev for ev, _ in su2_spectrum]
        below = list(itertools.accumulate(m for _, m in su2_spectrum))
        i = bisect.bisect_left(evs, s)          # evs[:i] are < s
        assert SU2.count(s) == (below[i - 1] if i else 0)

    def test_heisenberg_exact_homogeneity(self):
        rng = random.Random(3)
        for _ in range(50):
            s = 10 ** rng.uniform(-2, 4)
            c = 10 ** rng.uniform(-2, 2)
            lhs = counting_function(HEIS, c * s)
            rhs = c * c * counting_function(HEIS, s)
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_heisenberg_doubling_is_four(self):
        for s in (0.5, 3.0, 1e4):
            assert math.isclose(
                counting_function(HEIS, 2 * s) / counting_function(HEIS, s),
                4.0, rel_tol=1e-12)

    def test_monotone_across_crossings(self):
        grids = {
            SU2: np.arange(0.25, 8.0, 0.25),
            TORUS1: np.arange(30.0, 180.0, 2.5),
        }
        for backend, grid in grids.items():
            vals = [counting_function(backend, float(s)) for s in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_strict_jump_side(self):
        # the eigenvalue itself is excluded: counting jumps just above it
        assert counting_function(SU2, 1.0) == 0
        assert counting_function(SU2, 1.0 + 1e-9) == 6

    def test_nonpositive_s(self):
        with pytest.raises(ValueError):
            counting_function(SU2, 0.0)

    def test_nan_and_infinite_s_named(self):
        for backend in (SU2, TORUS2, HEIS):
            with pytest.raises(ValueError, match="^s must be finite, got nan$"):
                counting_function(backend, math.nan)
            with pytest.raises(ValueError, match="^s must be finite, got inf$"):
                counting_function(backend, math.inf)
            with pytest.raises(ValueError, match="^s must be positive$"):
                counting_function(backend, -math.inf)
        with pytest.raises(ValueError, match="^s_min must be finite, got nan$"):
            verify_growth(SU2, s_min=math.nan)
        with pytest.raises(ValueError, match="^s_max must be finite, got inf$"):
            verify_growth(SU2, s_max=math.inf)
        with pytest.raises(ValueError, match="^s must be finite, got nan$"):
            verify_growth(SU2, s_grid=[1e1, 1e2, math.nan, 1e3, 1e4])

    def test_nonpositive_limits_named(self):
        with pytest.raises(ValueError, match="^s_min must be positive, got 0$"):
            verify_growth(SU2, s_min=0)
        with pytest.raises(ValueError,
                           match=r"^s_max must be positive, got -1\.0$"):
            verify_growth(SU2, s_min=1.0, s_max=-1.0)


class TestSu2Spectrum:
    def test_level_one_table(self):
        assert su2_sublaplacian_spectrum(1) == [(0, 1), (1, 6), (2, 3)]

    def test_trivial_level(self):
        assert su2_sublaplacian_spectrum(0) == [(0, 1)]

    def test_matches_irrep_matrix_oracle(self):
        l_max = 4
        agg = {}
        for l in range(l_max + 1):
            E1, E2, E3 = su2_irrep_generators(l)
            # bracket sanity on the oracle's own matrices
            assert np.allclose(E1 @ E2 - E2 @ E1, E3, atol=1e-12)
            op = -(E1 @ E1 + E2 @ E2)
            evs = np.linalg.eigvalsh(op)
            for ev in evs:
                key = round(float(ev.real))
                assert abs(ev - key) < 1e-9
                agg[key] = agg.get(key, 0) + (2 * l + 1)
        assert sorted(agg.items()) == su2_sublaplacian_spectrum(l_max)

    def test_casimir_is_scalar(self):
        for l in range(4):
            E1, E2, E3 = su2_irrep_generators(l)
            cas = -(E1 @ E1 + E2 @ E2 + E3 @ E3)
            assert np.allclose(cas, l * (l + 1) * np.eye(2 * l + 1), atol=1e-10)


class TestHeatKernel:
    def test_central_value_scales_like_t_minus_two(self):
        vals = [h1_heat_kernel(t) * t * t for t in (0.1, 0.05, 0.025)]
        for v in vals[1:]:
            assert abs(v - vals[0]) / vals[0] < 1e-6

    def test_inversion_symmetry(self):
        rng = random.Random(12)
        for _ in range(5):
            g = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                 rng.uniform(-2.0, 2.0))
            ginv = tuple(-c for c in g)
            a, b = h1_heat_kernel(0.3, g), h1_heat_kernel(0.3, ginv)
            assert abs(a - b) <= 1e-9 * max(abs(a), 1e-300)

    def test_probability_mass(self):
        t = 0.5
        xs, wx = np.polynomial.legendre.leggauss(48)
        rho = 6.0 * (xs + 1) / 2
        wr = wx * 3.0
        us = 25.0 * (xs + 1) / 2
        wu = wx * 12.5
        mass = 0.0
        for r, w1 in zip(rho, wr):
            for u, w2 in zip(us, wu):
                mass += w1 * w2 * 2 * math.pi * r * 2 * h1_heat_kernel(t, (r, 0, u))
        assert abs(mass - 1.0) < 1e-4

    def test_scaling_relation(self):
        # k_t(x, y, u) = t^-2 k_1(x/sqrt(t), y/sqrt(t), u/t)
        for t, g in [(0.25, (0.4, 0.1, 0.3)), (2.0, (1.0, -0.5, 0.8))]:
            lhs = h1_heat_kernel(t, g)
            rt = math.sqrt(t)
            rhs = h1_heat_kernel(1.0, (g[0] / rt, g[1] / rt, g[2] / t)) / t ** 2
            assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            h1_heat_kernel(0.0)


class TestHeatTrace:
    def test_torus1_poisson_oracle(self):
        for t in (1e-4, 1e-3, 1e-2):
            a = 8 * math.pi ** 2 * t
            theta = math.sqrt(math.pi / a) * sum(
                math.exp(-math.pi ** 2 * k * k / a) for k in range(-8, 9))
            oracle = theta - 1.0
            val = heat_trace_l2(TORUS1, t)
            assert abs(val - oracle) / oracle < 1e-10

    def test_torus1_small_time_exponent(self):
        ts = np.logspace(-8, -5, 12)
        fit = fit_power_exponent([(t, heat_trace_l2(TORUS1, t)) for t in ts])
        assert abs(fit.exponent + 0.5) < 0.05

    def test_heisenberg_cross_oracle(self):
        for t in (1e-3, 1e-2, 1e-1):
            trace = heat_trace_l2(HEIS, t)
            kernel = h1_heat_kernel(2 * t)
            assert abs(trace - kernel) / trace < 1e-4

    @PROPERTY
    @given(st.floats(0.02, 50.0))
    @example(10.0)      # a zero mode subtracted late would cost ~8 digits
    def test_su2_against_spectrum_oracle(self, su2_spectrum, t):
        # eigenvalues above 3000 weigh below exp(-120) of the total
        oracle = math.fsum(m * math.exp(-2.0 * t * ev)
                           for ev, m in su2_spectrum)
        assert abs(heat_trace_l2(SU2, t) - oracle) <= 1e-13 * oracle

    def test_su2_far_tail(self):
        # only the first diagonal survives; exp(-2000) underflows to 0, and
        # the tail certificate must still stop there and at t = inf
        assert heat_trace_l2(SU2, 200.0) == 1.1491017580284035e-173
        assert heat_trace_l2(SU2, 1e3) == 0.0
        assert heat_trace_l2(SU2, math.inf) == 0.0

    def test_nan_time_named(self):
        for backend in (SU2, TORUS2, HEIS):
            with pytest.raises(ValueError, match="^t must be a number, got nan$"):
                heat_trace_l2(backend, math.nan)
            with pytest.raises(ValueError, match="^t must be positive$"):
                heat_trace_l2(backend, 0.0)

    def test_su2_small_time_weyl_law(self):
        # trace ~ (pi^2/8) t^-2, from N(s) ~ (pi^2/4) s^2
        t = 1e-6
        assert abs(t * t * heat_trace_l2(SU2, t) / (math.pi ** 2 / 8)
                   - 1.0) < 1e-5

    def test_decreasing_in_t(self):
        for backend in (TORUS1, TORUS2, HEIS, SU2):
            ts = [0.05, 0.1, 0.3, 1.0]
            vals = [heat_trace_l2(backend, t) for t in ts]
            assert all(b < a for a, b in zip(vals, vals[1:])), backend.name


class TestDistributionConsistency:
    """heat_trace_l2 must equal the Stieltjes integral of exp(-2 t lam)
    against the counting function.  For the atomic backends the summation
    grid straddles the (known) eigenvalue locations so each atom's mass is
    read off as a difference of counting-function values; the Heisenberg
    measure is absolutely continuous and a midpoint sum converges."""

    def test_torus1(self):
        t = 0.004
        kmax = int(math.sqrt(40.0 / t) / (2 * math.pi)) + 2
        cuts = [4 * math.pi ** 2 * (k + 0.5) ** 2 for k in range(kmax)]
        oracle, prev = 0.0, 0.0
        for k in range(1, kmax):
            mass = counting_function(TORUS1, cuts[k]) - \
                counting_function(TORUS1, cuts[k - 1])
            oracle += mass * math.exp(-2 * t * 4 * math.pi ** 2 * k * k)
        assert abs(heat_trace_l2(TORUS1, t) - oracle) / oracle < 1e-6

    def test_su2(self):
        t = 0.05
        lam_max = int(30.0 / t)
        oracle = 0.0
        for lam in range(1, lam_max):
            mass = counting_function(SU2, lam + 0.5) - \
                counting_function(SU2, lam - 0.5)
            oracle += mass * math.exp(-2 * t * lam)
        assert abs(heat_trace_l2(SU2, t) - oracle) / oracle < 1e-6

    def test_heisenberg(self):
        t = 0.05
        lams = np.linspace(1e-9, 30.0 / t, 200_000)
        counts = np.array([counting_function(HEIS, s) for s in lams])
        mids = np.exp(-2 * t * (lams[:-1] + lams[1:]) / 2)
        oracle = float((mids * np.diff(counts)).sum())
        assert abs(heat_trace_l2(HEIS, t) - oracle) / oracle < 1e-6


# Largest R per n whose box, side 2 isqrt(R) + 1, holds at most ~1.6e5 points
ENUM_MAX_R = {1: 10_000, 2: 2_500, 3: 400, 4: 81, 5: 25}


def enumerated_ball_count(n, R):
    """#{xi in Z^n : |xi|^2 <= R} by summing squares over the whole box."""
    r = math.isqrt(R)
    squares = np.meshgrid(*[np.arange(-r, r + 1) ** 2] * n, sparse=True)
    return int(np.count_nonzero(sum(squares) <= R))


def hyperbola_divisor_sum(R):
    """S(R) = sum_m T(floor(R/m)), T(q) = q(q+1)/2, by Dirichlet's hyperbola
    method: sum_{d <= u} d floor(R/d) + sum_{m <= u} T(floor(R/m)) - u T(u),
    u = isqrt(R)."""
    u = math.isqrt(R)
    return (sum(d * (R // d) + (R // d) * (R // d + 1) // 2
                for d in range(1, u + 1)) - u * u * (u + 1) // 2)


class TestTorusLatticeCounts:
    """``_ball_count`` against enumeration, the old recursion kept in
    ``dense_oracle`` and Jacobi's four-square sum in an independent form."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(ENUM_MAX_R)).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, ENUM_MAX_R[n]))))
    @example((1, 0))
    @example((2, 0))
    @example((3, 0))
    @example((4, 0))
    @example((5, 0))
    @example((4, 4))
    @example((5, 25))
    def test_against_enumeration(self, case):
        n, R = case
        assert spectral._ball_count(n, R) == enumerated_ball_count(n, R)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]), st.integers(0, 10_000))
    @example(3, 10_000)
    @example(4, 10_000)
    @example(3, 300_000)
    def test_against_dense_recursion(self, n, R):
        assert spectral._ball_count(n, R) == dense_oracle._ball_count(n, R)

    @pytest.mark.parametrize("block", [1, 2, 7, 60])
    def test_any_block_size_gives_the_same_count(self, monkeypatch, block):
        # rows and, below the disc's width, columns split across blocks;
        # no pass hands _isqrt more than a block
        sizes = []
        isqrt = spectral._isqrt

        def spy(a):
            sizes.append(a.size)
            return isqrt(a)

        monkeypatch.setattr(spectral, "_BLOCK", block)
        monkeypatch.setattr(spectral, "_isqrt", spy)
        for n in (2, 3):
            for R in (0, 1, 2, 3, 4, 24, 25, 26, 99, 400, 1237):
                assert spectral._ball_count(n, R) == \
                    dense_oracle._ball_count(n, R), (n, R, block)
        assert max(sizes) <= block

    def test_torus4_exact_int_at_1e12(self):
        s = 1e12
        R = math.ceil(s / (4 * math.pi ** 2)) - 1
        count = make_backend("torus4").count(s)
        assert type(count) is int
        S = hyperbola_divisor_sum
        jacobi = 1 + 8 * S(R) - 32 * S(R // 4)
        assert count + 1 == jacobi
        # the lattice count of the 4-ball: volume (pi^2/2) R^2 + O(R log R)
        assert abs(jacobi - math.pi ** 2 / 2 * R * R) < 2 * R * math.log(R)

    def test_torus3_memory_bounded_at_1e8(self):
        R = math.ceil(1e8 / (4 * math.pi ** 2)) - 1
        torus3 = make_backend("torus3")
        tracemalloc.start()
        try:
            count = torus3.count(1e8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert count == dense_oracle._ball_count(3, R) - 1

    def test_int64_limit_raises_before_any_isqrt(self, monkeypatch):
        def unreachable(a):
            raise AssertionError("_isqrt called past the int64 limit")
        monkeypatch.setattr(spectral, "_isqrt", unreachable)
        s = 4.0 * math.pi ** 2 * 2 ** 62   # then the first s with R >= 2^62
        while math.ceil(s / (4.0 * math.pi ** 2)) - 1 < 2 ** 62:
            s = math.nextafter(s, math.inf)
        for n in (2, 3):
            with pytest.raises(ValueError, match=re.escape(f"s={s!r}")) as err:
                counting_function(make_backend(f"torus{n}"), s)
            assert "2^62" in str(err.value)
        # torus1 counts in Python ints: no limit
        R = math.ceil(s / (4.0 * math.pi ** 2)) - 1
        assert TORUS1.count(s) == 2 * math.isqrt(R)


class TestPowerFit:
    def test_exact_square_law(self):
        fit = fit_power_exponent([(s, s * s) for s in (1.0, 2.0, 5.0, 10.0)])
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_torus2_counting(self):
        ts = np.logspace(3, 6, 40)
        fit = fit_power_exponent([(s, counting_function(TORUS2, s)) for s in ts])
        assert abs(fit.exponent - 1.0) < 0.05

    def test_multiplicative_noise(self):
        rng = np.random.default_rng(0)
        s = np.logspace(1, 4, 60)
        noise = 1.0 + 0.01 * (2 * rng.random(60) - 1)
        fit = fit_power_exponent(list(zip(s, 3.0 * s ** 1.7 * noise)))
        assert abs(fit.exponent - 1.7) < 0.02
        assert fit.residual <= 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_exponent([(1.0, 1.0), (2.0, 4.0)])
        with pytest.raises(ValueError):
            fit_power_exponent([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)])


class TestVerifyGrowth:
    def test_heisenberg_exact(self):
        rep = verify_growth(HEIS, s_min=1e2, s_max=1e4)
        assert rep.passed
        assert rep.fitted_exponent == pytest.approx(2.0, abs=1e-9)
        assert rep.target == 2

    def test_torus1_small_grid(self):
        rep = verify_growth(TORUS1, s_min=1e3, s_max=1e5)
        assert rep.passed

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_growth(HEIS, s_grid=[1.0, 2.0, 3.0, 4.0, 5.0])


class TestMultiplierBound:
    def test_heat_profile_calculus_value(self):
        # a = 1: sup_lam lam e^{-s lam} = 1/(e s)
        for s in (0.1, 1.0, 10.0):
            phi = MultiplierSpec.heat(s)
            val = multiplier_norm_bound(phi, 4 / 3, 4, 4, 2)
            assert abs(val - 1 / (math.e * s)) * math.e * s < 1e-6

    def test_zero_exponent_returns_one(self):
        assert multiplier_norm_bound(MultiplierSpec.heat(1.0), 2, 2, 4, 2) == 1.0

    def test_power_decay_grid_search(self):
        # sup lam (1+lam)^-3 = 4/27 at lam = 1/2
        val = multiplier_norm_bound(MultiplierSpec.power_decay(3), 4 / 3, 4, 4, 2)
        assert abs(val - 4 / 27) < 1e-6 * 4 / 27

    def test_scaling_in_s(self):
        a = 1.0
        for s in (0.2, 1.0, 5.0):
            b1 = multiplier_norm_bound(MultiplierSpec.heat(s), 4 / 3, 4, 4, 2)
            b2 = multiplier_norm_bound(MultiplierSpec.heat(2 * s), 4 / 3, 4, 4, 2)
            assert abs(b2 - b1 / 2 ** a) / b1 < 1e-6

    def test_monotone_decreasing_in_s(self):
        vals = [multiplier_norm_bound(MultiplierSpec.heat(s), 4 / 3, 4, 4, 2)
                for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MultiplierSpec(lambda lam: 0.5, "bad-endpoint")
        with pytest.raises(ValueError):
            MultiplierSpec(lambda lam: math.exp(lam - 10) if lam < 10 else 1.0,
                           "increasing")
        with pytest.raises(ValueError):
            MultiplierSpec(lambda lam: 1.0, "no-decay")

    def test_endpoint_error_shows_a_plain_float(self):
        with pytest.raises(ValueError) as info:
            MultiplierSpec(lambda s: 0.5 * math.exp(-s), "half")
        assert str(info.value) == "phi(0) must be 1 (got 0.5)"

    def test_sampled_profile(self):
        lams = np.linspace(0.0, 50.0, 20001)
        phi = MultiplierSpec.from_samples(lams, np.exp(-lams))
        val = multiplier_norm_bound(phi, 4 / 3, 4, 4, 2)
        assert abs(val - 1 / math.e) < 1e-3

    def test_sampled_profile_between_samples(self):
        # the interpolant 0.45 (3 - s) on [1, 3] makes s phi(s) peak at
        # s = 1.5 with 1.0125, above every sample point's value (0.9 at s = 1)
        phi = MultiplierSpec.from_samples([0.0, 1.0, 3.0], [1.0, 0.9, 0.0])
        val = multiplier_norm_bound(phi, 4 / 3, 4, 4, 2)
        assert abs(val - 1.0125) < 1e-9

    def test_qstar_and_m_named(self):
        phi = MultiplierSpec.heat(1.0)
        for q_star, m, message in [
                (4, 0, "^m must be finite and positive, got 0$"),
                (4, -2, "^m must be finite and positive, got -2$"),
                (0, 2, "^Q_star must be finite and positive, got 0$"),
                (math.inf, 2, "^Q_star must be finite and positive, got inf$"),
                (4, math.nan, "^m must be finite and positive, got nan$")]:
            with pytest.raises(ValueError, match=message):
                multiplier_norm_bound(phi, 4 / 3, 4, q_star, m)
            with pytest.raises(ValueError, match=message):
                heat_lp_lq_bound(1.0, 4 / 3, 4, q_star, m)

    def test_pq_range(self):
        with pytest.raises(ValueError):
            multiplier_norm_bound(MultiplierSpec.heat(1.0), 1.0, 4, 4, 2)
        with pytest.raises(ValueError):
            multiplier_norm_bound(MultiplierSpec.heat(1.0), 2, math.inf, 4, 2)


class TestHeatLpLqBound:
    def test_identity_at_p_equals_q(self):
        assert heat_lp_lq_bound(7.3, 2, 2, 4, 2) == 1.0

    def test_direct_substitution(self):
        assert heat_lp_lq_bound(4.0, 4 / 3, 4, 4, 2) == pytest.approx(0.25)

    def test_homogeneity(self):
        # a = 2: doubling s quarters the bound
        b1 = heat_lp_lq_bound(1.0, 4 / 3, 4, 8, 2)
        b2 = heat_lp_lq_bound(2.0, 4 / 3, 4, 8, 2)
        assert b2 == pytest.approx(b1 / 4)


class TestEmbeddingWitness:
    def test_l2_to_l2_identity_bounded_by_one(self):
        rep = torus_embedding_witness(1, 2, 2, 0.0, trials=6, freq_cutoff=8)
        assert rep.max_ratio <= 1.0 + 1e-9

    def test_gamma_zero_ratio_grows(self):
        r8 = torus_embedding_witness(1, 2, 4, 0.0, trials=6, freq_cutoff=8)
        r64 = torus_embedding_witness(1, 2, 4, 0.0, trials=6, freq_cutoff=64)
        assert r64.max_ratio / r8.max_ratio > 1.5

    def test_critical_gamma_stable(self):
        r32 = torus_embedding_witness(1, 2, 4, 0.25, trials=6, freq_cutoff=32)
        r64 = torus_embedding_witness(1, 2, 4, 0.25, trials=6, freq_cutoff=64)
        assert abs(r64.max_ratio - r32.max_ratio) / r64.max_ratio < 0.2

    def test_deterministic_given_seed(self):
        a = torus_embedding_witness(1, 2, 4, 0.25, trials=5, freq_cutoff=16, seed=7)
        b = torus_embedding_witness(1, 2, 4, 0.25, trials=5, freq_cutoff=16, seed=7)
        assert a.max_ratio == b.max_ratio and a.ratios == b.ratios

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_embedding_witness(1, 2, 4, -0.1, 1, 8)
        with pytest.raises(ValueError):
            torus_embedding_witness(1, 2, 4, 0.1, 1, 0)
        for gamma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="gamma must be finite"):
                torus_embedding_witness(1, 2, 4, gamma, 1, 8)
        with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
            torus_embedding_witness(1, 2, 4, 0.25, -3, 8)
        with pytest.raises(ValueError, match="must be an integer, got 8.7"):
            torus_embedding_witness(1, 2, 4, 0.25, 1, 8.7)
        assert torus_embedding_witness(1, 2, 4, 0.25, 1, 8.0).freq_cutoff == 8

    def test_transforms_only_lines_that_can_be_nonzero(self, monkeypatch):
        # n = 2, K = 5: side 11, G = 44.  Per transform, the last axis is
        # padded and transformed on the 11 coefficient rows, then axis 0 on
        # all 44 columns; gamma = 0 transforms each candidate once.
        shapes = []
        ifft = np.fft.ifft

        def spy(a, *args, **kwargs):
            shapes.append((a.shape, kwargs["axis"]))
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        monkeypatch.setattr(np.fft, "ifftn", None)
        for gamma, per_candidate in ((0.0, 1), (0.25, 2)):
            shapes.clear()
            rep = torus_embedding_witness(2, 2, 4, gamma, 2, 5)
            pair = [((11, 44), 1), ((44, 44), 0)]
            assert shapes == pair * per_candidate * len(rep.ratios)


def _oracle_ratios(n, p, q, gamma, trials, K, seed):
    _, family = spectral._witness_family(n, K, trials, seed)
    return tuple((name, dense_oracle._torus_ratio(
        np.asarray(c, dtype=complex), p, q, gamma, 4)) for name, c in family)


PQ = [(2.0, 4.0), (1.5, 3.0), (4 / 3, 6.0)]


class TestWitnessDenseOracle:
    """Every ratio equals the dense zero-padded ``ifftn`` route's, bit for bit."""

    @pytest.mark.parametrize("p,q", PQ)
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("n,K", [(1, 16), (2, 8), (3, 3)])
    def test_dimensions(self, n, K, gamma, p, q):
        rep = torus_embedding_witness(n, p, q, gamma, 3, K, seed=11)
        assert rep.ratios == _oracle_ratios(n, p, q, gamma, 3, K, 11)

    # G = 172 = 4 * 43, 180 and 188 = 4 * 47: the spectral-lab cutoffs
    @pytest.mark.parametrize("p,q", [PQ[0], PQ[2]])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("K", [21, 22, 23])
    def test_awkward_grid_lengths(self, K, gamma, p, q):
        rep = torus_embedding_witness(2, p, q, gamma, 2, K, seed=K)
        assert rep.ratios == _oracle_ratios(2, p, q, gamma, 2, K, K)


class TestCountingConstant:
    def test_value_from_plancherel_sum(self):
        # (1/4pi^2) sum_k (2k+1)^-2, summed via the Hurwitz zeta value
        direct = sum(1.0 / (2 * k + 1) ** 2 for k in range(200000))
        direct += 1.0 / (4 * 200000)   # integral tail correction
        assert abs(h1_counting_constant() - direct / (4 * math.pi ** 2)) < 1e-10
