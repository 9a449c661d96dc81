"""Differential tests: the sparse exact core against the dense oracle.

``dense_oracle`` holds the dense ``bracket``, ``check_jacobi`` and
``_rref`` loops.  The sparse paths must return the same Fractions, the same
Jacobi verdict, failing triple and residual, and the same contractions.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from liespec import lie_core, weighted
from liespec.catalog import resolve
from liespec.lie_core import (
    LieAlgebra, Subspace, _rref, solve_coordinates, span)
from liespec.weighted import WeightedBasis, contract

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
# Strategies draw one seed and build the example from it, which keeps the
# large tables cheap to generate.
SEEDS = st.integers(0, 2 ** 32 - 1)

CATALOG = ["abelian1", "abelian2", "abelian3", "abelian5", "engel4", "su2",
           "so3", "sl2r", "se2", "heisenberg"] \
    + [f"heisenberg{n}" for n in range(1, 13)]
DENSE_BASES = ["su2", "so3", "sl2r", "se2", "engel4", "abelian3",
               "heisenberg1", "heisenberg2", "heisenberg3"]


def _scalar(rnd, fractional, zero_share):
    if rnd.random() < zero_share:
        return Fraction(0)
    num = rnd.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(num, rnd.choice((1, 2, 3, 5)) if fractional else 1)


@st.composite
def tables(draw):
    """Random antisymmetric tables, dims 3-7: sparse or dense, with integer
    or fractional constants.  Most of them fail Jacobi."""
    rnd = random.Random(draw(SEEDS))
    dim = draw(st.integers(3, 7))
    sparse = draw(st.booleans())
    fractional = draw(st.booleans())
    pair_share, zero_share = (0.3, 0.7) if sparse else (1.0, 0.1)
    structure = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if rnd.random() < pair_share:
                structure[(i, j)] = [_scalar(rnd, fractional, zero_share)
                                     for _ in range(dim)]
    return LieAlgebra(dim, structure)


def _vector(rnd, dim):
    return tuple(_scalar(rnd, rnd.random() < 0.5, 0.4) for _ in range(dim))


def _change_of_basis(L, rnd):
    """The same algebra in the basis f_a = rows[a], with rows = D L U for
    unit-triangular L, U (entries -1/0/1) and a rational diagonal D."""
    d = L.dim
    low = [[Fraction(int(i == j)) if j >= i else Fraction(rnd.choice((-1, 0, 1)))
            for j in range(d)] for i in range(d)]
    up = [[Fraction(int(i == j)) if j <= i else Fraction(rnd.choice((-1, 0, 1)))
           for j in range(d)] for i in range(d)]
    diag = [rnd.choice((Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3)))
            for _ in range(d)]
    rows = [tuple(diag[i] * sum((low[i][t] * up[t][j] for t in range(d)),
                                Fraction(0)) for j in range(d))
            for i in range(d)]
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    coords = solve_coordinates(
        rows, [L.bracket(rows[a], rows[b]) for a, b in pairs])
    structure = dict(zip(pairs, coords))
    return LieAlgebra(d, structure, name=L.name + "~"), rows


@pytest.fixture
def dense_path(monkeypatch):
    """Route the library through the dense oracle loops."""
    def use():
        monkeypatch.setattr(LieAlgebra, "bracket", dense_oracle.bracket)
        monkeypatch.setattr(LieAlgebra, "check_jacobi",
                            dense_oracle.check_jacobi)
        monkeypatch.setattr(lie_core, "_rref", dense_oracle._rref)
    return use


class TestJacobi:
    @PROPERTY
    @given(tables())
    def test_report_matches_dense(self, L):
        fast = L.check_jacobi()
        assert fast == dense_oracle.check_jacobi(L)
        if not fast.ok:
            assert all(type(c) is Fraction for c in fast.residual)

    def test_algebras_in_random_bases(self):
        rnd = random.Random(41)
        for name in DENSE_BASES + ["heisenberg4"]:
            L, _ = _change_of_basis(resolve(name).algebra, rnd)
            assert L.check_jacobi() == dense_oracle.check_jacobi(L)
            assert L.check_jacobi().ok, name


class TestBracket:
    @PROPERTY
    @given(tables(), SEEDS)
    def test_matches_dense(self, L, seed):
        rnd = random.Random(seed)
        for _ in range(5):
            x, y = _vector(rnd, L.dim), _vector(rnd, L.dim)
            fast = L.bracket(x, y)
            assert fast == dense_oracle.bracket(L, x, y)
            assert all(type(c) is Fraction for c in fast)

    def test_basis_pairs_both_orders(self):
        L = resolve("engel4").algebra
        for i, x in enumerate(L.basis()):
            for j, y in enumerate(L.basis()):
                assert L.bracket(x, y) == dense_oracle.bracket(L, x, y), (i, j)


@st.composite
def matrices(draw):
    """Rows with zero rows, repeats of earlier rows and rows of Python
    ints mixed in; 0-7 rows of 1-7 columns."""
    rnd = random.Random(draw(SEEDS))
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(1, 7))
    zero_share = draw(st.sampled_from((0.0, 0.4, 0.8)))
    rows = []
    for _ in range(n_rows):
        kind = rnd.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * n_cols)
        elif kind < 0.3 and rows:
            rows.append(list(rnd.choice(rows)))
        elif kind < 0.5:
            rows.append([int(_scalar(rnd, False, zero_share))
                         for _ in range(n_cols)])
        else:
            rows.append([_scalar(rnd, True, zero_share)
                         for _ in range(n_cols)])
    return rows


class TestRref:
    @PROPERTY
    @given(matrices())
    def test_matches_dense(self, rows):
        fast = _rref([list(r) for r in rows])
        oracle = dense_oracle._rref([[Fraction(a) for a in r] for r in rows])
        assert fast == oracle
        assert all(type(a) is Fraction for row in fast for a in row)

    def test_span_shares_unchanged_rows_and_copies_lists(self):
        e1 = (Fraction(1), Fraction(0), Fraction(0))
        v = [Fraction(2), Fraction(4), Fraction(0)]
        S = span([e1, v], 3)
        assert S.rows == ((1, 0, 0), (0, 1, 0))
        assert S.rows[0] is e1
        assert v == [2, 4, 0]

    def test_int_rows_come_out_as_fractions(self):
        # pivot already 1 (no scaling) and an untouched int column
        out = _rref([[1, 0, 2], [0, 1, 3], [2, 2, 10]])
        assert out == [[1, 0, 2], [0, 1, 3]]
        assert all(type(a) is Fraction for row in out for a in row)


def _in_basis(rows, indices):
    d = len(rows)
    return solve_coordinates(rows, [tuple(Fraction(int(k == g))
                                          for k in range(d))
                                    for g in indices])


def _catalog_jobs():
    jobs = []
    for name in CATALOG:
        entry = resolve(name)
        jobs.append((entry.algebra, list(entry.generators),
                     list(entry.generator_weights)))
    return jobs


def _seeded_jobs():
    # the catalog generators in a random basis and, where it is not a
    # generator, the last basis vector with a too-large weight, so that
    # reduction runs too
    rnd = random.Random(2024)
    jobs = []
    for name in DENSE_BASES:
        entry = resolve(name)
        L, rows = _change_of_basis(entry.algebra, rnd)
        d = L.dim
        indices = list(entry.generators)
        weights = list(entry.generator_weights)
        jobs.append((L, _in_basis(rows, indices), weights))
        if d - 1 not in indices:
            jobs.append((L, _in_basis(rows, indices + [d - 1]),
                         weights + [Fraction(4)]))
    return jobs


def _reduce_jobs():
    # canonical bases with over-weighted and redundant extra elements, which
    # reduction lowers to their first jump or drops
    jobs = []
    for name in DENSE_BASES + ["heisenberg4", "heisenberg6"]:
        entry = resolve(name)
        L, d = entry.algebra, entry.algebra.dim
        indices = list(entry.generators)
        weights = list(entry.generator_weights)
        if d - 1 not in indices:
            for w in (3, 5):
                jobs.append((L, indices + [d - 1], weights + [Fraction(w)]))
    engel = resolve("engel4").algebra
    jobs.append((engel, [0, 1, 3, (0, 0, 1, 1)],
                 [1, 1, Fraction(3), Fraction(4)]))
    h3 = resolve("heisenberg3").algebra
    jobs.append((h3, list(range(7)), [1] * 6 + [3]))
    return jobs


def _contract(L, elements, weights):
    G = contract(L, WeightedBasis(L, elements, weights))
    return G.base.structure_table(), G.adapted_rows, G.weights, G.layers


class TestContractAgainstDensePath:
    def _run(self, jobs, dense_path):
        fast = [_contract(*job) for job in jobs]
        dense_path()
        dense = [_contract(*job) for job in jobs]
        for job, a, b in zip(jobs, fast, dense):
            assert a == b, job[0].name

    def test_catalog_bases(self, dense_path):
        self._run(_catalog_jobs(), dense_path)

    def test_seeded_dense_bases(self, dense_path):
        self._run(_seeded_jobs(), dense_path)


class TestContractAgainstRunningSubspace:
    """The two eliminations against the running-subspace loop and the
    per-bracket solves of ``dense_oracle.contract``."""

    @pytest.mark.parametrize("jobs", [_catalog_jobs, _seeded_jobs,
                                      _reduce_jobs])
    def test_same_contraction(self, jobs):
        for L, elements, weights in jobs():
            basis = WeightedBasis(L, elements, weights)
            assert _contract(L, elements, weights) == \
                dense_oracle.contract(L, basis), L.name

    @pytest.mark.parametrize("name", ["abelian3", "su2", "engel4",
                                      "heisenberg32"])
    def test_one_solve_and_no_running_subspace(self, name, monkeypatch):
        entry = resolve(name)
        L = entry.algebra
        basis = WeightedBasis(L, list(entry.generators),
                              list(entry.generator_weights))
        # the filtration is built beforehand, so that every Subspace
        # operation counted belongs to the adapted basis and the brackets
        filt = weighted.build_filtration(L, basis)
        monkeypatch.setattr(weighted, "build_filtration", lambda *_: filt)
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(weighted, "solve_coordinates", counting(
            "solve_coordinates", weighted.solve_coordinates))
        for method in ("contains", "__add__"):
            monkeypatch.setattr(Subspace, method, counting(
                method, getattr(Subspace, method)))
        contract(L, basis)
        assert calls == {"solve_coordinates": 1}
