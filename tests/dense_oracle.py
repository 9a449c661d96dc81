"""Dense reference paths for the exact core, kept as differential oracles.

These are the loops the library used before it followed the sparsity of
the structure constants: ``bracket`` walks every coordinate pair through
``bracket_basis``, ``check_jacobi`` visits all d^3/6 basis triples with
dense brackets, and ``_rref`` rescales and eliminates whole rows.  The
bodies are kept verbatim; ``bracket`` and ``check_jacobi`` take the algebra
as their first argument instead of ``self``.  The fast paths in
``liespec.lie_core`` must agree with them bit for bit.

``_rref`` here divides with ``1 / pivot``, so rows that hold Python ints
come out as floats; feed it Fraction rows.

``_torus_ratio`` is the embedding witness's ratio for one candidate as the
library computed it before it pruned its transforms: the coefficient box is
written into a zeroed G^n grid, G = oversample * (2K+1), and ``np.fft.ifftn``
transforms every line of it.  ``liespec.spectral.torus_embedding_witness``
must give the same ratios bit for bit.

``solve_coordinates`` solves for one vector with one elimination, and
``contract`` is the graded contraction as the library computed it with a
running subspace: a candidate joins the adapted basis when the span of the
vectors kept so far does not contain it, and each nonzero bracket gets its
own ``solve_coordinates``.  Both bodies are kept verbatim, except that
``contract`` builds no labels, skips the post-hoc validator and returns the
structure table, adapted rows, weights and layers.
``liespec.weighted.contract`` must give the same four bit for bit.

``_ball_count`` is the torus lattice count as the library computed it
before it summed divisors: one ``_isqrt`` call over every lattice line for
n = 2, and a Python recursion over the first axis for n >= 3.  Its body is
kept verbatim; ``liespec.spectral._ball_count`` must give the same integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from liespec.lie_core import (
    JacobiReport,
    LieAlgebra,
    Subspace,
    Vector,
    basis_vector,
    is_zero,
    span,
    vec_add,
    vec_scale,
    zero_vector,
)
from liespec.spectral import _isqrt
from liespec.weighted import (
    WeightedBasis,
    _is_reduced,
    _reduce_basis,
    build_filtration,
)


def bracket(self: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants to arbitrary vectors."""
    if len(x) != self.dim or len(y) != self.dim:
        raise ValueError("vector length does not match algebra dimension")
    out = [Fraction(0)] * self.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0 or i == j:
                continue
            b = self.bracket_basis(i, j)
            c = xi * yj
            for k, bk in enumerate(b):
                if bk != 0:
                    out[k] += c * bk
    return tuple(out)


def check_jacobi(self: LieAlgebra) -> JacobiReport:
    """Exact Jacobi test over all basis triples i < j < k."""
    for i in range(self.dim):
        for j in range(i + 1, self.dim):
            for k in range(j + 1, self.dim):
                ei, ej, ek = (basis_vector(t, self.dim) for t in (i, j, k))
                s = vec_add(
                    vec_add(bracket(self, ei, bracket(self, ej, ek)),
                            bracket(self, ej, bracket(self, ek, ei))),
                    bracket(self, ek, bracket(self, ei, ej)))
                if not is_zero(s):
                    return JacobiReport(False, (i, j, k), s)
    return JacobiReport(True)


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """In-place fraction RREF; returns the nonzero rows (monic pivots)."""
    if not rows:
        return []
    n_cols = len(rows[0])
    piv_r = 0
    for col in range(n_cols):
        pivot = None
        for r in range(piv_r, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[piv_r], rows[pivot] = rows[pivot], rows[piv_r]
        inv = 1 / rows[piv_r][col]
        rows[piv_r] = [inv * a for a in rows[piv_r]]
        for r in range(len(rows)):
            if r != piv_r and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv_r])]
        piv_r += 1
        if piv_r == len(rows):
            break
    return [row for row in rows[:piv_r]]


def _torus_ratio(coeffs: np.ndarray, p: float, q: float, gamma: float,
                 oversample: int) -> float:
    """||f||_q / ||(1+L)^gamma f||_p for one coefficient box (any dimension)."""
    shape = coeffs.shape
    n = coeffs.ndim
    K = (shape[0] - 1) // 2
    G = oversample * (2 * K + 1)
    grids = np.meshgrid(*([np.arange(-K, K + 1)] * n), indexing="ij")
    lat2 = sum(g.astype(float) ** 2 for g in grids)
    symbol = (1.0 + 4.0 * math.pi ** 2 * lat2) ** gamma

    def evaluate(c: np.ndarray) -> np.ndarray:
        big = np.zeros((G,) * n, dtype=complex)
        idx = np.ix_(*[np.arange(-K, K + 1) % G] * n)
        big[idx] = c
        return np.fft.ifftn(big) * (G ** n)

    f = evaluate(coeffs)
    g = evaluate(coeffs * symbol)
    num = float(np.mean(np.abs(f) ** q) ** (1.0 / q))
    den = float(np.mean(np.abs(g) ** p) ** (1.0 / p))
    if den == 0.0:
        return 0.0
    return num / den


def solve_coordinates(rows, v: Vector) -> Vector:
    """Solve sum_k x_k * rows[k] = v exactly; raises if v is outside."""
    dim = len(v)
    # Solve rows^T x = v by eliminating the augmented d x (k+1) system.
    mat = [[rows[k][i] for k in range(len(rows))] + [v[i]] for i in range(dim)]
    reduced = _rref(mat)
    x = [Fraction(0)] * len(rows)
    for row in reduced:
        col = next(i for i, a in enumerate(row) if a != 0)
        if col == len(rows):
            raise ValueError("vector not in the span of the given rows")
        x[col] = row[len(rows)]
    recon = zero_vector(dim)
    for xk, r in zip(x, rows):
        if xk != 0:
            recon = vec_add(recon, vec_scale(xk, r))
    if recon != tuple(v):
        raise ValueError("vector not in the span of the given rows")
    return tuple(x)


def contract(L: LieAlgebra, basis: WeightedBasis):
    """(structure table, adapted rows, weights, layers) of the contraction."""
    filt = build_filtration(L, basis)
    if not _is_reduced(L, basis, filt).reduced:
        basis = _reduce_basis(L, basis, filt)
    dim = L.dim

    adapted: list[Vector] = []
    adapted_weights: list[Fraction] = []
    layers: list[tuple[Fraction, int, int]] = []
    current = Subspace.zero(dim)

    for jump, space in zip(filt.jumps, filt.spaces):
        start = len(adapted)
        own = [(v, idx) for v, w, idx in
               zip(basis.vectors, basis.weights, basis.indices) if w == jump]
        for v, idx in own + [(row, None) for row in space.rows]:
            if not current.contains(v):
                adapted.append(v)
                adapted_weights.append(jump)
                current = current + span([v], dim)
        layers.append((jump, start, len(adapted)))

    if len(adapted) != dim:
        raise AssertionError("adapted basis does not span the algebra")

    structure: dict[tuple[int, int], list[Fraction]] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            b = L.bracket(adapted[i], adapted[j])
            if is_zero(b):
                continue
            coords = solve_coordinates(adapted, b)
            target = adapted_weights[i] + adapted_weights[j]
            truncated = [Fraction(0)] * dim
            for k, c in enumerate(coords):
                if c == 0:
                    continue
                if adapted_weights[k] > target:
                    raise AssertionError(
                        "filtration law violated: bracket has a component of "
                        "weight above the additive weight")
                if adapted_weights[k] == target:
                    truncated[k] = c
            if any(c != 0 for c in truncated):
                structure[(i, j)] = truncated

    return (LieAlgebra(dim, structure).structure_table(), tuple(adapted),
            tuple(adapted_weights), tuple(layers))


def _ball_count(n: int, R: int) -> int:
    """#{xi in Z^n : |xi|^2 <= R} for an integer R >= 0, origin included."""
    if n == 1:
        return 2 * math.isqrt(R) + 1
    k = np.arange(math.isqrt(R) + 1, dtype=np.int64)
    rem = R - k * k                 # what the last n-1 axes may still use
    if n == 2:
        lines = 2 * _isqrt(rem) + 1
    else:
        lines = np.array([_ball_count(n - 1, r) for r in rem.tolist()])
    return 2 * int(lines.sum()) - int(lines[0])     # k and -k, once for 0
