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
"""

from __future__ import annotations

from fractions import Fraction

from liespec.lie_core import (
    JacobiReport,
    LieAlgebra,
    Vector,
    basis_vector,
    is_zero,
    vec_add,
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
