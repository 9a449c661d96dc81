"""Operator forms on multi-indices: principal parts, adjoints, constructors.

A form is a finitely supported map from multi-indices (0-based entries over
a weighted basis of size d) to complex numbers with exact rational real and
imaginary parts.  It represents the left-invariant operator
``sum_alpha C(alpha) X^alpha`` where ``X^alpha`` is the ordered product of
the basis vector fields selected by alpha.

Exact arithmetic is kept for all structural operations (principal part,
adjoint, symmetry); only the finite injectivity screen at the bottom of this
module uses floating point, and only it imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .lie_core import as_fraction
from .weighted import WeightedBasis, rational_lcm, weighted_length

# Complex scalars with exact rational parts.
QComplex = tuple[Fraction, Fraction]


def qc(value) -> QComplex:
    """Coerce an exact scalar (or (re, im) pair) to a rational complex."""
    if isinstance(value, tuple) and len(value) == 2:
        return (as_fraction(value[0]), as_fraction(value[1]))
    if isinstance(value, complex):
        raise TypeError("pass exact (re, im) pairs, not floating complex")
    return (as_fraction(value), Fraction(0))


def qc_is_zero(z: QComplex) -> bool:
    return z[0] == 0 and z[1] == 0


def qc_to_complex(z: QComplex) -> complex:
    return complex(z[0]) + 1j * complex(z[1])


class Form:
    """Finitely supported coefficient map with its weighted-basis context.

    The order m is the largest weighted length in the support; construction
    rejects empty forms so the order-m layer is always nonempty.
    """

    def __init__(self, coefficients: Mapping[tuple[int, ...], object],
                 weights: Sequence):
        self.weights = tuple(as_fraction(w) for w in weights)
        if not self.weights:
            raise ValueError("a form needs a nonempty weighted basis")
        table: dict[tuple[int, ...], QComplex] = {}
        for alpha, value in coefficients.items():
            alpha = tuple(int(a) for a in alpha)
            for a in alpha:
                if not (0 <= a < len(self.weights)):
                    raise ValueError(f"multi-index entry {a} out of range")
            z = qc(value)
            if not qc_is_zero(z):
                table[alpha] = z
        if not table:
            raise ValueError("form has no nonzero coefficients")
        self.coefficients = table
        self.order: Fraction = max(weighted_length(a, self.weights)
                                   for a in table)

    @property
    def basis_dim(self) -> int:
        return len(self.weights)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Form)
                and self.weights == other.weights
                and self.coefficients == other.coefficients)

    def __repr__(self) -> str:
        return (f"<Form order={self.order} dim={self.basis_dim} "
                f"terms={len(self.coefficients)}>")

    def items(self):
        return sorted(self.coefficients.items())


def principal_part(C: Form) -> Form:
    """Keep exactly the coefficients of weighted length equal to the order."""
    kept = {a: z for a, z in C.coefficients.items()
            if weighted_length(a, C.weights) == C.order}
    return Form(kept, C.weights)


def is_homogeneous(C: Form) -> bool:
    return principal_part(C) == C


def adjoint(C: Form) -> Form:
    """C+(alpha) = (-1)^{|alpha|} * conj(C(alpha reversed)); an involution."""
    out: dict[tuple[int, ...], QComplex] = {}
    for alpha, (re, im) in C.coefficients.items():
        sign = -1 if len(alpha) % 2 else 1
        out[tuple(reversed(alpha))] = (sign * re, -sign * im)
    return Form(out, C.weights)


def is_symmetric(C: Form) -> bool:
    return adjoint(C) == C


def sublaplacian_form(d: int) -> Form:
    """Form of the positive operator -sum_j X_j^2 over d weight-1 generators."""
    if d < 1:
        raise ValueError("need at least one generator")
    coeffs = {(j, j): Fraction(-1) for j in range(d)}
    return Form(coeffs, [Fraction(1)] * d)


def rockland_power_form(weights: Sequence, coeffs: Sequence, order) -> Form:
    """Homogeneous sum of even generator powers sum_j (-1)^{m/2u_j} c_j X_j^{m/u_j}.

    Requires m in 2*u_j*N for every j, so each exponent m/u_j is an even
    positive integer and the resulting form is symmetric.
    """
    u = [as_fraction(w) for w in weights]
    c = [as_fraction(x) for x in coeffs]
    m = as_fraction(order)
    if len(u) != len(c):
        raise ValueError("need one coefficient per generator")
    if any(x <= 0 for x in c):
        raise ValueError("coefficients must be positive")
    table: dict[tuple[int, ...], Fraction] = {}
    for j, (uj, cj) in enumerate(zip(u, c)):
        half = m / (2 * uj)
        if half.denominator != 1 or half < 1:
            raise ValueError(
                f"order {m} is not an even positive multiple of weight {uj}")
        power = int(2 * half)
        sign = -1 if int(half) % 2 else 1
        table[(j,) * power] = sign * cj
    return Form(table, u)


def order_compatibility(C: Form, basis: WeightedBasis | Sequence) -> bool:
    """True iff the form order lies in 2wN for the basis's common weight unit."""
    if isinstance(basis, WeightedBasis):
        w = basis.order_unit
    else:
        w = rational_lcm([as_fraction(x) for x in basis])
    ratio = C.order / (2 * w)
    return ratio.denominator == 1 and ratio >= 1


# ---------------------------------------------------------------------------
# Finite injectivity screen for forms on the canonical 3-dim Heisenberg basis
# ---------------------------------------------------------------------------

H1_WEIGHTS = (Fraction(1), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class RocklandScreenReport:
    passed: bool
    hermite_min_singular: tuple[tuple[float, float], ...]  # (lambda, min sv)
    character_min: float
    character_witness: tuple[float, float] | None
    realization: str
    tolerance: float


def _h1_generator_matrices(lam: float, size: int) -> tuple[np.ndarray, ...]:
    """Matrices of the three canonical fields on lam-scaled Hermite functions.

    Realization on L^2(R) with the oscillator basis scaled to |lam|:
    the first generator acts as d/dxi, the second as i*lam*xi, the third as
    the scalar i*lam; then [d/dxi, i*lam*xi] = i*lam reproduces the bracket.
    In the scaled ladder operators A, A* (A e_k = sqrt(k) e_{k-1}):
    d/dxi = sqrt(|lam|/2) (A - A*) and xi = (A + A*) / sqrt(2|lam|).
    """
    import numpy as np
    k = np.arange(1, size)
    a = np.diag(np.sqrt(k), 1)          # annihilation
    adag = a.T                          # creation
    absl = abs(lam)
    X = np.sqrt(absl / 2.0) * (a - adag)
    Y = 1j * lam / np.sqrt(2.0 * absl) * (a + adag)
    Z = 1j * lam * np.eye(size)
    return X.astype(complex), Y, Z


def _evaluate_form(C: Form, mats: Sequence[np.ndarray], size: int) -> np.ndarray:
    import numpy as np
    out = np.zeros((size, size), dtype=complex)
    for alpha, z in C.coefficients.items():
        term = np.eye(size, dtype=complex)
        for a in alpha:
            term = term @ mats[a]
        out += qc_to_complex(z) * term
    return out


def heisenberg_rockland_check(C: Form, n_hermite: int,
                              lambda_grid: Sequence[float],
                              n_characters: int = 16,
                              tol: float = 1e-8) -> RocklandScreenReport:
    """Necessary-condition injectivity screen on the canonical 3-dim basis.

    Evaluates the form on the span of the first ``n_hermite`` scaled Hermite
    functions for each lambda in the grid (generator matrices are padded by
    the maximal word length so the truncated block is exact), and on the
    one-dimensional characters (a, b) = (cos t, sin t) where the first two
    generators act as ia, ib and the third as 0.  Any numerically vanishing
    singular value fails the screen.  This is a screen, not a proof.
    """
    import numpy as np
    if C.weights == H1_WEIGHTS[:2]:
        # a form over the two generators embeds with no central coefficient
        C = Form(dict(C.coefficients), H1_WEIGHTS)
    elif C.weights != H1_WEIGHTS:
        raise ValueError(
            "screen requires the canonical 3-dim basis with weights (1, 1, 2) "
            "or its two weight-1 generators")
    if n_hermite < 4:
        raise ValueError("need at least 4 Hermite functions")
    lambda_grid = [float(l) for l in lambda_grid]
    if not lambda_grid or any(l == 0 for l in lambda_grid):
        raise ValueError("lambda grid must be nonempty and nonzero")
    if n_characters < 1:
        raise ValueError("character grid must be nonempty")

    pad = max(len(a) for a in C.coefficients)
    size = n_hermite + pad
    hermite: list[tuple[float, float]] = []
    passed = True
    for lam in lambda_grid:
        mats = _h1_generator_matrices(lam, size)
        block = _evaluate_form(C, mats, size)[:n_hermite, :n_hermite]
        smin = float(np.linalg.svd(block, compute_uv=False)[-1])
        hermite.append((lam, smin))
        if smin < tol:
            passed = False

    char_min = float("inf")
    witness = None
    for k in range(n_characters):
        theta = 2.0 * np.pi * k / n_characters
        a, b = np.cos(theta), np.sin(theta)
        symbols = (1j * a, 1j * b, 0.0)
        total = 0.0 + 0.0j
        for alpha, z in C.coefficients.items():
            term = qc_to_complex(z)
            for idx in alpha:
                term *= symbols[idx]
            total += term
        mag = abs(total)
        if mag < char_min:
            char_min = mag
            witness = (round(float(a), 12), round(float(b), 12))
    if char_min < tol:
        passed = False

    realization = ("hermite(scaled ladder): X->d/dxi, Y->i*lam*xi, Z->i*lam; "
                   "characters: X->ia, Y->ib, Z->0 on the unit circle")
    return RocklandScreenReport(passed, tuple(hermite), char_min,
                                witness if char_min < tol else None,
                                realization, tol)
