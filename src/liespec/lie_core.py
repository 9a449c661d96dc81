"""Exact rational arithmetic for finite-dimensional Lie algebras.

Everything in this module is exact: coordinates and structure constants are
`fractions.Fraction`, subspaces are canonical reduced row-echelon matrices,
so membership, equality and filtration jumps are decidable facts rather than
tolerance calls.  Floating point never enters here.

Conventions
-----------
* Basis indices are 0-based throughout the library.
* Structure constants are stored sparsely for i < j only; antisymmetry is
  applied on access, so ``[e_i, e_i] = 0`` and ``[e_j, e_i] = -[e_i, e_j]``
  hold by construction.
* Beside that table each algebra keeps a private sparse view for both
  orders, sign applied: ``_sparse[i]`` lists the triples (j, k, c) with
  ``c = [e_i, e_j]_k != 0``.  ``bracket`` walks the view rows of the
  nonzero coordinates of x, so its cost scales with the number of nonzero
  constants met, not with d^2.  One flat tuple of triples per row keeps the
  view small; contractions that callers hold on to carry it.
* ``check_jacobi`` follows chains of nonzero brackets: (p, q) in the table,
  m in the support of [e_p, e_q], r with [e_r, e_m] != 0.  Each chain adds
  one term to the Jacobiator of the triple {p, q, r}; a triple that no
  chain reaches has Jacobiator 0.
* ``_rref`` eliminates only the columns where the pivot row is nonzero,
  skips the scaling of pivots that are already 1, and copies a tuple row
  only when it changes, so spans share the rows they keep.  Fractions and
  tuples of Fractions enter vectors as they are, not as copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]


class ExactnessError(TypeError):
    """Raised when a non-rational scalar (e.g. a float) is supplied."""


def as_fraction(x) -> Fraction:
    """Convert an int / Fraction / 'p/q' string to Fraction, rejecting floats.

    Irrational or floating-point structure constants are unsupported by
    design: exactness is what makes subspace equality decidable.  A
    Fraction is immutable and comes back as the same object, so vectors
    built from Fractions share them instead of holding copies.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise ExactnessError("booleans are not scalars")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, str):
        return Fraction(x)
    raise ExactnessError(
        f"expected an exact rational, got {type(x).__name__}: {x!r}"
    )


def as_vector(coords: Iterable, dim: int | None = None) -> Vector:
    """Exact vector from rationals; a tuple of Fractions is kept as is."""
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        v = coords
    else:
        v = tuple(as_fraction(c) for c in coords)
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected vector of length {dim}, got {len(v)}")
    return v


def zero_vector(dim: int) -> Vector:
    return (Fraction(0),) * dim


def basis_vector(i: int, dim: int) -> Vector:
    return tuple(Fraction(1 if k == i else 0) for k in range(dim))


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_scale(c, x: Vector) -> Vector:
    c = as_fraction(c)
    return tuple(c * a for a in x)


def is_zero(x: Vector) -> bool:
    return all(a == 0 for a in x)


# ---------------------------------------------------------------------------
# Subspaces as canonical reduced row-echelon matrices
# ---------------------------------------------------------------------------

def _rref(rows: list[list[Fraction] | Vector]
          ) -> list[list[Fraction] | Vector]:
    """In-place fraction RREF; returns the nonzero rows (monic pivots).

    Rows are lists or tuples.  A row the elimination leaves unchanged comes
    back as the object given; a tuple row that changes is replaced by a
    list.  Every returned entry is a Fraction, also where an input held an
    int.
    """
    if not rows:
        return []
    n_rows = len(rows)
    n_cols = len(rows[0])
    piv_r = 0
    for col in range(n_cols):
        pivot = next((r for r in range(piv_r, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[piv_r], rows[pivot] = rows[pivot], rows[piv_r]
        prow = rows[piv_r]
        # Rows from piv_r on are zero left of col, so only the pivot row's
        # nonzero columns from col on take part.
        support = [c for c in range(col, n_cols) if prow[c]]
        p = prow[col]
        if p != 1:
            inv = 1 / Fraction(p)
            if type(prow) is tuple:
                prow = rows[piv_r] = list(prow)
            for c in support:
                prow[c] = inv * prow[c]
        for r in range(n_rows):
            row = rows[r]
            f = row[col]
            if f and r != piv_r:
                if type(row) is tuple:
                    row = rows[r] = list(row)
                for c in support:
                    row[c] = row[c] - f * prow[c]
        piv_r += 1
        if piv_r == n_rows:
            break
    out = rows[:piv_r]
    for i, row in enumerate(out):
        if not all(type(a) is Fraction for a in row):
            out[i] = [a if type(a) is Fraction else Fraction(a) for a in row]
    return out


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^d in canonical reduced row-echelon form.

    Two subspaces are equal iff their row matrices are identical, which makes
    filtrations and contractions comparable bit-exactly.
    """

    rows: tuple[Vector, ...]
    ambient_dim: int

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace((), ambient_dim)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return span([basis_vector(i, ambient_dim) for i in range(ambient_dim)],
                    ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} vs ambient dim {self.ambient_dim}")
        # Reduce v against the echelon rows; containment iff residual is 0.
        residual = list(v)
        for row in self.rows:
            col = next(i for i, a in enumerate(row) if a == 1)
            if residual[col] != 0:
                f = residual[col]
                residual = [a - f * b for a, b in zip(residual, row)]
        return all(a == 0 for a in residual)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return span(list(self.rows) + list(other.rows), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection (Zassenhaus block reduction)."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        d = self.ambient_dim
        block: list[list[Fraction]] = []
        for r in self.rows:
            block.append(list(r) + list(r))
        z = [Fraction(0)] * d
        for r in other.rows:
            block.append(list(r) + z)
        reduced = _rref(block)
        inter: list[Vector] = []
        for row in reduced:
            if all(a == 0 for a in row[:d]):
                inter.append(tuple(row[d:]))
        return span(inter, d)


def span(vectors: Sequence[Vector], ambient_dim: int | None = None) -> Subspace:
    """Canonical span of exact vectors; idempotent and order-independent."""
    vectors = list(vectors)
    if ambient_dim is None:
        if not vectors:
            raise ValueError("ambient_dim required for an empty span")
        ambient_dim = len(vectors[0])
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError("mixed vector dimensions in span")
    # Tuples are immutable, so _rref may keep the rows it does not change.
    rows = _rref([v if type(v) is tuple else list(v) for v in vectors])
    return Subspace(tuple(tuple(r) for r in rows), ambient_dim)


def solve_coordinates(rows: Sequence[Vector],
                      vectors: Sequence[Vector]) -> list[Vector]:
    """Solve sum_k x_k * rows[k] = v exactly for each v in ``vectors``, in
    order, by one elimination of the system [rows^T | v_1 ... v_m]; raises
    ``ValueError`` if any v lies outside the span of the rows."""
    if not vectors:
        return []
    k = len(rows)
    mat = [[r[i] for r in rows] + [v[i] for v in vectors]
           for i in range(len(vectors[0]))]
    xs = [[Fraction(0)] * k for _ in vectors]
    for row in _rref(mat):
        col = next(i for i, a in enumerate(row) if a != 0)
        if col >= k:
            raise ValueError("vector not in the span of the given rows")
        for x, a in zip(xs, row[k:]):
            x[col] = a
    for x, v in zip(xs, vectors):
        recon = zero_vector(len(v))
        for xk, r in zip(x, rows):
            if xk != 0:
                recon = vec_add(recon, vec_scale(xk, r))
        if recon != tuple(v):
            raise ValueError("vector not in the span of the given rows")
    return [tuple(x) for x in xs]


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triple: tuple[int, int, int] | None = None
    residual: Vector | None = None


@dataclass(frozen=True)
class NilpotencyReport:
    nilpotent: bool
    step: int | None
    series: tuple[Subspace, ...]


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    ``structure`` maps (i, j) with i < j to the coordinate vector of
    [e_i, e_j].  Entries may be any exact rationals (ints, Fractions or
    'p/q' strings).
    """

    def __init__(self, dim: int,
                 structure: Mapping[tuple[int, int], Sequence],
                 basis_labels: Sequence[str] | None = None,
                 name: str = ""):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self.name = name
        if basis_labels is None:
            basis_labels = tuple(f"e{i + 1}" for i in range(dim))
        if len(basis_labels) != dim:
            raise ValueError("need one basis label per dimension")
        self.basis_labels = tuple(str(s) for s in basis_labels)
        table: dict[tuple[int, int], Vector] = {}
        for (i, j), coeffs in structure.items():
            if not (0 <= i < j < dim):
                raise ValueError(
                    f"structure constants must have 0 <= i < j < dim, got ({i}, {j})")
            v = as_vector(coeffs, dim)
            if not is_zero(v):
                table[(int(i), int(j))] = v
        self._table = table
        rows: list[list[tuple[int, int, Fraction]]] = [
            [] for _ in range(self.dim)]
        for (i, j), v in table.items():
            for k, c in enumerate(v):
                if c:
                    rows[i].append((j, k, c))
                    rows[j].append((i, k, -c))
        self._sparse = tuple(tuple(row) for row in rows)

    # -- basic access -------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Vector:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError(f"basis index out of range: ({i}, {j})")
        if i == j:
            return zero_vector(self.dim)
        if i < j:
            return self._table.get((i, j), zero_vector(self.dim))
        return vec_scale(-1, self._table.get((j, i), zero_vector(self.dim)))

    def structure_table(self) -> tuple[tuple[int, int, Vector], ...]:
        """Canonical sorted view of the nonzero constants (for bit-exact compares)."""
        return tuple((i, j, self._table[(i, j)])
                     for (i, j) in sorted(self._table))

    def basis(self) -> list[Vector]:
        return [basis_vector(i, self.dim) for i in range(self.dim)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra)
                and self.dim == other.dim
                and self._table == other._table)

    def __repr__(self) -> str:
        label = self.name or "LieAlgebra"
        return f"<{label} dim={self.dim} brackets={len(self._table)}>"

    # -- operations ---------------------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the structure constants to arbitrary vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, k, c in self._sparse[i]:
                    yj = y[j]
                    if yj:
                        out[k] += xi * yj * c
        return tuple(out)

    def multi_commutator(self, elements: Sequence[Vector],
                         alpha: Sequence[int]) -> Vector:
        """Left-nested commutator [...[X_a1, X_a2], ..., X_an] of the
        selected elements; a length-1 index returns the element itself."""
        if len(alpha) == 0:
            raise ValueError("multi-index must be non-empty")
        for a in alpha:
            if not (0 <= a < len(elements)):
                raise ValueError(f"multi-index entry {a} out of range")
        acc = elements[alpha[0]]
        for a in alpha[1:]:
            acc = self.bracket(acc, elements[a])
        return acc

    def check_jacobi(self) -> JacobiReport:
        """Exact Jacobi test over all basis triples i < j < k.

        J(i, j, k) = [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
        is summed along chains of nonzero constants only.  A chain (p, q) in
        the table, m with c_m = [e_p, e_q]_m != 0 and r with [e_r, e_m] != 0
        (r other than p, q) adds c_m [e_r, e_m] to J of the sorted triple
        {p, q, r}, with the cyclic sign: the inner bracket of that term is
        [e_q, e_p] = -[e_p, e_q] when p < r < q, else [e_p, e_q].  Unreached
        triples have J = 0, so the smallest failing triple and its residual
        are those of the loop over all triples.
        """
        sparse = self._sparse
        jacobiator: dict[tuple[int, int, int], dict[int, Fraction]] = {}
        for p, row in enumerate(sparse):
            for q, m, cm in row:
                if q < p:
                    continue
                for r, k, c in sparse[m]:
                    if r == p or r == q:
                        continue
                    # c_m [e_r, e_m] = -c_m [e_m, e_r], signed as above.
                    f = cm if p < r < q else -cm
                    triple = ((r, p, q) if r < p else
                              (p, r, q) if r < q else (p, q, r))
                    acc = jacobiator.setdefault(triple, {})
                    acc[k] = acc.get(k, 0) + f * c
        for triple in sorted(jacobiator):
            acc = jacobiator[triple]
            if any(acc.values()):
                residual = [Fraction(0)] * self.dim
                for k, c in acc.items():
                    residual[k] = c
                return JacobiReport(False, triple, tuple(residual))
        return JacobiReport(True)

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        """span{[x, y] : x in a, y in b} computed from row generators."""
        vecs = [self.bracket(x, y) for x in a.rows for y in b.rows]
        return span(vecs, self.dim)

    def lower_central_series(self) -> tuple[Subspace, ...]:
        g = Subspace.full(self.dim)
        series = [g]
        while True:
            nxt = self.bracket_span(g, series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt.dim == 0:
                break
        return tuple(series)

    def is_nilpotent(self) -> NilpotencyReport:
        series = self.lower_central_series()
        if series[-1].dim == 0:
            # step = largest c with g_c != 0 (Heisenberg: step 2)
            return NilpotencyReport(True, len(series) - 1, series)
        return NilpotencyReport(False, None, series)

    def derived_dimension(self) -> int:
        full = Subspace.full(self.dim)
        return self.bracket_span(full, full).dim
