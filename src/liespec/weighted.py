"""Weighted algebraic bases, filtrations, reduced bases and contractions.

A weighted algebraic basis is a linearly independent family whose iterated
brackets span the algebra, with a rational weight >= 1 attached to each
element.  It induces a filtration ``F_lam`` (spanned by multi-commutators of
weighted length <= lam), and a graded nilpotent "contraction" obtained by
keeping, for each bracket of adapted basis vectors, only the components of
exactly additive weight.

All computations here are exact; the filtration jumps, reducedness and the
contraction's structure constants are discrete rational data.  One level loop
builds the filtration and decides whether a family is an algebraic basis;
each public call builds one filtration and passes it on.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .lie_core import (
    LieAlgebra,
    Subspace,
    Vector,
    as_fraction,
    as_vector,
    basis_vector,
    is_zero,
    solve_coordinates,
    span,
)


def rational_lcm(values: Sequence[Fraction]) -> Fraction:
    """Least positive rational lying in every w*N, w in values."""
    if not values:
        raise ValueError("need at least one weight")
    num = 1
    den = values[0].denominator
    for w in values:
        num = lcm(num, w.numerator)
        den = gcd(den, w.denominator)
    return Fraction(num, den)


def weighted_length(alpha: Sequence[int], weights: Sequence[Fraction]) -> Fraction:
    """Sum of the weights selected by the multi-index; empty index has length 0."""
    total = Fraction(0)
    for a in alpha:
        if not (0 <= a < len(weights)):
            raise ValueError(f"multi-index entry {a} out of range")
        total += weights[a]
    return total


class WeightedBasis:
    """Independent elements of an ambient algebra with weights >= 1.

    Elements may be given as basis indices of the ambient algebra or as
    explicit coordinate vectors; ``indices[k]`` remembers the original basis
    index when there is one (used for adapted-basis preference).
    """

    def __init__(self, algebra: LieAlgebra, elements: Sequence,
                 weights: Sequence):
        self.algebra = algebra
        vecs: list[Vector] = []
        idxs: list[int | None] = []
        for el in elements:
            if isinstance(el, int):
                if not (0 <= el < algebra.dim):
                    raise ValueError(f"basis index {el} out of range")
                vecs.append(basis_vector(el, algebra.dim))
                idxs.append(el)
            else:
                v = as_vector(el, algebra.dim)
                vecs.append(v)
                idxs.append(None)
        if len(vecs) != len(weights):
            raise ValueError("need exactly one weight per element")
        ws = tuple(as_fraction(w) for w in weights)
        for w in ws:
            if w < 1:
                raise ValueError(f"weights must be >= 1, got {w}")
        if span(vecs, algebra.dim).dim != len(vecs):
            raise ValueError("weighted basis elements must be linearly independent")
        self.vectors: tuple[Vector, ...] = tuple(vecs)
        self.indices: tuple[int | None, ...] = tuple(idxs)
        self.weights: tuple[Fraction, ...] = ws

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def order_unit(self) -> Fraction:
        """The least positive rational w with w in w_j*N for every j."""
        return rational_lcm(self.weights)

    def distinct_weights(self) -> list[Fraction]:
        return sorted(set(self.weights))

    def __repr__(self) -> str:
        ws = ",".join(str(w) for w in self.weights)
        return f"<WeightedBasis size={len(self)} weights=({ws})>"


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing subspaces indexed by the rational jump values."""

    jumps: tuple[Fraction, ...]
    spaces: tuple[Subspace, ...]
    ambient_dim: int

    def at(self, lam: Fraction) -> Subspace:
        """F_lam = space at the largest jump <= lam."""
        return self._space_before(bisect_right(self.jumps, lam))

    def below(self, lam: Fraction) -> Subspace:
        """F_lam^- = union of F_mu over mu < lam."""
        return self._space_before(bisect_left(self.jumps, lam))

    def _space_before(self, k: int) -> Subspace:
        return self.spaces[k - 1] if k else Subspace.zero(self.ambient_dim)

    def first_jump_containing(self, v: Vector) -> Fraction:
        for j, s in zip(self.jumps, self.spaces):
            if s.contains(v):
                return j
        raise ValueError("vector lies outside the filtration's final space")


def _grow_filtration(L: LieAlgebra, basis: WeightedBasis) -> Filtration:
    """Enumerate multi-commutator spans level by level in weighted length.

    Spans propagate through brackets by bilinearity, so per achievable
    length ``lev`` it suffices to keep S_lev = span{multi-commutators of
    weighted length exactly lev}, built from [S_{lev - w_j}, X_j].  Stops at
    the whole algebra; on a non-algebraic family it runs to the level cap
    and ends at the bracket closure, a proper subspace.
    """
    dim = L.dim
    # The bracket closure grows strictly within dim bracketing rounds, each
    # adding at most max_w to the required length.
    level_cap = max(basis.weights, default=0) * (dim + 1)

    exact: dict[Fraction, Subspace] = {}
    heap = sorted(set(basis.weights))
    seen = set(heap)

    jumps: list[Fraction] = []
    spaces: list[Subspace] = []
    cumulative = Subspace.zero(dim)

    while heap:
        lev = heapq.heappop(heap)
        vecs: list[Vector] = [v for v, w in zip(basis.vectors, basis.weights)
                              if w == lev]
        for xj, wj in zip(basis.vectors, basis.weights):
            prev_space = exact.get(lev - wj)
            if prev_space is not None:
                vecs.extend(L.bracket(r, xj) for r in prev_space.rows)
        s_lev = span(vecs, dim)
        exact[lev] = s_lev
        new_cumulative = cumulative + s_lev
        if new_cumulative.dim > cumulative.dim:
            jumps.append(lev)
            spaces.append(new_cumulative)
            cumulative = new_cumulative
            if cumulative.dim == dim:
                break
        for w in basis.weights:
            nxt = lev + w
            if nxt not in seen and nxt <= level_cap:
                seen.add(nxt)
                heapq.heappush(heap, nxt)

    return Filtration(tuple(jumps), tuple(spaces), dim)


def _spans_algebra(filt: Filtration) -> bool:
    return (filt.spaces[-1].dim if filt.spaces else 0) == filt.ambient_dim


def is_algebraic_basis(L: LieAlgebra, basis: WeightedBasis) -> bool:
    """True iff iterated brackets of the elements span the whole algebra,
    i.e. iff the filtration's level loop reaches the whole algebra."""
    return _spans_algebra(_grow_filtration(L, basis))


def build_filtration(L: LieAlgebra, basis: WeightedBasis) -> Filtration:
    """The filtration F_lam of an algebraic basis: one run of the level
    loop, and ``ValueError`` if it stops short of the whole algebra."""
    filt = _grow_filtration(L, basis)
    if not _spans_algebra(filt):
        raise ValueError("not an algebraic basis: filtration would not terminate")
    return filt


def filtration_law_holds(L: LieAlgebra, filt: Filtration) -> bool:
    """Exact check of [F_a, F_b] <= F_{a+b} over all jump pairs."""
    for la, Fa in zip(filt.jumps, filt.spaces):
        for lb, Fb in zip(filt.jumps, filt.spaces):
            target = filt.at(la + lb)
            for x in Fa.rows:
                for y in Fb.rows:
                    if not target.contains(L.bracket(x, y)):
                        return False
    return True


@dataclass(frozen=True)
class ReducednessReport:
    reduced: bool
    witness: Vector | None = None
    weight: Fraction | None = None


def is_reduced(L: LieAlgebra, basis: WeightedBasis) -> ReducednessReport:
    """A basis is reduced iff each weight layer meets F_lam^- only in 0."""
    return _is_reduced(L, basis, build_filtration(L, basis))


def _is_reduced(L: LieAlgebra, basis: WeightedBasis,
                filt: Filtration) -> ReducednessReport:
    for lam in basis.distinct_weights():
        layer = [v for v, w in zip(basis.vectors, basis.weights) if w == lam]
        inter = span(layer, L.dim).intersect(filt.below(lam))
        if inter.dim > 0:
            return ReducednessReport(False, inter.rows[0], lam)
    return ReducednessReport(True)


def reduce_basis(L: LieAlgebra, basis: WeightedBasis) -> WeightedBasis:
    """Return a reduced weighted basis defining the identical filtration.

    Two passes:
    1. lower each element's weight to the filtration jump at which it first
       appears (this never changes the filtration);
    2. walking weights in increasing order, drop elements that are redundant
       modulo F_lam^- together with the already-kept elements of the same
       weight; each drop is accepted only if the remaining family still
       rebuilds the identical filtration.
    """
    return _reduce_basis(L, basis, build_filtration(L, basis))


def _reduce_basis(L: LieAlgebra, basis: WeightedBasis,
                  filt: Filtration) -> WeightedBasis:
    lowered = [filt.first_jump_containing(v) for v in basis.vectors]

    def subfamily(idx: list[int]) -> WeightedBasis:
        return WeightedBasis(
            L,
            [basis.indices[i] if basis.indices[i] is not None
             else basis.vectors[i] for i in idx],
            [lowered[i] for i in idx])

    order = sorted(range(len(basis)), key=lambda k: (lowered[k], k))
    kept: list[int] = []
    removed: set[int] = set()
    for k in order:
        lam = lowered[k]
        reference = filt.below(lam) + span(
            [basis.vectors[i] for i in kept if lowered[i] == lam], L.dim)
        if not reference.contains(basis.vectors[k]):
            kept.append(k)
            continue
        # A trial that is not algebraic stops short of filt and is kept.
        trial = subfamily([i for i in range(len(basis))
                           if i not in removed and i != k])
        if _grow_filtration(L, trial) == filt:
            removed.add(k)
        else:
            kept.append(k)

    out = subfamily([i for i in range(len(basis)) if i not in removed])
    if _grow_filtration(L, out) != filt:
        raise AssertionError("reduction changed the filtration")
    report = _is_reduced(L, out, filt)
    if not report.reduced:
        raise AssertionError(
            "reduction did not reach a reduced basis "
            f"(witness {report.witness} at weight {report.weight})")
    return out


# ---------------------------------------------------------------------------
# Graded contraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedLieAlgebra:
    """A graded nilpotent algebra in an adapted basis.

    ``base`` holds the truncated structure constants, ``weights[k]`` the
    dilation weight of adapted vector k, ``layers`` the (weight, start, stop)
    index ranges of the eigenspace decomposition, and ``adapted_rows`` the
    adapted vectors written in the source algebra's coordinates.
    """

    base: LieAlgebra
    weights: tuple[Fraction, ...]
    layers: tuple[tuple[Fraction, int, int], ...]
    adapted_rows: tuple[Vector, ...]

    @property
    def homogeneous_dimension(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def layer_dims(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple((lam, stop - start) for lam, start, stop in self.layers)

    def as_weighted_basis(self) -> WeightedBasis:
        """The algebra viewed as weighted by its own adapted basis."""
        return WeightedBasis(self.base, list(range(self.base.dim)), self.weights)


def homogeneous_dimension(G: GradedLieAlgebra) -> Fraction:
    return G.homogeneous_dimension


@dataclass(frozen=True)
class GradingReport:
    ok: bool
    reason: str = ""


def check_grading(G: GradedLieAlgebra) -> GradingReport:
    """Post-hoc validator: weight-additive constants, Jacobi, nilpotency."""
    for (i, j, coeffs) in G.base.structure_table():
        for k, c in enumerate(coeffs):
            if c != 0 and G.weights[k] != G.weights[i] + G.weights[j]:
                return GradingReport(
                    False,
                    f"bracket [{i},{j}] has component {k} of weight "
                    f"{G.weights[k]} != {G.weights[i]} + {G.weights[j]}")
    jac = G.base.check_jacobi()
    if not jac.ok:
        return GradingReport(False, f"Jacobi fails at triple {jac.triple}")
    if not G.base.is_nilpotent().nilpotent:
        return GradingReport(False, "not nilpotent")
    return GradingReport(True)


def contract(L: LieAlgebra, basis: WeightedBasis) -> GradedLieAlgebra:
    """Graded contraction of (L, basis).

    One filtration is built and serves the reducedness test, the reduction
    (which is required to keep it) and the adapted basis.  The basis is
    reduced first if necessary.  The adapted basis extends F_lam^- to F_lam
    jump by jump, preferring the (reduced) basis's own vectors of weight lam
    and completing with the echelon rows of F_lam in row order.  Brackets of
    adapted vectors are re-expressed in the adapted basis and truncated to
    the components of weight exactly w_i + w_j.
    """
    try:
        filt = build_filtration(L, basis)
    except ValueError:
        raise ValueError("cannot contract: not an algebraic basis") from None
    if not _is_reduced(L, basis, filt).reduced:
        basis = _reduce_basis(L, basis, filt)
    dim = L.dim

    # A candidate joins the adapted basis iff it lies outside the span of the
    # candidates before it: iff it is a pivot column of the candidate matrix.
    candidates: list[tuple[Vector, Fraction, int | None]] = []
    for jump, space in zip(filt.jumps, filt.spaces):
        candidates += [(v, jump, idx) for v, w, idx in
                       zip(basis.vectors, basis.weights, basis.indices)
                       if w == jump]
        candidates += [(row, jump, None) for row in space.rows]
    columns = span([tuple(v[i] for v, _, _ in candidates)
                    for i in range(dim)], len(candidates))
    chosen = [candidates[next(c for c, a in enumerate(row) if a)]
              for row in columns.rows]
    if len(chosen) != dim:
        raise AssertionError("adapted basis does not span the algebra")
    adapted = [v for v, _, _ in chosen]
    adapted_weights = [w for _, w, _ in chosen]
    layers = [(jump, bisect_left(adapted_weights, jump),
               bisect_right(adapted_weights, jump)) for jump in filt.jumps]
    adapted_labels = []
    for pos, (v, _, idx) in enumerate(chosen):
        nz = [k for k, c in enumerate(v) if c]
        if idx is None and len(nz) == 1 and v[nz[0]] == 1:
            idx = nz[0]
        adapted_labels.append(
            f"v{pos + 1}" if idx is None else L.basis_labels[idx])

    pairs = []
    for i in range(dim):
        for j in range(i + 1, dim):
            b = L.bracket(adapted[i], adapted[j])
            if not is_zero(b):
                pairs.append((i, j, b))
    structure: dict[tuple[int, int], list[Fraction]] = {}
    zero = Fraction(0)          # one object for every truncated entry
    for (i, j, _), coords in zip(pairs, solve_coordinates(
            adapted, [b for _, _, b in pairs])):
        target = adapted_weights[i] + adapted_weights[j]
        if any(c and w > target for c, w in zip(coords, adapted_weights)):
            raise AssertionError(
                "filtration law violated: bracket has a component of "
                "weight above the additive weight")
        truncated = [c if c and w == target else zero
                     for c, w in zip(coords, adapted_weights)]
        if any(truncated):
            structure[(i, j)] = truncated

    base = LieAlgebra(dim, structure, adapted_labels,
                      name=(L.name + "*") if L.name else "contraction")
    G = GradedLieAlgebra(base, tuple(adapted_weights), tuple(layers),
                         tuple(adapted))
    report = check_grading(G)
    if not report.ok:
        raise AssertionError(f"contraction failed validation: {report.reason}")
    return G


def isomorphic_to_heisenberg1(G: GradedLieAlgebra) -> bool:
    """Normalization test for the 3-dimensional catalog contractions.

    After contraction a 3-dimensional graded algebra with layer dimensions
    (2, 1) is isomorphic to heisenberg(1) iff the bracket of the two weight-1
    vectors is nonzero; rescaling the weight-2 vector by that coefficient
    normalizes the constants to [a1, a2] = a3.  Abelian and higher-layer
    cases are distinguished by the derived dimension.
    """
    if G.base.dim != 3:
        return False
    if G.layer_dims() != ((Fraction(1), 2), (Fraction(2), 1)):
        return False
    if G.base.derived_dimension() != 1:
        return False
    b = G.base.bracket_basis(0, 1)
    # The only possibly-nonzero component sits in the weight-2 layer.
    return b[2] != 0


def normalized_h1_constants(G: GradedLieAlgebra) -> tuple[tuple[int, int, Vector], ...]:
    """Structure constants after the documented h1 normalization.

    Rescales the weight-2 adapted vector by the coefficient of [a1, a2] so
    the result can be compared bit-exactly against heisenberg(1).
    """
    if not isomorphic_to_heisenberg1(G):
        raise ValueError("not isomorphic to heisenberg(1)")
    # Gradedness forces every other bracket to vanish; rescaling the weight-2
    # vector by the [a1, a2] coefficient leaves exactly the h1 table.
    assert is_zero(G.base.bracket_basis(0, 2))
    assert is_zero(G.base.bracket_basis(1, 2))
    scaled = LieAlgebra(3, {(0, 1): [0, 0, 1]},
                        G.base.basis_labels, name=G.base.name + "~h1")
    return scaled.structure_table()
