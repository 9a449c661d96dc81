import random
from collections import Counter
from fractions import Fraction

import pytest

import liespec.weighted as weighted
from liespec.catalog import heisenberg, resolve, su2
from liespec.lie_core import LieAlgebra, basis_vector, span, vec_add, vec_scale
from liespec.weighted import (
    GradedLieAlgebra,
    WeightedBasis,
    build_filtration,
    check_grading,
    contract,
    filtration_law_holds,
    is_algebraic_basis,
    is_reduced,
    isomorphic_to_heisenberg1,
    normalized_h1_constants,
    rational_lcm,
    reduce_basis,
    weighted_length,
)

CATALOG_NAMES = ["abelian1", "abelian2", "abelian3", "heisenberg1",
                 "heisenberg2", "engel4", "su2", "so3", "sl2r", "se2"]

# deterministic weight assignments for the catalog sweeps
WEIGHT_CHOICES = [
    [Fraction(1)],
    [Fraction(1), Fraction(2)],
    [Fraction(1), Fraction(3, 2)],
    [Fraction(2), Fraction(1), Fraction(3)],
    [Fraction(1), Fraction(1), Fraction(2), Fraction(5, 2)],
]


def _closure_is_algebraic(L, basis):
    """Oracle: close the span of the elements under bracketing with them."""
    gen = span(basis.vectors, L.dim)
    current = gen
    while True:
        nxt = current + L.bracket_span(current, gen)
        if nxt == current:
            return current.dim == L.dim
        current = nxt


def full_basis(entry, weights_seed):
    L = entry.algebra
    choice = WEIGHT_CHOICES[weights_seed % len(WEIGHT_CHOICES)]
    ws = [choice[i % len(choice)] for i in range(L.dim)]
    return WeightedBasis(L, list(range(L.dim)), ws)


class TestWeightedLength:
    def test_examples(self):
        assert weighted_length([0, 2], [Fraction(1), Fraction(2), Fraction(2)]) == 3
        assert weighted_length([0, 0], [Fraction(1), Fraction(1)]) == 2
        assert weighted_length([1, 1, 0], [Fraction(1), Fraction(2)]) == 5

    def test_empty_is_zero(self):
        assert weighted_length([], [Fraction(1)]) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_length([2], [Fraction(1), Fraction(1)])


class TestRationalLcm:
    def test_integers(self):
        assert rational_lcm([Fraction(1), Fraction(2)]) == 2
        assert rational_lcm([Fraction(2), Fraction(3)]) == 6

    def test_fractions(self):
        assert rational_lcm([Fraction(3, 2), Fraction(1)]) == 3
        assert rational_lcm([Fraction(3, 2), Fraction(5, 4)]) == Fraction(15, 2)


class TestWeightedBasis:
    def test_requires_independence(self):
        L = heisenberg(1).algebra
        X = basis_vector(0, 3)
        with pytest.raises(ValueError):
            WeightedBasis(L, [X, X], [1, 1])

    def test_requires_weights_at_least_one(self):
        L = heisenberg(1).algebra
        with pytest.raises(ValueError):
            WeightedBasis(L, [0, 1], [1, Fraction(1, 2)])

    def test_order_unit(self):
        L = heisenberg(1).algebra
        assert WeightedBasis(L, [0, 1], [1, 2]).order_unit == 2


class TestAlgebraicBasis:
    def test_h1_generators(self):
        L = heisenberg(1).algebra
        assert is_algebraic_basis(L, WeightedBasis(L, [0, 1], [1, 1]))

    def test_single_generator_fails(self):
        L = heisenberg(1).algebra
        assert not is_algebraic_basis(L, WeightedBasis(L, [0], [1]))

    def test_su2_two_generators(self):
        L = su2().algebra
        assert is_algebraic_basis(L, WeightedBasis(L, [0, 1], [1, 1]))

    def test_level_loop_agrees_with_closure_oracle(self):
        rng = random.Random(3)
        choices = WEIGHT_CHOICES + [[Fraction(1), Fraction(7, 5)]]
        # sl2r {E, H} spans a proper subalgebra that is not nilpotent
        # ([H, E] = 2E), so the level loop only stops at its level cap
        cases = [("sl2r", [0, 2], [1, 1]), ("sl2r", [0, 2], [1, Fraction(7, 5)])]
        for name in CATALOG_NAMES + ["heisenberg3"]:
            dim = resolve(name).algebra.dim
            for size in range(1, dim + 1):
                for choice in choices:
                    idx = rng.sample(range(dim), size)
                    cases.append((name, idx, [rng.choice(choice) for _ in idx]))
        verdicts = set()
        for name, idx, ws in cases:
            L = resolve(name).algebra
            basis = WeightedBasis(L, idx, ws)
            expected = _closure_is_algebraic(L, basis)
            verdicts.add(expected)
            case = (name, idx, ws)
            assert is_algebraic_basis(L, basis) == expected, case
            if expected:
                assert build_filtration(L, basis).spaces[-1].dim == L.dim, case
            else:
                with pytest.raises(ValueError):
                    build_filtration(L, basis)
        assert verdicts == {True, False}


class TestFiltration:
    def test_su2_two_jumps(self):
        L = su2().algebra
        filt = build_filtration(L, WeightedBasis(L, [0, 1], [1, 1]))
        assert filt.jumps == (Fraction(1), Fraction(2))
        assert [s.dim for s in filt.spaces] == [2, 3]
        assert filt.spaces[0] == span([basis_vector(0, 3), basis_vector(1, 3)])

    def test_h1_generators(self):
        L = heisenberg(1).algebra
        filt = build_filtration(L, WeightedBasis(L, [0, 1], [1, 1]))
        assert filt.jumps == (Fraction(1), Fraction(2))
        assert filt.spaces[1].dim == 3

    def test_h1_heavy_central_generator(self):
        # the commutator reaches Z at level 2 before the weight-3 generator
        L = heisenberg(1).algebra
        filt = build_filtration(L, WeightedBasis(L, [0, 1, 2], [1, 1, 3]))
        assert filt.jumps == (Fraction(1), Fraction(2))
        assert filt.spaces[1].dim == 3

    def test_non_algebraic_basis_raises(self):
        L = heisenberg(1).algebra
        with pytest.raises(ValueError):
            build_filtration(L, WeightedBasis(L, [0], [1]))

    def test_law_on_catalog_sweep(self):
        for name in CATALOG_NAMES:
            entry = resolve(name)
            for k in range(3):
                basis = full_basis(entry, k)
                filt = build_filtration(entry.algebra, basis)
                assert filtration_law_holds(entry.algebra, filt), (name, k)


class TestReducedness:
    def test_h1_canonical_weights(self):
        L = heisenberg(1).algebra
        assert is_reduced(L, WeightedBasis(L, [0, 1, 2], [1, 1, 2])).reduced

    def test_h1_overweighted_center(self):
        L = heisenberg(1).algebra
        rep = is_reduced(L, WeightedBasis(L, [0, 1, 2], [1, 1, 3]))
        assert not rep.reduced
        assert rep.weight == 3
        assert rep.witness == basis_vector(2, 3)

    def test_first_stratum_bases_reduced(self):
        for n in (1, 2, 3):
            entry = heisenberg(n)
            basis = WeightedBasis(entry.algebra, list(entry.generators),
                                  list(entry.generator_weights))
            assert is_reduced(entry.algebra, basis).reduced


class TestReduce:
    def test_lowers_central_weight(self):
        L = heisenberg(1).algebra
        out = reduce_basis(L, WeightedBasis(L, [0, 1, 2], [1, 1, 3]))
        assert out.weights == (Fraction(1), Fraction(1), Fraction(2))
        assert out.indices == (0, 1, 2)

    def test_idempotent_on_reduced(self):
        L = heisenberg(1).algebra
        basis = WeightedBasis(L, [0, 1, 2], [1, 1, 2])
        out = reduce_basis(L, basis)
        assert out.weights == basis.weights
        assert out.vectors == basis.vectors

    def test_su2_all_weight_one_unchanged(self):
        L = su2().algebra
        basis = WeightedBasis(L, [0, 1, 2], [1, 1, 1])
        out = reduce_basis(L, basis)
        assert out.weights == (Fraction(1),) * 3
        assert len(out) == 3

    def test_dependent_layer_is_cleaned(self):
        # engel4 with weight-3 layer {X4+X3, X4-X3}: the layer span meets
        # F_3^- (it contains X3) although neither element lies in it, so the
        # per-element drop rule alone would never fire; layer-relative
        # dropping must still reach a reduced basis with the same filtration
        L = resolve("engel4").algebra
        X1, X2, X3, X4 = (basis_vector(i, 4) for i in range(4))
        A = vec_add(X4, X3)
        B = vec_add(X4, vec_scale(-1, X3))
        basis = WeightedBasis(L, [0, 1, A, B], [1, 1, 3, 3])
        rep = is_reduced(L, basis)
        assert not rep.reduced
        assert rep.weight == 3
        out = reduce_basis(L, basis)
        assert is_reduced(L, out).reduced
        assert len(out) == 3
        assert build_filtration(L, out) == build_filtration(L, basis)

    def test_sweep_idempotence_and_preservation(self):
        for name in CATALOG_NAMES:
            entry = resolve(name)
            for k in range(len(WEIGHT_CHOICES)):
                basis = full_basis(entry, k)
                filt = build_filtration(entry.algebra, basis)
                red = reduce_basis(entry.algebra, basis)
                assert is_reduced(entry.algebra, red).reduced, (name, k)
                assert build_filtration(entry.algebra, red) == filt, (name, k)
                again = reduce_basis(entry.algebra, red)
                assert again.weights == red.weights
                assert again.vectors == red.vectors


class TestContract:
    def test_su2_gives_h1(self):
        entry = su2()
        G = contract(entry.algebra, WeightedBasis(entry.algebra, [0, 1], [1, 1]))
        assert isomorphic_to_heisenberg1(G)
        assert G.homogeneous_dimension == 4
        assert normalized_h1_constants(G) == \
            heisenberg(1).algebra.structure_table()

    def test_sl2r_gives_h1(self):
        L = resolve("sl2r").algebra
        G = contract(L, WeightedBasis(L, [0, 1], [1, 1]))
        assert isomorphic_to_heisenberg1(G)
        assert G.homogeneous_dimension == 4

    def test_h1_all_weight_one_abelianizes(self):
        L = heisenberg(1).algebra
        G = contract(L, WeightedBasis(L, [0, 1, 2], [1, 1, 1]))
        assert G.base.structure_table() == ()
        assert G.homogeneous_dimension == 3

    def test_reduces_input_if_needed(self):
        L = heisenberg(1).algebra
        G = contract(L, WeightedBasis(L, [0, 1, 2], [1, 1, 3]))
        assert isomorphic_to_heisenberg1(G)
        assert G.homogeneous_dimension == 4

    def test_outputs_pass_checks_on_catalog(self):
        for name in CATALOG_NAMES:
            entry = resolve(name)
            basis = WeightedBasis(entry.algebra, list(entry.generators),
                                  list(entry.generator_weights))
            G = contract(entry.algebra, basis)
            assert check_grading(G).ok, name
            assert G.base.check_jacobi().ok, name
            assert G.base.is_nilpotent().nilpotent, name

    def test_engel_contraction_is_engel(self):
        entry = resolve("engel4")
        G = contract(entry.algebra,
                     WeightedBasis(entry.algebra, [0, 1], [1, 1]))
        assert G.base.structure_table() == entry.algebra.structure_table()
        assert G.homogeneous_dimension == 7


class TestFiltrationBuiltOnce:
    def test_contract_builds_one_filtration(self, monkeypatch):
        calls = Counter()
        for fn in ("build_filtration", "is_algebraic_basis"):
            def counting(*args, _fn=fn, _original=getattr(weighted, fn)):
                calls[_fn] += 1
                return _original(*args)
            monkeypatch.setattr(weighted, fn, counting)
        for name in CATALOG_NAMES + ["heisenberg3"]:
            entry = resolve(name)
            basis = WeightedBasis(entry.algebra, list(entry.generators),
                                  list(entry.generator_weights))
            calls.clear()
            contract(entry.algebra, basis)
            assert (calls["build_filtration"],
                    calls["is_algebraic_basis"]) == (1, 0), name


class TestHomogeneousDimension:
    def test_h1_canonical(self):
        L = heisenberg(1).algebra
        G = contract(L, WeightedBasis(L, [0, 1, 2], [1, 1, 2]))
        assert G.homogeneous_dimension == 4

    def test_heisenberg_n(self):
        for n in (1, 2, 3):
            entry = heisenberg(n)
            G = contract(entry.algebra,
                         WeightedBasis(entry.algebra, list(entry.generators),
                                       list(entry.generator_weights)))
            assert G.homogeneous_dimension == 2 * n + 2

    def test_abelian_all_ones(self):
        for n in (1, 2, 5):
            entry = resolve(f"abelian{n}")
            G = contract(entry.algebra,
                         WeightedBasis(entry.algebra, list(range(n)), [1] * n))
            assert G.homogeneous_dimension == n


class TestCheckGrading:
    def test_contraction_passes(self):
        L = su2().algebra
        G = contract(L, WeightedBasis(L, [0, 1], [1, 1]))
        assert check_grading(G).ok

    def test_weight_violation_detected(self):
        # [e1, e2] = e3 with weights (1, 1, 3) breaks additivity
        base = LieAlgebra(3, {(0, 1): [0, 0, 1]})
        G = GradedLieAlgebra(
            base, (Fraction(1), Fraction(1), Fraction(3)),
            ((Fraction(1), 0, 2), (Fraction(3), 2, 3)),
            tuple(basis_vector(i, 3) for i in range(3)))
        rep = check_grading(G)
        assert not rep.ok and "weight" in rep.reason

    def test_non_nilpotent_detected(self):
        base = su2().algebra
        G = GradedLieAlgebra(
            base, (Fraction(1),) * 3, ((Fraction(1), 0, 3),),
            tuple(basis_vector(i, 3) for i in range(3)))
        assert not check_grading(G).ok


class TestGradedFixedPoint:
    def test_contracting_a_contraction_is_identity(self):
        for name in CATALOG_NAMES:
            entry = resolve(name)
            basis = WeightedBasis(entry.algebra, list(entry.generators),
                                  list(entry.generator_weights))
            G = contract(entry.algebra, basis)
            again = contract(G.base, G.as_weighted_basis())
            assert again.base.structure_table() == G.base.structure_table(), name
            assert again.weights == G.weights, name


class TestBasisChangeInvariance:
    def test_perturbation_within_lower_filtration(self):
        # replacing X by X + v with v in F_{w}^- keeps the contraction
        rng = random.Random(41)
        for name in ["su2", "so3", "sl2r", "se2", "heisenberg1"]:
            entry = resolve(name)
            L = entry.algebra
            basis = WeightedBasis(L, list(entry.generators),
                                  list(entry.generator_weights))
            G = contract(L, basis)
            filt = build_filtration(L, basis)
            # weight-2 layer gets perturbed by weight-1 elements
            red = reduce_basis(L, basis)
            lower = filt.below(Fraction(2))
            if lower.dim == 0:
                continue
            v = lower.rows[rng.randrange(lower.dim)]
            # full adapted basis of the contraction, perturbing the top vector
            adapted = list(G.adapted_rows)
            adapted[-1] = vec_add(adapted[-1], vec_scale(rng.randint(1, 3), v))
            perturbed = WeightedBasis(L, adapted, list(G.weights))
            G2 = contract(L, perturbed)
            assert isomorphic_to_heisenberg1(G2) == isomorphic_to_heisenberg1(G)
            assert normalized_h1_constants(G2) == normalized_h1_constants(G)
            assert G2.homogeneous_dimension == G.homogeneous_dimension
