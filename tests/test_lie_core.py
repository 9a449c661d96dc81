import random
from fractions import Fraction

import pytest

from liespec.catalog import heisenberg, resolve, su2
from liespec.lie_core import (
    ExactnessError,
    LieAlgebra,
    Subspace,
    as_fraction,
    as_vector,
    basis_vector,
    is_zero,
    solve_coordinates,
    span,
    vec_add,
    vec_scale,
    zero_vector,
)


def rand_fraction(rng, lo=-3, hi=3, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_vector(rng, dim):
    return tuple(rand_fraction(rng) for _ in range(dim))


class TestScalars:
    def test_rejects_floats(self):
        with pytest.raises(ExactnessError):
            as_fraction(0.5)

    def test_parses_strings(self):
        assert as_fraction("-7/3") == Fraction(-7, 3)

    def test_vector_length_check(self):
        with pytest.raises(ValueError):
            as_vector([1, 2], dim=3)


class TestBracket:
    def test_h1_generators(self):
        L = heisenberg(1).algebra
        X, Y, Z = L.basis()
        assert L.bracket(X, Y) == Z

    def test_antisymmetry_on_equal_args(self):
        L = su2().algebra
        rng = random.Random(7)
        for _ in range(20):
            x = rand_vector(rng, 3)
            assert is_zero(L.bracket(x, x))

    def test_su2_catalog_bracket(self):
        L = su2().algebra
        e1, e2, e3 = L.basis()
        assert L.bracket(e2, e3) == e1

    def test_bilinear_antisymmetric_random(self):
        L = resolve("sl2r").algebra
        rng = random.Random(11)
        for _ in range(50):
            x, y, z = (rand_vector(rng, 3) for _ in range(3))
            a, b = rand_fraction(rng), rand_fraction(rng)
            lhs = L.bracket(vec_add(vec_scale(a, x), vec_scale(b, y)), z)
            rhs = vec_add(vec_scale(a, L.bracket(x, z)),
                          vec_scale(b, L.bracket(y, z)))
            assert lhs == rhs
            assert L.bracket(x, y) == vec_scale(-1, L.bracket(y, x))

    def test_dimension_mismatch(self):
        L = su2().algebra
        with pytest.raises(ValueError):
            L.bracket((Fraction(1),), (Fraction(0), Fraction(0), Fraction(0)))


class TestJacobi:
    def test_catalog_entries_pass(self):
        for name in ["su2", "so3", "sl2r", "se2", "engel4",
                     "heisenberg1", "heisenberg2", "abelian3"]:
            assert resolve(name).algebra.check_jacobi().ok, name

    def test_known_violation(self):
        # c^1_12 = 1, c^2_13 = 1: [e3,[e1,e2]] = [e3,e1] = -e2, rest vanish
        L = LieAlgebra(3, {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0]})
        report = L.check_jacobi()
        assert not report.ok
        assert report.triple == (0, 1, 2)
        assert report.residual == (Fraction(0), Fraction(-1), Fraction(0))


class TestMultiCommutator:
    def test_h1_single_bracket(self):
        L = heisenberg(1).algebra
        X, Y, Z = L.basis()
        assert L.multi_commutator([X, Y], [0, 1]) == Z

    def test_repeated_entry_vanishes(self):
        L = heisenberg(1).algebra
        X, Y, _ = L.basis()
        assert is_zero(L.multi_commutator([X, Y], [0, 0]))

    def test_su2_depth_three(self):
        # [[e2, e1], e2] = [-e3, e2] = e1
        L = su2().algebra
        e1, e2, _ = L.basis()
        assert L.multi_commutator([e1, e2], [1, 0, 1]) == e1

    def test_left_nesting_recursion(self):
        L = resolve("engel4").algebra
        rng = random.Random(3)
        elems = L.basis()[:2]
        for _ in range(30):
            n = rng.randint(1, 4)
            alpha = [rng.randint(0, 1) for _ in range(n)]
            j = rng.randint(0, 1)
            lhs = L.multi_commutator(elems, alpha + [j])
            rhs = L.bracket(L.multi_commutator(elems, alpha), elems[j])
            assert lhs == rhs

    def test_errors(self):
        L = su2().algebra
        with pytest.raises(ValueError):
            L.multi_commutator(L.basis(), [])
        with pytest.raises(ValueError):
            L.multi_commutator(L.basis()[:2], [0, 2])


class TestSpan:
    def test_redundant_generators(self):
        X = basis_vector(0, 3)
        Y = basis_vector(1, 3)
        s = span([X, vec_add(X, Y)])
        assert s.dim == 2
        assert s == span([X, Y])

    def test_empty(self):
        assert span([], 3).dim == 0

    def test_h1_multi_commutators_fill(self):
        L = heisenberg(1).algebra
        X, Y, _ = L.basis()
        vecs = []
        for alpha in ([0], [1], [0, 0], [0, 1], [1, 0], [1, 1]):
            vecs.append(L.multi_commutator([X, Y], alpha))
        assert span(vecs, 3).dim == 3

    def test_closure_and_membership(self):
        rng = random.Random(23)
        for _ in range(20):
            vecs = [rand_vector(rng, 4) for _ in range(rng.randint(0, 5))]
            s = span(vecs, 4)
            assert span(list(s.rows), 4) == s
            for v in vecs:
                assert s.contains(v)

    def test_order_independence(self):
        rng = random.Random(5)
        vecs = [rand_vector(rng, 4) for _ in range(4)]
        shuffled = vecs[::-1]
        assert span(vecs, 4) == span(shuffled, 4)

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError):
            span([(Fraction(1),), (Fraction(1), Fraction(0))])


class TestContains:
    def test_z_outside_xy_plane(self):
        L = heisenberg(1).algebra
        X, Y, Z = L.basis()
        assert not span([X, Y]).contains(Z)

    def test_zero_vector_always_inside(self):
        assert span([], 3).contains(zero_vector(3))

    def test_combination_inside(self):
        X = basis_vector(0, 3)
        Y = basis_vector(1, 3)
        assert span([X, vec_add(X, Y)]).contains(Y)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            span([], 3).contains((Fraction(1),))


class TestIntersection:
    def test_plane_intersection(self):
        e = [basis_vector(i, 3) for i in range(3)]
        a = span([e[0], e[1]])
        b = span([e[1], e[2]])
        assert a.intersect(b) == span([e[1]])

    def test_random_intersection_consistency(self):
        rng = random.Random(31)
        for _ in range(20):
            a = span([rand_vector(rng, 4) for _ in range(2)], 4)
            b = span([rand_vector(rng, 4) for _ in range(2)], 4)
            inter = a.intersect(b)
            assert inter.dim == a.dim + b.dim - (a + b).dim
            for row in inter.rows:
                assert a.contains(row) and b.contains(row)


class TestNilpotency:
    def test_heisenberg_step_two(self):
        rep = heisenberg(1).algebra.is_nilpotent()
        assert rep.nilpotent and rep.step == 2

    def test_su2_not_nilpotent(self):
        assert not su2().algebra.is_nilpotent().nilpotent

    def test_engel_step_three(self):
        rep = resolve("engel4").algebra.is_nilpotent()
        assert rep.nilpotent and rep.step == 3

    def test_abelian_step_one(self):
        rep = resolve("abelian2").algebra.is_nilpotent()
        assert rep.nilpotent and rep.step == 1


class TestSolveCoordinates:
    def test_round_trip(self):
        rng = random.Random(13)
        rows = [rand_vector(rng, 3) for _ in range(3)]
        while span(rows, 3).dim < 3:
            rows = [rand_vector(rng, 3) for _ in range(3)]
        v = rand_vector(rng, 3)
        [x] = solve_coordinates(rows, [v])
        recon = zero_vector(3)
        for c, r in zip(x, rows):
            recon = vec_add(recon, vec_scale(c, r))
        assert recon == v

    def test_outside_span_raises(self):
        rows = [basis_vector(0, 3)]
        with pytest.raises(ValueError):
            solve_coordinates(rows, [basis_vector(1, 3)])
        # one vector outside the span fails the whole call
        with pytest.raises(ValueError):
            solve_coordinates(rows, [basis_vector(0, 3), basis_vector(1, 3)])


class TestSubspaceBasics:
    def test_full_space(self):
        assert Subspace.full(4).dim == 4

    def test_sum(self):
        a = span([basis_vector(0, 3)])
        b = span([basis_vector(2, 3)])
        assert (a + b).dim == 2
