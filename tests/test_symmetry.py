"""Lie algebra construction, subalgebras, and the compactness certificate."""

import numpy as np
import pytest

from slicecert import (
    LieAlgebraBasis,
    compactness_certificate,
    derive_structure_constants,
    isotropy_algebra,
    normalizer_algebra,
)
from slicecert.errors import NotClosedUnderBracket, SubalgebraNotContained, ValidationError
from slicecert.symmetry import Subalgebra

from reference import group_exp, omega_form
from systems import canonical_space, example1_generator, su2_generators


@pytest.fixture(scope="module")
def space4():
    return canonical_space(4)


@pytest.fixture(scope="module")
def example1_algebra(space4):
    return LieAlgebraBasis.build(space4, example1_generator()[None, :, :])


@pytest.fixture(scope="module")
def su2_algebra(space4):
    return LieAlgebraBasis.build(space4, su2_generators(blocks=1))


class TestAction:
    def test_rotation_generator_on_e1(self, example1_algebra):
        out = example1_algebra.act(np.array([1.0]), np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0, 0.0])

    def test_zero_velocity(self, example1_algebra, rng):
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(example1_algebra.act(np.array([0.0]), x), np.zeros(4))

    def test_origin_is_fixed(self, example1_algebra):
        np.testing.assert_array_equal(
            example1_algebra.act(np.array([2.5]), np.zeros(4)), np.zeros(4)
        )

    def test_infinitesimal_symplecticity(self, su2_algebra, space4, rng):
        for i in range(su2_algebra.dim):
            a = su2_algebra.generators[i]
            for _ in range(10):
                u, v = rng.standard_normal(4), rng.standard_normal(4)
                residual = omega_form(space4, a @ u, v) + omega_form(space4, u, a @ v)
                assert abs(residual) <= 1e-10


class TestBracket:
    def test_abelian(self, example1_algebra):
        assert example1_algebra.bracket(np.array([2.0]), np.array([-1.0])) == pytest.approx(0.0)

    def test_su2_epsilon(self, su2_algebra):
        e1, e2, e3 = np.eye(3)
        np.testing.assert_allclose(su2_algebra.bracket(e1, e2), e3, atol=1e-12)

    def test_antisymmetry_diagonal(self, su2_algebra, rng):
        xi = rng.standard_normal(3)
        np.testing.assert_allclose(su2_algebra.bracket(xi, xi), np.zeros(3), atol=1e-12)

    def test_antisymmetry_and_jacobi_random(self, su2_algebra, rng):
        for _ in range(10):
            a, b, c = (rng.standard_normal(3) for _ in range(3))
            lhs = su2_algebra.bracket(a, b) + su2_algebra.bracket(b, a)
            assert np.abs(lhs).max() <= 1e-10
            jac = (
                su2_algebra.bracket(a, su2_algebra.bracket(b, c))
                + su2_algebra.bracket(b, su2_algebra.bracket(c, a))
                + su2_algebra.bracket(c, su2_algebra.bracket(a, b))
            )
            assert np.abs(jac).max() <= 1e-10


class TestStructureConstants:
    def test_single_generator(self):
        c = derive_structure_constants(example1_generator()[None, :, :])
        np.testing.assert_array_equal(c, np.zeros((1, 1, 1)))

    def test_su2_matches_commutators(self):
        gens = su2_generators(blocks=1)
        c = derive_structure_constants(gens)
        eps = np.zeros((3, 3, 3))
        for i, j, k, sign in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
            eps[i, j, k] = sign
        np.testing.assert_allclose(c, eps, atol=1e-12)

    def test_commuting_diagonal_generators(self):
        gens = np.array([np.diag([1.0, -1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, -1.0])])
        np.testing.assert_array_equal(derive_structure_constants(gens), np.zeros((2, 2, 2)))

    def test_not_closed(self):
        block = np.array([[0.0, -1.0], [1.0, 0.0]])
        a = np.zeros((4, 4))
        a[:2, :2] = block
        b = np.diag([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(NotClosedUnderBracket):
            derive_structure_constants(np.array([a, b]))


class TestIsotropy:
    def test_origin_fixed_by_everything(self, example1_algebra):
        sub = isotropy_algebra(example1_algebra, np.zeros(4))
        assert sub.dim == 1

    def test_free_point(self, example1_algebra):
        sub = isotropy_algebra(example1_algebra, np.array([1.0, 0, 0, 0]))
        assert sub.dim == 0

    def test_trivial_group(self, space4):
        algebra = LieAlgebraBasis.build(space4, np.zeros((0, 4, 4)))
        sub = isotropy_algebra(algebra, np.ones(4))
        assert sub.dim == 0

    def test_isotropy_kills_action(self, su2_algebra):
        sub = isotropy_algebra(su2_algebra, np.zeros(4))
        for i in range(sub.dim):
            out = su2_algebra.act(sub.basis[i], np.zeros(4))
            assert np.abs(out).max() <= 1e-12

    def test_dimension_invariant_under_conjugation(self, su2_algebra, rng):
        p = rng.standard_normal(4)
        base = isotropy_algebra(su2_algebra, p).dim
        for _ in range(5):
            eta = rng.standard_normal(3)
            t = float(rng.uniform(-2, 2))
            moved = group_exp(su2_algebra, eta, t) @ p
            assert isotropy_algebra(su2_algebra, moved).dim == base

    def test_isotropy_kills_action_on_suite(self):
        from systems import random_system_suite

        for system in random_system_suite():
            sub = isotropy_algebra(system.algebra, system.point)
            for i in range(sub.dim):
                out = system.algebra.act(sub.basis[i], system.point)
                assert np.abs(out).max() <= 1e-12


class TestNormalizer:
    def test_zero_subalgebra_normalized_by_all(self, su2_algebra):
        k = Subalgebra.from_vectors(su2_algebra, np.eye(3))
        h = Subalgebra(basis=np.zeros((0, 3)))
        assert normalizer_algebra(su2_algebra, h, k).dim == k.dim

    def test_self_normalizing(self, su2_algebra):
        k = Subalgebra.from_vectors(su2_algebra, np.eye(3))
        assert normalizer_algebra(su2_algebra, k, k).dim == 3

    def test_abelian_gives_everything(self, example1_algebra):
        k = Subalgebra.from_vectors(example1_algebra, np.eye(1))
        assert normalizer_algebra(example1_algebra, k, k).dim == 1

    def test_containment_enforced(self, su2_algebra):
        h = Subalgebra.from_vectors(su2_algebra, np.array([[1.0, 0.0, 0.0]]))
        k = Subalgebra.from_vectors(su2_algebra, np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(SubalgebraNotContained):
            normalizer_algebra(su2_algebra, h, k)

    def test_cartan_normalizer_in_su2(self, su2_algebra):
        # the normalizer of a Cartan line in su(2) is the line itself
        k = Subalgebra.from_vectors(su2_algebra, np.eye(3))
        h = Subalgebra.from_vectors(su2_algebra, np.array([[0.0, 0.0, 1.0]]))
        n = normalizer_algebra(su2_algebra, h, k)
        assert n.dim == 1
        assert n.containment_residual(su2_algebra, h.basis[0]) <= 1e-9


class TestCompactness:
    def test_rotation_generator(self, example1_algebra, space4):
        assert compactness_certificate(example1_algebra, space4.metric) is True

    def test_scaling_generator(self, space4):
        algebra = LieAlgebraBasis.build(space4, np.diag([1.0, -1.0, 1.0, -1.0])[None, :, :])
        assert compactness_certificate(algebra, space4.metric) is False

    def test_trivial_group(self, space4):
        algebra = LieAlgebraBasis.build(space4, np.zeros((0, 4, 4)))
        assert compactness_certificate(algebra, space4.metric) is True


class TestGroupExp:
    def test_identity_at_zero(self, example1_algebra):
        np.testing.assert_array_equal(group_exp(example1_algebra, np.array([0.0])), np.eye(4))

    def test_quarter_turn(self, example1_algebra):
        m = group_exp(example1_algebra, np.array([1.0]), np.pi / 2)
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = r
        expected[2:, 2:] = r.T
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_full_turn(self, example1_algebra):
        m = group_exp(example1_algebra, np.array([1.0]), 2 * np.pi)
        assert np.abs(m - np.eye(4)).max() <= 1e-10

    def test_result_is_symplectic(self, su2_algebra, space4, rng):
        for _ in range(5):
            m = group_exp(su2_algebra, rng.standard_normal(3), float(rng.uniform(-3, 3)))
            assert np.abs(m.T @ space4.omega @ m - space4.omega).max() <= 1e-9


class TestValidation:
    def test_rejects_dependent_generators(self, space4):
        a = example1_generator()
        with pytest.raises(ValidationError):
            LieAlgebraBasis.build(space4, np.array([a, 2.0 * a]))

    def test_rejects_non_hamiltonian_generator(self, space4):
        bad = np.diag([1.0, 0.0, 0.0, 0.0])  # pairs x1 with itself: not in sp(4)
        with pytest.raises(ValidationError, match="Hamiltonian"):
            LieAlgebraBasis.build(space4, bad[None, :, :])

    def test_rejects_wrong_structure_constants(self, space4):
        gens = su2_generators(blocks=1)
        wrong = np.zeros((3, 3, 3))
        with pytest.raises(NotClosedUnderBracket):
            LieAlgebraBasis.build(space4, gens, structure=wrong)
