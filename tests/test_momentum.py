"""Momentum map components, the differential identity, and the coadjoint action."""

import numpy as np
import pytest

from slicecert import (
    LieAlgebraBasis,
    MomentumMap,
    Poly,
    invariance_residual,
    isotropy_algebra,
    momentum_isotropy_algebra,
)

from reference import ad_star, equivariance_residual, kernel_basis, omega_form
from systems import (
    canonical_space,
    example1_generator,
    momentum_component,
    random_system_suite,
    su2_generators,
)


@pytest.fixture(scope="module")
def space4():
    return canonical_space(4)


@pytest.fixture(scope="module")
def example1_mm(space4):
    algebra = LieAlgebraBasis.build(space4, example1_generator()[None, :, :])
    return MomentumMap(space4, algebra)


@pytest.fixture(scope="module")
def su2_mm(space4):
    algebra = LieAlgebraBasis.build(space4, su2_generators(blocks=1))
    return MomentumMap(space4, algebra)


class TestComponents:
    def test_example1_momentum(self, example1_mm):
        expected = Poly(
            4, {(2, 0, 0, 0): 0.5, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): -0.5, (0, 0, 0, 2): -0.5}
        )
        assert momentum_component(example1_mm, 0) == expected

    def test_corotating_generator(self, space4):
        block = np.array([[0.0, -1.0], [1.0, 0.0]])
        a = np.zeros((4, 4))
        a[:2, :2] = block
        a[2:, 2:] = block
        j = momentum_component(MomentumMap(space4, LieAlgebraBasis.build(space4, a[None, :, :])), 0)
        expected = Poly(
            4, {(2, 0, 0, 0): 0.5, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): 0.5, (0, 0, 0, 2): 0.5}
        )
        assert j == expected


class TestValue:
    def test_origin(self, example1_mm):
        np.testing.assert_array_equal(example1_mm.value(np.zeros(4)), [0.0])

    def test_unit_point(self, example1_mm):
        np.testing.assert_allclose(example1_mm.value(np.array([1.0, 0, 0, 0])), [0.5])

    def test_trivial_group(self, space4):
        algebra = LieAlgebraBasis.build(space4, np.zeros((0, 4, 4)))
        mm = MomentumMap(space4, algebra)
        assert mm.value(np.ones(4)).shape == (0,)

    def test_value_matches_component_polynomials(self, su2_mm, rng):
        for _ in range(10):
            x = rng.standard_normal(4)
            direct = su2_mm.value(x)
            via_polys = np.array([momentum_component(su2_mm, i).value(x) for i in range(3)])
            np.testing.assert_allclose(direct, via_polys, atol=1e-13)


class TestDifferentialIdentity:
    def test_differential_identity_example1(self, example1_mm, space4, rng):
        for _ in range(100):
            p = rng.standard_normal(4)
            v = rng.standard_normal(4)
            grad = momentum_component(example1_mm, 0).gradient(p)
            ap = example1_mm.algebra.generators[0] @ p
            assert abs(float(grad @ v) - omega_form(space4, ap, v)) <= 1e-10

    def test_differential_identity_su2(self, su2_mm, space4, rng):
        for _ in range(100):
            i = int(rng.integers(0, 3))
            p = rng.standard_normal(4)
            v = rng.standard_normal(4)
            grad = momentum_component(su2_mm, i).gradient(p)
            ap = su2_mm.algebra.generators[i] @ p
            assert abs(float(grad @ v) - omega_form(space4, ap, v)) <= 1e-10


class TestKernel:
    def test_origin_kernel_is_everything(self, example1_mm):
        basis = kernel_basis(example1_mm, np.zeros(4))
        assert basis.shape == (4, 4)

    def test_rank_one_constraint(self, example1_mm):
        basis = kernel_basis(example1_mm, np.array([1.0, 0, 0, 0]))
        assert basis.shape == (4, 3)
        # every kernel vector annihilates the single constraint grad J = e1
        assert np.abs(basis[0, :]).max() <= 1e-12

    def test_trivial_group(self, space4):
        algebra = LieAlgebraBasis.build(space4, np.zeros((0, 4, 4)))
        mm = MomentumMap(space4, algebra)
        assert kernel_basis(mm, np.ones(4)).shape == (4, 4)


class TestCoadjoint:
    def test_abelian_vanishes(self, example1_mm, rng):
        out = ad_star(example1_mm.algebra, rng.standard_normal(1), rng.standard_normal(1))
        np.testing.assert_array_equal(out, [0.0])

    def test_su2_rotates_duals(self, su2_mm):
        e1, e2, e3 = np.eye(3)
        out = ad_star(su2_mm.algebra, e1, e2)
        assert abs(abs(out @ e3) - 1.0) <= 1e-12
        assert abs(out @ e1) <= 1e-12 and abs(out @ e2) <= 1e-12

    def test_zero_momentum(self, su2_mm, rng):
        out = ad_star(su2_mm.algebra, rng.standard_normal(3), np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_bilinearity(self, su2_mm, rng):
        for _ in range(10):
            a, b = rng.standard_normal(2)
            e1, e2 = rng.standard_normal((2, 3))
            mu = rng.standard_normal(3)
            lhs = ad_star(su2_mm.algebra, a * e1 + b * e2, mu)
            rhs = a * ad_star(su2_mm.algebra, e1, mu) + b * ad_star(su2_mm.algebra, e2, mu)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_momentum_isotropy_of_zero(self, su2_mm):
        assert momentum_isotropy_algebra(su2_mm.algebra, np.zeros(3)).dim == 3

    def test_momentum_isotropy_abelian(self, example1_mm):
        assert momentum_isotropy_algebra(example1_mm.algebra, np.array([2.0])).dim == 1

    def test_momentum_isotropy_su2_axis(self, su2_mm):
        sub = momentum_isotropy_algebra(su2_mm.algebra, np.array([0.0, 0.0, 1.0]))
        assert sub.dim == 1
        direction = sub.basis[0] / np.abs(sub.basis[0]).max()
        np.testing.assert_allclose(np.abs(direction), [0.0, 0.0, 1.0], atol=1e-12)


class TestEquivariance:
    def test_abelian_invariance(self, example1_mm, rng):
        for _ in range(10):
            x = rng.standard_normal(4)
            t = float(rng.uniform(-5, 5))
            assert equivariance_residual(example1_mm, x, np.array([1.0]), t) <= 1e-10

    def test_zero_time(self, su2_mm, rng):
        x = rng.standard_normal(4)
        assert equivariance_residual(su2_mm, x, rng.standard_normal(3), 0.0) == 0.0

    def test_zero_direction(self, su2_mm, rng):
        x = rng.standard_normal(4)
        assert equivariance_residual(su2_mm, x, np.zeros(3), 1.3) == 0.0

    def test_su2_transport(self, su2_mm, rng):
        for _ in range(10):
            x = rng.standard_normal(4)
            eta = rng.standard_normal(3)
            t = float(rng.uniform(-2, 2))
            assert equivariance_residual(su2_mm, x, eta, t) <= 1e-9


class TestSystemInvariants:
    def test_hamiltonian_invariance_on_suite(self):
        for system in random_system_suite():
            res = invariance_residual(system.space, system.algebra, system.hamiltonian)
            assert res <= 1e-9

    def test_isotropy_inside_momentum_isotropy(self):
        for system in random_system_suite():
            mm = MomentumMap(system.space, system.algebra)
            sub_h = isotropy_algebra(system.algebra, system.point)
            sub_k = momentum_isotropy_algebra(system.algebra, mm.value(system.point))
            assert sub_h.dim <= sub_k.dim
            for i in range(sub_h.dim):
                assert sub_k.containment_residual(system.algebra, sub_h.basis[i]) <= 1e-9
