"""Witt-Artin frames, the slice data, and the descent property."""

import numpy as np
import pytest

from slicecert import (
    LieAlgebraBasis,
    MomentumMap,
    restricted_hessian,
    solve_velocities,
    witt_artin_frame,
)
from slicecert.errors import PreconditionViolated
from slicecert.linalg import inertia

from reference import descent_residual, slice_momentum_map, slice_symplectic_form
from systems import canonical_space, example1_generator, example1_hamiltonian, random_system_suite


@pytest.fixture(scope="module")
def example1_parts():
    space = canonical_space(4)
    algebra = LieAlgebraBasis.build(space, example1_generator()[None, :, :])
    return space, algebra, example1_hamiltonian()


class TestFrame:
    def test_dims_at_origin(self, example1_parts):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        assert frame.dims == (0, 0, 4, 0)
        np.testing.assert_allclose(np.abs(frame.basis_n), np.eye(4), atol=1e-12)

    def test_dims_at_free_point(self, example1_parts):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.array([1.0, 0, 0, 0]))
        assert frame.dims == (1, 0, 2, 1)
        # slice realized by the second block coordinates
        assert np.abs(frame.basis_n[:2, :]).max() <= 1e-12

    def test_trivial_group(self):
        space = canonical_space(6)
        algebra = LieAlgebraBasis.build(space, np.zeros((0, 6, 6)))
        frame = witt_artin_frame(space, algebra, np.ones(6))
        assert frame.dims == (0, 0, 6, 0)

    def test_dimension_identities_on_suite(self):
        for system in random_system_suite():
            frame = witt_artin_frame(system.space, system.algebra, system.point)
            t0, t, n, n0 = frame.dims
            sub_h, sub_k = frame.isotropy, frame.momentum_isotropy
            assert t0 == sub_k.dim - sub_h.dim
            assert t == system.algebra.dim - sub_k.dim
            assert n0 == t0
            assert t0 + t + n + n0 == system.space.dim

    def test_t0_isotropic_and_paired(self):
        for system in random_system_suite():
            frame = witt_artin_frame(system.space, system.algebra, system.point)
            if frame.dims[0] == 0:
                continue
            omega = system.space.omega
            assert np.abs(frame.basis_t0.T @ omega @ frame.basis_t0).max() <= 1e-10
            pairing = frame.basis_t0.T @ omega @ frame.basis_n0
            assert np.linalg.svd(pairing, compute_uv=False).min() > 1e-9


class TestSliceForm:
    def test_origin_recovers_omega(self, example1_parts):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        form = slice_symplectic_form(space, frame)
        # the slice is all of phase space; the form matches omega up to the
        # signs of the orthonormal basis vectors
        np.testing.assert_allclose(np.abs(form), np.abs(space.omega), atol=1e-12)

    def test_restriction_to_second_block(self, example1_parts):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.array([1.0, 0, 0, 0]))
        form = slice_symplectic_form(space, frame)
        np.testing.assert_allclose(np.abs(form), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert abs(np.linalg.det(form)) > 1e-9

    def test_empty_slice(self):
        suite = random_system_suite()
        system = suite[9]  # free su(2) point: zero-dimensional slice
        frame = witt_artin_frame(system.space, system.algebra, system.point)
        if frame.dims[2] == 0:
            form = slice_symplectic_form(system.space, frame)
            assert form.shape == (0, 0)

    def test_nondegenerate_on_suite(self):
        for system in random_system_suite():
            frame = witt_artin_frame(system.space, system.algebra, system.point)
            form = slice_symplectic_form(system.space, frame)
            if form.shape[0]:
                assert abs(np.linalg.det(form)) > 1e-9


class TestSliceMomentum:
    def test_zero_vector(self, example1_parts):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        np.testing.assert_array_equal(slice_momentum_map(space, algebra, frame, np.zeros(4)), [0.0])

    def test_full_slice_recovers_momentum(self, example1_parts, rng):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        mm = MomentumMap(space, algebra)
        for _ in range(5):
            v = rng.standard_normal(4)
            ambient = frame.basis_n @ v
            jn = slice_momentum_map(space, algebra, frame, v)
            scale = float(frame.isotropy.basis[0, 0])
            np.testing.assert_allclose(jn, scale * mm.value(ambient), atol=1e-12)

    def test_trivial_isotropy_gives_empty(self, example1_parts):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.array([1.0, 0, 0, 0]))
        out = slice_momentum_map(space, algebra, frame, np.zeros(2))
        assert out.shape == (0,)

    def test_homogeneous_degree_two(self, example1_parts, rng):
        space, algebra, _ = example1_parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        v = rng.standard_normal(4)
        j1 = slice_momentum_map(space, algebra, frame, v)
        j2 = slice_momentum_map(space, algebra, frame, 3.0 * v)
        np.testing.assert_allclose(j2, 9.0 * j1, atol=1e-12)


class TestDescent:
    def test_zero_eta_exact(self, example1_parts):
        space, algebra, h = example1_parts
        r = descent_residual(space, algebra, h, np.zeros(4), np.array([3.0]), np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.0]))
        assert r == 0.0

    def test_zero_vector(self, example1_parts, rng):
        space, algebra, h = example1_parts
        eta = rng.standard_normal(1)
        r = descent_residual(space, algebra, h, np.zeros(4), np.array([3.0]), np.zeros(4), eta)
        assert r <= 1e-10

    def test_fixed_point_identically_zero(self, example1_parts, rng):
        space, algebra, h = example1_parts
        for _ in range(10):
            v = rng.standard_normal(4)
            eta = rng.standard_normal(1)
            assert descent_residual(space, algebra, h, np.zeros(4), np.array([3.0]), v, eta) <= 1e-10

    def test_rejects_vector_outside_kernel(self, example1_parts):
        space, algebra, h = example1_parts
        p = np.array([1.0, 0, 0, 0])
        with pytest.raises(PreconditionViolated):
            descent_residual(space, algebra, h, p, np.array([2.0]), np.array([1.0, 0, 0, 0]), np.array([1.0]))

    def test_rejects_non_velocity(self, example1_parts):
        space, algebra, h = example1_parts
        p = np.array([1.0, 0, 0, 0])
        with pytest.raises(PreconditionViolated):
            descent_residual(space, algebra, h, p, np.array([1.0]), np.array([0.0, 0, 1.0, 0]), np.array([1.0]))

    def test_descends_on_random_system(self, rng):
        system = random_system_suite()[2]
        mm = MomentumMap(system.space, system.algebra)
        frame = witt_artin_frame(system.space, system.algebra, system.point)
        family = solve_velocities(system.hamiltonian, frame)
        kernel = mm.kernel_basis(system.point)
        q = system.hamiltonian.hessian(system.point) - np.einsum(
            "i,imn->mn", family.xi1, mm.component_hessians()
        )
        for _ in range(50):
            v = kernel @ rng.standard_normal(kernel.shape[1])
            eta = frame.momentum_isotropy.basis.T @ rng.standard_normal(frame.momentum_isotropy.dim)
            r = descent_residual(
                system.space, system.algebra, system.hamiltonian, system.point, family.xi1, v, eta
            )
            assert r <= 1e-9 * (1.0 + abs(float(v @ q @ v)))


class TestRealizationIndependence:
    def test_inertia_stable_under_complement_choice(self, rng):
        for system in random_system_suite()[:4]:
            base_frame = witt_artin_frame(system.space, system.algebra, system.point)
            family = solve_velocities(system.hamiltonian, base_frame)
            base = inertia(
                restricted_hessian(
                    system.space, system.algebra, system.hamiltonian, system.point, family.xi1, base_frame
                ),
                1e-7,
            )
            for _ in range(2):
                frame = witt_artin_frame(system.space, system.algebra, system.point, rng=rng)
                other = inertia(
                    restricted_hessian(
                        system.space, system.algebra, system.hamiltonian, system.point, family.xi1, frame
                    ),
                    1e-7,
                )
                assert other == base
