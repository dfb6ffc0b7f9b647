"""Implicit midpoint integration, orbit distance, and the stability probe."""

import csv
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from slicecert import (
    LieAlgebraBasis,
    MomentumMap,
    Poly,
    bundled_system,
    integrate,
    load_system,
    momentum_isotropy_algebra,
    orbit_distance,
    stability_probe,
)
from slicecert import dynamics
from slicecert.cli import cmd_probe, main
from slicecert.errors import SolverDiverged, ValidationError
from slicecert.symmetry import Subalgebra

from reference import (
    count_calls,
    group_exp,
    hamiltonian_vector_field,
    linear_midpoint_steps,
    metric_norm,
    nelder_mead_orbit_distance,
)
from systems import (
    SU2_PAIR_FILE,
    canonical_space,
    example1_generator,
    example1_hamiltonian,
    poly_add,
    quadratic_form,
    random_system_suite,
    spin_generators,
    su2_generators,
    torus_generators,
)

# Newton-path cases: quartic suite fixtures, each started at p + epsilon u
# and stepped NEWTON_STEPS times with dt = 0.01.  The unit direction u is
# drawn once from default_rng(18): from most directions suite0's trajectory
# reaches, within 300 steps, a region where dt = 0.01 is too coarse, and the
# Newton solve there rightly fails; from this one all fourteen exist.
NEWTON_FIXTURES = (0, 1, 3, 5, 6, 7, 8)
NEWTON_EPSILONS = (1e-3, 0.3)
NEWTON_STEPS = 300

# Gradient and Hessian calls over those steps of plain Newton (an Euler
# predictor and a fresh Jacobian at every correction), from the same starts.
PLAIN_NEWTON_WORK = {
    (0, 1e-3): (1352, 752),
    (0, 0.3): (1529, 929),
    (1, 1e-3): (900, 300),
    (1, 0.3): (900, 300),
    (3, 1e-3): (1200, 600),
    (3, 0.3): (1200, 600),
    (5, 1e-3): (900, 300),
    (5, 0.3): (1200, 600),
    (6, 1e-3): (900, 300),
    (6, 0.3): (1200, 600),
    (7, 1e-3): (900, 300),
    (7, 0.3): (1200, 600),
    (8, 1e-3): (1200, 600),
    (8, 0.3): (1200, 600),
}


def _newton_case(fixture):
    """(system, the starts p + epsilon u for each of NEWTON_EPSILONS)."""
    system = random_system_suite()[fixture]
    u = np.random.default_rng(18).standard_normal(system.space.dim)
    u /= np.linalg.norm(u)
    return system, np.array([system.point + eps * u for eps in NEWTON_EPSILONS])


@pytest.fixture(scope="module")
def space2():
    return canonical_space(2)


@pytest.fixture(scope="module")
def example1_parts():
    space = canonical_space(4)
    algebra = LieAlgebraBasis.build(space, example1_generator()[None, :, :])
    return space, algebra, example1_hamiltonian()


class TestVectorField:
    def test_planar_rotation(self, space2):
        h = Poly(2, {(2, 0): 1.0, (0, 2): 1.0})
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(
            hamiltonian_vector_field(space2, h, x), [2 * x[1], -2 * x[0]], atol=1e-14
        )

    def test_critical_point(self, example1_parts):
        space, _, h = example1_parts
        np.testing.assert_array_equal(hamiltonian_vector_field(space, h, np.zeros(4)), np.zeros(4))

    def test_zero_hamiltonian(self, space2, rng):
        np.testing.assert_array_equal(
            hamiltonian_vector_field(space2, Poly(2), rng.standard_normal(2)), np.zeros(2)
        )

    def test_derivative_of_h_along_field_vanishes(self, example1_parts, rng):
        space, _, h = example1_parts
        for _ in range(10):
            x = rng.standard_normal(4)
            assert abs(float(h.gradient(x) @ hamiltonian_vector_field(space, h, x))) <= 1e-12


class TestIntegrate:
    def test_stays_on_circle(self, example1_parts):
        space, _, h = example1_parts
        x0 = np.array([1e-3, 0.0, 0.0, 0.0])
        traj = integrate(space, h, x0, 1e-2, 10_000)
        radii = traj[:, 0] ** 2 + traj[:, 1] ** 2
        assert np.abs(radii - 1e-6).max() <= 1e-10

    def test_single_small_step_consistency(self, example1_parts):
        space, _, h = example1_parts
        x0 = np.array([0.4, -0.2, 0.9, 0.1])
        dt = 1e-8
        traj = integrate(space, h, x0, dt, 1)
        euler = x0 + dt * hamiltonian_vector_field(space, h, x0)
        assert np.abs(traj[1] - euler).max() <= 1e-13

    def test_equilibrium_is_frozen(self, space2):
        h = Poly(2, {(1, 1): 1.0})
        traj = integrate(space2, h, np.zeros(2), 1e-2, 100)
        np.testing.assert_array_equal(traj, np.zeros((101, 2)))

    def test_momentum_conservation(self, example1_parts):
        space, algebra, h = example1_parts
        mm = MomentumMap(space, algebra)
        traj = integrate(space, h, np.array([0.3, 0.1, -0.2, 0.4]), 1e-2, 1000)
        drift = np.abs(mm.value(traj) - mm.value(traj[0])).max()
        assert drift <= 1e-10

    def test_quartic_energy_conservation(self, space2):
        # nonlinear system: midpoint gives a bounded O(dt^2) energy oscillation
        h = Poly(2, {(4, 0): 0.25, (0, 2): 0.5})
        traj = integrate(space2, h, np.array([1.0, 0.0]), 1e-2, 1000)
        energies = h.value(traj)
        assert np.abs(energies - energies[0]).max() <= 1e-5

    def test_symplecticity_of_numerical_flow(self, space2):
        h = Poly(2, {(4, 0): 0.25, (2, 0): 0.5, (0, 2): 0.5})
        x0 = np.array([0.7, -0.3])
        steps, dt, eps = 100, 1e-2, 1e-6

        def flow(x):
            return integrate(space2, h, x, dt, steps)[-1]

        jac = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            jac[:, i] = (flow(x0 + e) - flow(x0 - e)) / (2 * eps)
        assert np.abs(jac.T @ space2.omega @ jac - space2.omega).max() <= 1e-5

    @pytest.mark.parametrize("case", ["example1", "random_definite"])
    def test_linear_path_is_the_cayley_propagator(self, example1_parts, rng, case):
        # quadratic h: k midpoint steps are C^k with C = (I - dt/2 L)^-1 (I + dt/2 L)
        if case == "example1":
            space, _, h = example1_parts
        else:
            space = canonical_space(6)
            a = rng.standard_normal((6, 6))
            h = quadratic_form(0.5 * (a @ a.T + np.eye(6)))
        n, dt, steps = space.dim, 1e-2, 10_000
        x0 = rng.standard_normal(n)
        lmat = space.omega_inverse() @ h.hessian(np.zeros(n))
        cayley = np.linalg.solve(np.eye(n) - 0.5 * dt * lmat, np.eye(n) + 0.5 * dt * lmat)
        traj = integrate(space, h, x0, dt, steps)
        expected = np.linalg.matrix_power(cayley, steps) @ x0
        assert np.linalg.norm(traj[-1] - expected) <= 1e-9 * np.linalg.norm(expected)
        energies = h.value(traj)
        assert np.abs(energies - energies[0]).max() <= 1e-12 * abs(energies[0])

    def test_rejects_bad_arguments(self, space2):
        h = Poly(2, {(2, 0): 1.0})
        with pytest.raises(ValidationError):
            integrate(space2, h, np.zeros(2), -0.1, 10)
        with pytest.raises(ValidationError):
            integrate(space2, h, np.zeros(2), 0.1, 0)
        # steps must be a whole number >= 1: nan used to raise ValueError,
        # inf OverflowError, and 2.5 and True ran 2 steps and 1
        for steps in (math.nan, math.inf, -math.inf, 2.5, True, np.True_, -1.0, "3", None):
            with pytest.raises(ValidationError, match="whole number"):
                integrate(space2, h, np.array([0.5, -0.2]), 0.1, steps)
        three = integrate(space2, h, np.array([0.5, -0.2]), 0.1, 3)
        for steps in (3.0, np.int64(3), np.float64(3.0)):
            assert np.array_equal(integrate(space2, h, np.array([0.5, -0.2]), 0.1, steps), three)
        # a NaN or infinite dt used to give an all-NaN trajectory on the
        # linear path and SolverDiverged at step 0 on the Newton path
        for h in (h, Poly(2, {(4, 0): 1.0, (0, 4): 1.0})):
            for dt in (math.nan, math.inf):
                with pytest.raises(ValidationError, match="finite and positive"):
                    integrate(space2, h, np.array([0.5, -0.2]), dt, 3)

    def test_solver_divergence_detected(self, space2, monkeypatch):
        h = Poly(2, {(4, 0): 1.0, (0, 4): 1.0})
        monkeypatch.setattr(dynamics, "MAX_NEWTON", 3)
        with pytest.raises(SolverDiverged):
            integrate(space2, h, np.array([10.0, 10.0]), 10.0, 1)

    @pytest.mark.parametrize(
        "steps",
        [1, dynamics.BLOCK - 1, dynamics.BLOCK, dynamics.BLOCK + 1, 30_000,
         # superblock boundaries: one full superblock, one step into the
         # next, and one step past the next's first block
         dynamics.BLOCK ** 2, dynamics.BLOCK ** 2 + 1, dynamics.BLOCK * (dynamics.BLOCK + 1) + 1],
    )
    def test_blocked_propagator_matches_step_by_step(self, rng, steps):
        space = canonical_space(6)
        a = rng.standard_normal((6, 6))
        h = quadratic_form(0.5 * (a @ a.T + np.eye(6)))
        x0 = rng.standard_normal(6)
        traj = integrate(space, h, x0, 1e-2, steps)
        reference = linear_midpoint_steps(space, h, x0, 1e-2, steps)
        assert traj.shape == (steps + 1, 6)
        assert np.abs(traj - reference).max() <= 1e-12 * np.abs(reference).max()
        energies = h.value(traj)
        assert np.abs(energies - energies[0]).max() <= 1e-12 * abs(energies[0])

    @pytest.mark.parametrize("case", ["quadratic", "quartic", "long-quadratic"])
    def test_batched_starts_equal_single_starts(self, example1_parts, rng, case):
        space, _, h = example1_parts
        if case == "quartic":
            h = poly_add(h, Poly(4, {(4, 0, 0, 0): 0.3, (0, 2, 2, 0): 0.1}))
        steps = dynamics.BLOCK + 7
        if case == "long-quadratic":  # past one superblock, ending in a partial block
            steps = dynamics.BLOCK ** 2 + 3 * dynamics.BLOCK + 5
        starts = 0.5 * rng.standard_normal((3, 4))
        batch = integrate(space, h, starts, 1e-2, steps)
        assert batch.shape == (3, steps + 1, 4)
        for row, x0 in zip(batch, starts):
            np.testing.assert_array_equal(row, integrate(space, h, x0, 1e-2, steps))

    def test_mixed_windows_keep_each_rows_bits(self, monkeypatch):
        # suite5's quartic at its origin from three starts in one batch: at
        # 1e-3 every window converges after one correction sweep, at 2.0
        # windows stall and are halved, and at 100 the one-step solve
        # fails within MAX_NEWTON = 6 residuals.
        system = random_system_suite()[5]
        space, h = system.space, system.hamiltonian
        u = np.random.default_rng(18).standard_normal(space.dim)
        u /= np.linalg.norm(u)
        starts = system.point + np.array([1e-3, 2.0, 100.0])[:, None] * u
        steps = 2 * dynamics.BLOCK
        monkeypatch.setattr(dynamics, "MAX_NEWTON", 6)
        propagate, widths = dynamics._propagate, []

        def recording(powers, b):
            if np.array_equal(b, np.broadcast_to(b[:, :1], b.shape)):  # a prediction
                widths.append(b.shape[1])
            return propagate(powers, b)

        monkeypatch.setattr(dynamics, "_propagate", recording)
        gradients = count_calls(monkeypatch, Poly, "gradient")
        batch = integrate(space, h, starts, 1e-2, steps)
        predicted, evaluations = [], []
        for row, x0 in zip(batch[:2], starts):
            widths.clear()
            gradients.clear()
            np.testing.assert_array_equal(row, integrate(space, h, x0, 1e-2, steps))
            predicted.append(list(widths))
            evaluations.append(len(gradients))
        # per window: f at its first point, a residual sweep that fails,
        # and the one after the correction that passes
        assert predicted[0] == [dynamics.BLOCK, dynamics.BLOCK] and evaluations[0] == 6
        assert min(predicted[1]) < dynamics.BLOCK
        with pytest.raises(SolverDiverged):
            integrate(space, h, starts[2], 1e-2, steps)
        assert np.isnan(batch[2]).all()

    def test_a_diverging_start_leaves_the_batch_going(self, space2, monkeypatch):
        # the Hamiltonian and step of test_solver_divergence_detected
        h = Poly(2, {(4, 0): 1.0, (0, 4): 1.0})
        monkeypatch.setattr(dynamics, "MAX_NEWTON", 3)
        starts = np.array([[0.01, 0.02], [10.0, 10.0], [-0.03, 0.01]])
        batch = integrate(space2, h, starts, 10.0, 2)
        assert np.isnan(batch[1]).all()
        for i in (0, 2):
            single = integrate(space2, h, starts[i], 10.0, 2)
            np.testing.assert_array_equal(batch[i], single)


class TestNewtonPath:
    @pytest.mark.parametrize("fixture", NEWTON_FIXTURES)
    def test_every_step_meets_the_residual_tolerance(self, fixture):
        # The correction applied once a residual passes is not checked
        # again; every step of the returned trajectory must still satisfy
        # the midpoint equation to the stated tolerance, in the 1-D and the
        # batch call.
        system, starts = _newton_case(fixture)
        space, h, dt = system.space, system.hamiltonian, 1e-2
        batch = integrate(space, h, starts, dt, NEWTON_STEPS)
        singles = [integrate(space, h, x0, dt, NEWTON_STEPS) for x0 in starts]
        for traj in list(batch) + singles:
            x, y = traj[:-1], traj[1:]
            field = h.gradient(0.5 * (x + y)) @ space.omega_inverse().T
            residual = np.abs(y - x - dt * field).max(axis=1)
            assert np.all(residual <= dynamics.MIDPOINT_TOL * (1.0 + np.abs(y).max(axis=1)))

    def test_a_singular_row_inverts_to_nan(self):
        # one singular Jacobian in a batch makes np.linalg.inv raise; that
        # row must read NaN, and every other row hold inv's own bits
        jac = np.random.default_rng(3).standard_normal((5, 4, 4))
        jac[2, :, 0] = 0.0
        out = dynamics._invert_rows(jac)
        assert np.isnan(out[2]).all()
        for i in (0, 1, 3, 4):
            np.testing.assert_array_equal(out[i], np.linalg.inv(jac[i]))

    @pytest.mark.parametrize("fixture", NEWTON_FIXTURES)
    @pytest.mark.parametrize("epsilon", NEWTON_EPSILONS)
    def test_work_is_no_more_than_plain_newton(self, monkeypatch, fixture, epsilon):
        system, starts = _newton_case(fixture)
        gradients, hessians = (count_calls(monkeypatch, Poly, name) for name in ("gradient", "hessian"))
        integrate(system.space, system.hamiltonian, starts[NEWTON_EPSILONS.index(epsilon)], 1e-2, NEWTON_STEPS)
        plain_gradients, plain_hessians = PLAIN_NEWTON_WORK[fixture, epsilon]
        assert len(gradients) <= plain_gradients
        assert len(hessians) <= plain_hessians

    def test_near_the_origin_one_factor_serves_every_step(self, monkeypatch):
        # suite5's quartic at its origin: one correction per step from the
        # extrapolated start, with the factor it holds
        system, starts = _newton_case(5)
        gradients, hessians = (count_calls(monkeypatch, Poly, name) for name in ("gradient", "hessian"))
        integrate(system.space, system.hamiltonian, starts[0], 1e-2, NEWTON_STEPS)
        assert len(gradients) <= 2.01 * NEWTON_STEPS
        assert len(hessians) <= 0.01 * NEWTON_STEPS


# Abelian K, given by raw generators whose exponentials have period 2 pi:
# example1's circle, the weights-(1, 2) circle, and a 2-torus whose second
# generator fixes p.
ABELIAN_CASES = {
    "example1": (example1_generator()[None], [1.0, 0.2, -0.4, 0.3]),
    "weights12": (torus_generators([[1, 2]]), [0.9, -0.3, 0.5, 0.6]),
    "t2-fixing": (torus_generators([[1, 0], [0, 1]]), [0.8, -0.6, 0.0, 0.0]),
}


def _abelian_case(name):
    """(space, algebra, K, raw generators, p); K is the whole algebra."""
    gens, p = ABELIAN_CASES[name]
    space = canonical_space(gens.shape[1])
    algebra = LieAlgebraBasis.build(space, gens)
    return space, algebra, Subalgebra.from_vectors(algebra, np.eye(len(gens))), gens, np.array(p)


# J(p) = 0 points of 2 and 3 spin-1/2 blocks, so K is all of su(2) and moves
# p: the block vectors z_b have dyadic entries and sum_b z_b z_b^H is a
# multiple of the identity.  The pair is (z, i sigma_y conj(z)), the point
# of tests/su2_pair.json.
SU2_NULL_BLOCKS = {
    2: [[0.5 - 0.25j, 0.375 + 0.5j], [0.375 - 0.5j, -0.5 - 0.25j]],
    3: [[0.25, 0.5], [0.5j, 0.25j], [0.5, -0.5]],
}


def _su2_null_case(blocks):
    """(space, algebra, K, p) at the J(p) = 0 point of SU2_NULL_BLOCKS[blocks]."""
    space = canonical_space(4 * blocks)
    algebra = LieAlgebraBasis.build(space, su2_generators(blocks=blocks))
    zc = np.concatenate(SU2_NULL_BLOCKS[blocks]).astype(complex)
    p = np.empty(4 * blocks)
    p[0::2], p[1::2] = zc.real, zc.imag
    mu = MomentumMap(space, algebra).value(p)
    assert np.all(mu == 0.0)
    k = momentum_isotropy_algebra(algebra, mu)
    assert k.dim == 3
    return space, algebra, k, p


def _spin_case(j):
    """(space, algebra, K, generators, p) for the spin-j irrep of su(2), with
    K all of su(2) and p drawn from default_rng(2 j)."""
    gens = spin_generators(j)
    space = canonical_space(gens.shape[1])
    algebra = LieAlgebraBasis.build(space, gens)
    p = np.random.default_rng(int(2 * j)).standard_normal(gens.shape[1])
    return space, algebra, Subalgebra.from_vectors(algebra, np.eye(3)), gens, p


def _dense_orbit(gens, p, per_axis):
    """exp(sum_i theta_i G_i) p over a per_axis^m grid of one period [0, 2 pi)^m,
    each factor by scipy's expm."""
    thetas = np.linspace(0.0, 2.0 * np.pi, per_axis, endpoint=False)
    points = p[None, :]
    for g in gens:
        factors = scipy.linalg.expm(thetas[:, None, None] * g)
        points = np.einsum("kij,qj->kqi", factors, points).reshape(-1, len(p))
    return points


class TestOrbitDistance:
    def test_same_point(self, example1_parts):
        space, algebra, _ = example1_parts
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([1.0, 0, 0, 0])
        assert orbit_distance(space, algebra, p, p, k) <= 1e-12

    def test_recovers_group_translate(self, example1_parts, rng):
        space, algebra, _ = example1_parts
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([1.0, 0.2, -0.4, 0.3])
        for _ in range(3):
            kappa = rng.uniform(-2, 2, 1)
            x = group_exp(algebra, kappa) @ p
            assert orbit_distance(space, algebra, x, p, k, rng=rng) <= 1e-6

    def test_su2_orbit(self, rng):
        space = canonical_space(4)
        algebra = LieAlgebraBasis.build(space, su2_generators(blocks=1))
        p = np.array([0.8, -0.1, 0.5, 0.3])
        mm = MomentumMap(space, algebra)
        k = momentum_isotropy_algebra(algebra, mm.value(p))
        kappa = k.basis.T @ rng.uniform(-1.5, 1.5, k.dim)
        x = group_exp(algebra, kappa) @ p
        assert orbit_distance(space, algebra, x, p, k, rng=rng) <= 1e-6

    def test_trivial_group_exact(self):
        space = canonical_space(2)
        algebra = LieAlgebraBasis.build(space, np.zeros((0, 2, 2)))
        k = Subalgebra(basis=np.zeros((0, 0)))
        x, p = np.array([3.0, 4.0]), np.zeros(2)
        assert orbit_distance(space, algebra, x, p, k) == pytest.approx(5.0)

    def test_never_exceeds_direct_distance(self, example1_parts, rng):
        space, algebra, _ = example1_parts
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([1.0, 0, 0.5, 0])
        for _ in range(5):
            x = rng.standard_normal(4)
            assert orbit_distance(space, algebra, x, p, k, rng=rng) <= metric_norm(space, x - p) + 1e-12

    def test_does_not_depend_on_scale(self, example1_parts):
        # K fixes p and A_i rebuilds from its eigenbasis relative to |A_i| and
        # |p|: at c = 1e-14 and 1e-20, p used to read as fixed, so the
        # distance fell back to |x - p|
        space, algebra, _ = example1_parts
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([1.0, 0, 0.5, 0])
        u = np.array([0.3, -0.5, 0.7, 0.4]) / np.linalg.norm([0.3, -0.5, 0.7, 0.4])
        unit = orbit_distance(space, algebra, p + 1e-3 * u, p, k)
        assert unit < 0.9 * metric_norm(space, 1e-3 * u)
        for c in (1e-20, 1e-14, 1e-12, 1e-10, 1e6, 1e100):
            scaled = orbit_distance(space, algebra, c * (p + 1e-3 * u), c * p, k)
            assert scaled / c == pytest.approx(unit, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(ABELIAN_CASES))
    def test_no_worse_than_dense_reference(self, name, rng):
        space, algebra, k, gens, p = _abelian_case(name)
        reference_points = _dense_orbit(gens, p, 20_000 if len(gens) == 1 else 1_000)
        for _ in range(12):
            theta = rng.uniform(-np.pi, np.pi, len(gens))
            u = rng.standard_normal(len(p))
            x = scipy.linalg.expm(np.tensordot(theta, gens, axes=1)) @ p
            x += 10 ** rng.uniform(-4, 0) * u / np.linalg.norm(u)
            reference = np.linalg.norm(reference_points - x, axis=1).min()
            dist = orbit_distance(space, algebra, x, p, k)
            assert dist <= reference * (1 + 1e-9)
            assert dist <= metric_norm(space, x - p)

    @pytest.mark.parametrize("name", sorted(ABELIAN_CASES))
    def test_group_translates_are_on_the_orbit(self, name, rng):
        space, algebra, k, gens, p = _abelian_case(name)
        for _ in range(8):
            theta = rng.uniform(-np.pi, np.pi, len(gens))
            x = scipy.linalg.expm(np.tensordot(theta, gens, axes=1)) @ p
            assert orbit_distance(space, algebra, x, p, k) <= 1e-9

    def test_widened_grid_holds_at_most_its_bound(self, monkeypatch):
        # A 4-torus on C^4, generator i rotating plane i: one period per axis
        # at the default spacing is 33^4 points, and one widening by the
        # excess still rounds up to 17^4 = 83 521 > GRID_MAX_POINTS.
        gens = torus_generators(np.eye(4))
        space = canonical_space(8)
        algebra = LieAlgebraBasis.build(space, gens)
        k = Subalgebra.from_vectors(algebra, np.eye(4))
        p = np.array([1.0, 0.0, 0.7, 0.0, 0.5, 0.0, 1.3, 0.0])
        grids = []
        original = dynamics._grid_axes

        def recorded(half, step):
            grids.append(original(half, step))
            return grids[-1]

        monkeypatch.setattr(dynamics, "_grid_axes", recorded)
        distance = dynamics._orbit_distance_to(space, algebra, p, k)
        (axes,) = grids
        assert math.prod(map(len, axes)) <= dynamics.GRID_MAX_POINTS
        for axis in axes:  # t = 0 on the grid, and the axis spans half a period each way
            assert 0.0 in axis and axis[0] == -axis[-1] and axis[-1] >= np.pi * (1 - 1e-12)
        draws = np.random.default_rng(6)
        xs = np.array([scipy.linalg.expm(np.tensordot(draws.uniform(-np.pi, np.pi, 4), gens, axes=1)) @ p
                       for _ in range(20)])
        assert distance(xs).max() <= 1e-9

    @pytest.mark.parametrize("t", np.linspace(-9.0, 9.0, 13))
    def test_unit_rotation_matches_the_exact_orbit(self, t):
        # The orbit of p under x -> (cos t, -sin t; sin t, cos t) x is the
        # circle of radius |p|, so (1 + delta) R(t) p lies delta |p| from it.
        space = canonical_space(2)
        algebra = LieAlgebraBasis.build(space, np.array([[[0.0, -1.0], [1.0, 0.0]]]))
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([0.6, -0.8])
        rotated = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) @ p
        for delta in (0.0, 1e-6, 1e-3):
            dist = orbit_distance(space, algebra, (1.0 + delta) * rotated, p, k)
            assert abs(dist - delta) <= 1e-14

    def test_circle_grid_spans_the_full_period(self):
        # The box pi max(1, 1/|A|_2) of the normalized generator spans a third
        # of this circle's period; a 2.5 rad turn of the raw generator lies
        # outside it, yet on the orbit.
        space = canonical_space(4)
        gens = torus_generators([[1, 3]])
        algebra = LieAlgebraBasis.build(space, gens)
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([1.0, 0.0, 0.7, 0.2])
        x = scipy.linalg.expm(2.5 * gens[0]) @ p
        assert orbit_distance(space, algebra, x, p, k) <= 1e-9

    @pytest.mark.parametrize("weights", [[[1, 3, 0], [0, 0, 1]], [[1, 2, 0], [0, 0, 1]]])
    def test_torus_grid_spans_each_generators_period(self, weights):
        # The box pi max(1, 1/min_i |A_i|_2) spans a full period only for
        # unit frequencies; each axis must span its own generator's period.
        space = canonical_space(6)
        gens = torus_generators(weights)
        algebra = LieAlgebraBasis.build(space, gens)
        k = Subalgebra.from_vectors(algebra, np.eye(2))
        p = np.array([1.0, 0.0, 0.7, 0.2, 0.5, 0.1])
        for t in np.linspace(0.0, 2.0 * np.pi, 25):
            x = scipy.linalg.expm(t * gens[0] + 0.3 * gens[1]) @ p
            assert orbit_distance(space, algebra, x, p, k) <= 1e-9

    def test_three_torus_orbit(self, rng):
        gens = torus_generators(np.eye(3, dtype=int).tolist())
        space = canonical_space(6)
        algebra = LieAlgebraBasis.build(space, gens)
        k = Subalgebra.from_vectors(algebra, np.eye(3))
        p = np.array([0.9, -0.3, 0.5, 0.6, -0.4, 0.7])
        for _ in range(4):
            x = scipy.linalg.expm(np.tensordot(rng.uniform(-np.pi, np.pi, 3), gens, axes=1)) @ p
            assert orbit_distance(space, algebra, x, p, k) <= 1e-9

    @pytest.mark.parametrize(
        "gens, p, grid_bytes",
        [
            # a 33-point circle grid: 16 KB of scores holds 62 rows
            (example1_generator()[None], [1.0, 0.2, -0.4, 0.3], 1 << 14),
            # a 33 x 33 torus grid: the default holds 120 rows
            (torus_generators([[1, 0], [0, 1]]), [0.8, -0.6, 0.3, 0.5], dynamics.GRID_PASS_BYTES),
            # su(2) at a J(p) = 0 point: a 33^3 grid of Euler-angle products
            (su2_generators(blocks=2), _su2_null_case(2)[3], dynamics.GRID_PASS_BYTES),
        ],
        ids=["circle", "torus", "su2"],
    )
    def test_batched_rows_equal_one_row_calls(self, monkeypatch, rng, gens, p, grid_bytes):
        # 201 rows take several grid-pass chunks and leave Newton at
        # different steps; each must hold its one-row call's bits
        monkeypatch.setattr(dynamics, "GRID_PASS_BYTES", grid_bytes)
        space = canonical_space(gens.shape[1])
        algebra = LieAlgebraBasis.build(space, gens)
        k = Subalgebra.from_vectors(algebra, np.eye(len(gens)))
        p = np.array(p)
        xs = np.array([scipy.linalg.expm(np.tensordot(rng.uniform(-np.pi, np.pi, len(gens)), gens, axes=1)) @ p
                       for _ in range(201)])
        u = rng.standard_normal(xs.shape)
        xs += 10 ** rng.uniform(-8, 0, (len(xs), 1)) * u / np.linalg.norm(u, axis=1, keepdims=True)
        xs[:3] = p, 2.0 * p, np.zeros(len(p))
        distance = dynamics._orbit_distance_to(space, algebra, p, k)
        np.testing.assert_array_equal(distance(xs), [orbit_distance(space, algebra, x, p, k) for x in xs])

    def test_non_abelian_group_translates_are_on_the_orbit(self):
        space, algebra, k, p = _su2_null_case(2)
        draws = np.random.default_rng(5)
        for _ in range(3):
            x = group_exp(algebra, draws.uniform(-1.5, 1.5, 3)) @ p
            assert orbit_distance(space, algebra, x, p, k) <= 1e-6

    @pytest.mark.parametrize("blocks", sorted(SU2_NULL_BLOCKS))
    def test_non_abelian_k_no_worse_than_nelder_mead(self, blocks):
        # x = exp(kappa) p + delta u, from near the orbit to half its radius
        # off it; damped Newton from the nearest grid point must match the
        # multi-start oracle
        space, algebra, k, p = _su2_null_case(blocks)
        draws = np.random.default_rng(blocks)
        for i in range(40):
            u = draws.standard_normal(len(p))
            delta = 10 ** draws.uniform(-6.0, np.log10(0.5))
            x = group_exp(algebra, draws.uniform(-4.0, 4.0, 3)) @ p + delta * u / np.linalg.norm(u)
            dist = orbit_distance(space, algebra, x, p, k)
            oracle = nelder_mead_orbit_distance(space, algebra, x, p, k, rng=np.random.default_rng(i))
            assert dist <= oracle * (1 + 1e-9) + 1e-12
            assert dist <= metric_norm(space, x - p)

    @pytest.mark.parametrize("j", [1.0, 1.5, 2.0])
    def test_spin_orbit_points_moved_by_delta_are_delta_away(self, j):
        # x = g p + delta u with |u| = 1 lies at most delta from the orbit.
        # For spin >= 3/2, |x - g' p| has local minima away from g p, and
        # Newton started at p used to stop at one: 21 of these 30 spin-3/2
        # draws and 23 of the spin-2 draws read more than delta, up to
        # 1.8e3 delta.
        space, algebra, k, gens, p = _spin_case(j)
        draws = np.random.default_rng(17)
        delta = 1e-3
        xs = []
        for _ in range(30):
            u = draws.standard_normal(len(p))
            x = scipy.linalg.expm(np.tensordot(draws.uniform(-4.0, 4.0, 3), gens, axes=1)) @ p
            xs.append(x + delta * u / np.linalg.norm(u))
        assert dynamics._orbit_distance_to(space, algebra, p, k)(np.array(xs)).max() <= delta * (1 + 1e-9)

    @pytest.mark.parametrize("j", [1.5, 2.0])
    def test_spin_orbit_no_worse_than_nelder_mead(self, j):
        # off the orbit by a quarter of |p|, where no point is known to be nearest
        space, algebra, k, gens, p = _spin_case(j)
        draws = np.random.default_rng(19)
        for i in range(2):
            u = draws.standard_normal(len(p))
            x = scipy.linalg.expm(np.tensordot(draws.uniform(-4.0, 4.0, 3), gens, axes=1)) @ p
            x += 0.25 * np.linalg.norm(p) * u / np.linalg.norm(u)
            oracle = nelder_mead_orbit_distance(space, algebra, x, p, k, starts=24, rng=np.random.default_rng(i))
            assert orbit_distance(space, algebra, x, p, k) <= oracle * (1 + 1e-9)

    def test_nilpotent_generator_gives_the_direct_distance(self):
        # [[0, 1], [0, 0]] moves p but has no eigenbasis to step or tabulate by
        space = canonical_space(2)
        algebra = LieAlgebraBasis.build(space, np.array([[[0.0, 1.0], [0.0, 0.0]]]))
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([0.3, 1.0])
        for x in np.random.default_rng(4).standard_normal((5, 2)):
            assert orbit_distance(space, algebra, x, p, k) == dynamics._metric_norms(x - p, space.metric)

    def test_hyperbolic_generator_has_no_period(self, monkeypatch):
        # diag(1, -1) is in sp(2, R) but its eigenvalues are real: it
        # has no period, and its points exp(t A) p still lie on the orbit
        space = canonical_space(2)
        algebra = LieAlgebraBasis.build(space, np.array([[[1.0, 0.0], [0.0, -1.0]]]))
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([1.0, 1.0])
        periods = []
        original = dynamics._circle_period

        def recorded(lam):
            periods.append(original(lam))
            return periods[-1]

        monkeypatch.setattr(dynamics, "_circle_period", recorded)
        for t in (0.5, -2.0, 3.0, 5.0):
            x = np.array([np.exp(t), np.exp(-t)])
            assert orbit_distance(space, algebra, x, p, k) <= 1e-15
        assert periods and all(period is None for period in periods)

    @pytest.mark.parametrize("j", [0.5, 1.5])
    def test_orbit_table_is_the_product_of_exponentials(self, j):
        # row-major over the axes, the point exp(t_1 A_1) exp(t_2 A_2) exp(t_3 A_3) p
        _, _, _, gens, p = _spin_case(j)
        factors = dynamics._eigenbases(gens, np.array([np.linalg.norm(a, 2) for a in gens]))
        axes = [np.linspace(-3.0, 3.0, 4), np.linspace(-1.0, 2.0, 3), np.linspace(-5.0, 5.0, 5)]
        expected = [scipy.linalg.expm(t1 * gens[0]) @ scipy.linalg.expm(t2 * gens[1]) @ scipy.linalg.expm(t3 * gens[2]) @ p
                    for t1, t2, t3 in itertools.product(*axes)]
        np.testing.assert_allclose(dynamics._orbit_table(axes, factors, p), expected, rtol=0,
                                   atol=1e-13 * np.linalg.norm(p))

    @pytest.mark.parametrize("seed", [3, 42])
    def test_sampled_starts_depend_on_the_seed_alone(self, seed, tmp_path, capsys):
        # At (1, 0, 0, 0) example1's circle K moves p, so every checkpoint
        # searches the orbit; the initial conditions must still be the
        # sample draws of default_rng(seed) and nothing else.
        data = json.loads(bundled_system("example1").read_text())
        data["point"] = p = [1.0, 0.0, 0.0, 0.0]
        system_file, csv_file = tmp_path / "system.json", tmp_path / "probe.csv"
        system_file.write_text(json.dumps(data))
        epsilon = 1e-3
        code = main(["probe", str(system_file), "--samples", "3", "--horizon", "0.05",
                     "--epsilon", str(epsilon), "--seed", str(seed), "--csv", str(csv_file)])
        capsys.readouterr()
        assert code == 0
        with csv_file.open(newline="") as handle:
            starts = [[float(v) for v in row[2:6]] for row in csv.reader(handle)
                      if row[1] in ("0", "0.0")]
        draws = np.random.default_rng(seed)
        expected = []
        for _ in range(3):
            direction = draws.standard_normal(4)
            direction /= np.linalg.norm(direction)
            expected.append(np.array(p) + epsilon * draws.random() ** 0.25 * direction)
        np.testing.assert_allclose(starts, expected, rtol=0, atol=1e-15)


class TestProbe:
    def test_example1_bounded(self, example1_parts):
        space, algebra, h = example1_parts
        report = stability_probe(
            space, algebra, h, np.zeros(4), epsilon=1e-3, horizon=10.0, samples=8, rng=11
        )
        assert not report.escaped
        assert report.max_orbit_distance <= 10 * 1e-3
        assert report.energy_drift <= 1e-6
        assert report.momentum_drift <= 1e-9
        assert report.solver_failures == 0

    def test_saddle_escapes(self):
        space = canonical_space(2)
        algebra = LieAlgebraBasis.build(space, np.zeros((0, 2, 2)))
        h = Poly(2, {(1, 1): 1.0})
        report = stability_probe(
            space, algebra, h, np.zeros(2), epsilon=1e-3, horizon=20.0, samples=8, rng=11
        )
        assert report.escaped

    def test_frozen_flow(self):
        space = canonical_space(2)
        algebra = LieAlgebraBasis.build(space, np.zeros((0, 2, 2)))
        report = stability_probe(
            space, algebra, Poly(2), np.zeros(2), epsilon=1e-3, horizon=5.0, samples=4, rng=11
        )
        assert report.max_orbit_distance <= 1e-3
        assert report.energy_drift == 0.0
        assert report.momentum_drift == 0.0
        assert not report.escaped

    @pytest.mark.parametrize("case", ["quadratic", "quartic"])
    def test_streamed_segments_match_integrate(self, example1_parts, tmp_path, case):
        # 5000 steps at stride 25 stream as segments of 4075 and 925 steps;
        # the CSV and report must read as if each whole trajectory were
        # integrated at once and scanned.  The Newton path carries each
        # start's state across segments, so there its points are
        # integrate's bits.  At the origin example1's flow keeps |x|
        # constant, so rounding would pick the window peaks; off it
        # |x - p| varies, and K, a circle, moves p.
        space, algebra, h = example1_parts
        if case == "quartic":
            h = poly_add(h, Poly(4, {(4, 0, 0, 0): 0.3, (0, 2, 2, 0): 0.1}))
        p, dt, steps, stride, samples = np.array([0.1, 0.0, 0.05, 0.0]), 1e-2, 5000, 25, 7
        assert stride * (dynamics.BLOCK ** 2 // stride) < steps
        csv_file = tmp_path / "probe.csv"
        report = stability_probe(space, algebra, h, p, epsilon=1e-2, horizon=steps * dt, samples=samples,
                                 rng=11, csv_path=csv_file)
        with csv_file.open(newline="") as handle:
            rows = np.array([[float(v) for v in row] for row in list(csv.reader(handle))[1:]])
        assert np.all(np.diff(rows[:, 0]) >= 0) and set(rows[:, 0]) == set(range(samples))
        trajs = integrate(space, h, rows[rows[:, 1] == 0.0, 2:6], dt, steps)
        mm = MomentumMap(space, algebra)
        k = momentum_isotropy_algebra(algebra, mm.value(p))
        distance = dynamics._orbit_distance_to(space, algebra, p, k)
        drifts = [0.0, 0.0]
        for sample, traj in enumerate(trajs):
            # checkpoints: the peak of |x - p| in each window of stride
            # rows, and the first and last rows
            squares = np.einsum("tn,nm,tm->t", traj - p, space.metric, traj - p)
            windows = np.split(squares, range(stride, steps + 1, stride))
            peaks = np.arange(0, steps + 1, stride) + [window.argmax() for window in windows]
            expected = np.union1d(peaks, [0, steps])
            mine = rows[rows[:, 0] == sample]
            np.testing.assert_array_equal(np.rint(mine[:, 1] / dt), expected)
            xs = traj[expected]
            if case == "quartic":
                np.testing.assert_array_equal(mine[:, 1:6], np.column_stack([expected * dt, xs]))
            table = np.column_stack([xs, h.value(xs), mm.value(xs), distance(xs)])
            np.testing.assert_allclose(mine[:, 2:], table, rtol=0, atol=1e-12)
            energies, momenta = h.value(traj), mm.value(traj)
            drifts = np.maximum(drifts, [np.abs(energies - energies[0]).max(),
                                         np.abs(momenta - momenta[0]).max()])
        assert report.solver_failures == 0
        assert report.max_orbit_distance == rows[:, -1].max()
        assert [report.energy_drift, report.momentum_drift] == pytest.approx(drifts, rel=0, abs=1e-12)

    def test_long_newton_probe_keeps_its_drifts(self):
        # suite3 over 10 000 steps, three segments: a stepper that started
        # afresh at each segment, with a new Jacobian and a full-width
        # window, read momentumDrift 1.8e-11 and energyDrift 9.4e-12 here;
        # one that carries each start's state reads 5.1e-12 and 2.7e-12.
        system = random_system_suite()[3]
        report = stability_probe(system.space, system.algebra, system.hamiltonian, system.point,
                                 epsilon=1e-3, horizon=100.0, samples=4, rng=42)
        assert report.solver_failures == 0
        assert report.momentum_drift <= 1e-11 and report.energy_drift <= 5e-12

    def test_a_sample_failing_in_a_later_segment_is_one_failure(self, monkeypatch, tmp_path):
        # suite0 at the default dt: with BLOCK = 8, 300 steps stream as
        # segments of 64 steps, and at seed 4 the Newton solve fails on one
        # sample in the third segment and on two in the fifth
        monkeypatch.setattr(dynamics, "BLOCK", 8)
        failures = []
        original = dynamics._stepper

        def recording(*args):
            advance = original(*args)

            def recorded(k):
                traj, failed = advance(k)
                failures.append(failed)
                return traj, failed

            return recorded

        monkeypatch.setattr(dynamics, "_stepper", recording)
        system = random_system_suite()[0]
        csv_file = tmp_path / "probe.csv"
        report = stability_probe(system.space, system.algebra, system.hamiltonian, system.point, epsilon=1e-3,
                                 horizon=3.0, samples=4, rng=4, csv_path=csv_file)
        live = list(range(4))
        for failed in failures:
            assert len(failed) == len(live)  # a failed sample has left the batch
            live = [sample for sample, step in zip(live, failed) if step < 0]
        assert [len(failed) for failed in failures] == [4, 4, 4, 3, 3] and len(live) == 1
        assert report.solver_failures == 3
        with csv_file.open(newline="") as handle:
            samples = {int(row[0]) for row in list(csv.reader(handle))[1:]}
        assert samples == set(live)

    @pytest.mark.parametrize("point", ["fixed", "abelian", "non-abelian"])
    def test_csv_distances_are_the_per_row_distances(self, example1_parts, monkeypatch, tmp_path, point):
        # K fixes example1's origin; off it, K is a circle, and at the
        # su(2) pair's point it is all of su(2).  The probe measures every
        # checkpoint of every sample at once, and each row must hold the
        # bits of its own call.  Where K fixes p the distance is |x - p|,
        # with no orbit search.
        space, algebra, h = example1_parts
        p = np.zeros(4) if point == "fixed" else np.array([1.0, 0.0, 0.5, 0.0])
        if point == "non-abelian":
            system = load_system(str(SU2_PAIR_FILE))
            space, algebra, h, p = system.space, system.algebra, system.hamiltonian, system.point
        k = momentum_isotropy_algebra(algebra, MomentumMap(space, algebra).value(p))
        searches = count_calls(monkeypatch, dynamics, "_orbit_newton")
        csv_file = tmp_path / "probe.csv"
        report = stability_probe(space, algebra, h, p, epsilon=1e-2, horizon=3.0, samples=3, rng=11,
                                 csv_path=csv_file)
        assert len(searches) == (0 if point == "fixed" else 1)  # one search per chunk
        with csv_file.open(newline="") as handle:
            rows = np.array([[float(v) for v in row] for row in list(csv.reader(handle))[1:]])
        # one closure, applied a row at a time, is the call orbit_distance makes
        # for each row; it builds the orbit grid once, not once per row
        distance = dynamics._orbit_distance_to(space, algebra, p, k)
        per_row = [float(distance(x[None])[0]) for x in rows[:, 2 : 2 + space.dim]]
        np.testing.assert_array_equal(rows[:, -1], per_row)
        assert orbit_distance(space, algebra, rows[0, 2 : 2 + space.dim], p, k) == rows[0, -1]
        assert report.max_orbit_distance == rows[:, -1].max()

    def test_a_chunk_peaks_under_six_segments(self, example1_parts):
        # 64 samples at horizon 100 are one chunk of segments of 4050 steps.
        # The probe scans each segment where it was stepped, copies it only
        # when a sample failed and drops it before stepping the next, and it
        # evaluates a quartic h a block of rows at a time, so the chunk's
        # traced peak stays under 5.0 segments' bytes for example1's h and
        # under 5.8 with a quartic term.  A probe that kept the last segment
        # alive while stepping the next, and evaluated a quartic h over a
        # whole segment at once, read ~5.3-5.4 and ~6.5-7.0.
        space, algebra, quadratic = example1_parts
        quartic = poly_add(quadratic, Poly(4, {(4, 0, 0, 0): 0.3, (0, 2, 2, 0): 0.1}))
        p = np.array([1.0, 0.0, 0.5, 0.0])
        stride = 10_000 // 200
        segment_bytes = 64 * (stride * (dynamics.BLOCK**2 // stride) + 1) * space.dim * 8
        for h, bound in ((quadratic, 5.0), (quartic, 5.8)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                stability_probe(space, algebra, h, p, epsilon=1e-3, horizon=100.0, samples=64, rng=42)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - before <= bound * segment_bytes

    @pytest.mark.parametrize("point", ["abelian", "non-abelian"])
    def test_one_sample_chunks_change_no_bit(self, example1_parts, monkeypatch, tmp_path, point):
        # every probe operation is row by row, so chunks of one sample must
        # give the report and the CSV of one chunk of all samples
        space, algebra, h = example1_parts
        p = np.array([1.0, 0.0, 0.5, 0.0])
        if point == "non-abelian":
            system = load_system(str(SU2_PAIR_FILE))
            space, algebra, h, p = system.space, system.algebra, system.hamiltonian, system.point
        runs = []
        for budget in (dynamics.PROBE_CHUNK_ENTRIES, 1):
            monkeypatch.setattr(dynamics, "PROBE_CHUNK_ENTRIES", budget)
            csv_file = tmp_path / f"probe{budget}.csv"
            report = stability_probe(space, algebra, h, p, epsilon=1e-2, horizon=3.0, samples=5, rng=7,
                                     csv_path=csv_file)
            runs.append((report, csv_file.read_text()))
        assert runs[0] == runs[1]

    def test_one_diverging_sample_is_one_failure(self, space2, tmp_path):
        # test_solver_divergence_detected's Hamiltonian: at dt = 10 the
        # Newton solve fails from the third of these four starts alone.
        algebra = LieAlgebraBasis.build(space2, np.zeros((0, 2, 2)))
        h = Poly(2, {(4, 0): 1.0, (0, 4): 1.0})
        epsilon, dt, seed = 200.0, 10.0, 4
        draws = np.random.default_rng(seed)
        alone = []
        for _ in range(4):
            direction = draws.standard_normal(2)
            direction /= np.linalg.norm(direction)
            x0 = epsilon * draws.random() ** 0.5 * direction
            try:
                integrate(space2, h, x0, dt, 1)
                alone.append(False)
            except SolverDiverged:
                alone.append(True)
        assert alone == [False, False, True, False]
        csv_file = tmp_path / "probe.csv"
        report = stability_probe(space2, algebra, h, np.zeros(2), epsilon=epsilon, horizon=dt,
                                 samples=4, dt=dt, rng=seed, csv_path=csv_file)
        assert report.solver_failures == 1
        with csv_file.open(newline="") as handle:
            samples = [int(row[0]) for row in list(csv.reader(handle))[1:]]
        assert samples == [0, 0, 1, 1, 3, 3]

    def test_no_measured_trajectory_reads_as_escape(self):
        # suite0 at the default dt: the first sample's Newton solve fails
        # at step 189, so the probe measured nothing and must not report
        # a bound
        report, code = cmd_probe(random_system_suite()[0], horizon=10, samples=1)
        assert code == 0
        assert report["solverFailures"] == 1
        assert report["escaped"] is True

    def test_rejects_bad_epsilon(self, example1_parts):
        # and every other out-of-range or non-finite probe argument
        space, algebra, h = example1_parts
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"epsilon": 0.0},
            {"epsilon": nan},
            {"epsilon": inf},
            {"samples": 0},
            {"samples": -3},
            {"samples": 2.5},  # non-whole samples, as for integrate's steps
            {"samples": True},
            {"samples": nan},
            {"horizon": -5.0},
            {"horizon": 0.0},
            {"horizon": nan},
            {"horizon": inf},
            {"dt": nan},
            {"dt": -0.1},
            {"escape_factor": -1.0},
            {"escape_factor": nan},
        ):
            args = dict({"epsilon": 1e-3, "horizon": 1.0, "samples": 1, "rng": 0}, **bad)
            with pytest.raises(ValidationError):
                stability_probe(space, algebra, h, np.zeros(4), **args)
        with pytest.raises(TypeError, match="rng"):  # None would be unseeded
            stability_probe(space, algebra, h, np.zeros(4), 1e-3, 1.0, 1, rng=None)
        # a whole float is accepted, as integrate accepts steps=3.0
        assert stability_probe(space, algebra, h, np.zeros(4), 1e-3, 1.0, 3.0, rng=0).samples == 3
