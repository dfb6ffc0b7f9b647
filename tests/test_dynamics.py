"""Implicit midpoint integration, orbit distance, and the stability probe."""

import csv
import json

import numpy as np
import pytest
import scipy.linalg

from slicecert import (
    LieAlgebraBasis,
    MomentumMap,
    Poly,
    bundled_system,
    integrate,
    momentum_isotropy_algebra,
    orbit_distance,
    stability_probe,
)
from slicecert import dynamics
from slicecert.cli import cmd_probe, main
from slicecert.errors import SolverDiverged, ValidationError
from slicecert.symmetry import Subalgebra

from reference import count_calls, group_exp, hamiltonian_vector_field, linear_midpoint_steps, metric_norm
from systems import (
    PAULI,
    canonical_space,
    example1_generator,
    example1_hamiltonian,
    poly_add,
    quadratic_form,
    random_system_suite,
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

    def test_solver_divergence_detected(self, space2):
        h = Poly(2, {(4, 0): 1.0, (0, 4): 1.0})
        with pytest.raises(SolverDiverged):
            integrate(space2, h, np.array([10.0, 10.0]), 10.0, 1, max_newton=3)

    @pytest.mark.parametrize(
        "steps", [1, dynamics.BLOCK - 1, dynamics.BLOCK, dynamics.BLOCK + 1, 30_000]
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

    @pytest.mark.parametrize("case", ["quadratic", "quartic"])
    def test_batched_starts_equal_single_starts(self, example1_parts, rng, case):
        space, _, h = example1_parts
        if case == "quartic":
            h = poly_add(h, Poly(4, {(4, 0, 0, 0): 0.3, (0, 2, 2, 0): 0.1}))
        starts = 0.5 * rng.standard_normal((3, 4))
        batch = integrate(space, h, starts, 1e-2, dynamics.BLOCK + 7)
        assert batch.shape == (3, dynamics.BLOCK + 8, 4)
        for row, x0 in zip(batch, starts):
            np.testing.assert_array_equal(row, integrate(space, h, x0, 1e-2, dynamics.BLOCK + 7))

    def test_mixed_windows_keep_each_rows_bits(self, monkeypatch):
        # suite5's quartic at its origin from three starts in one batch: at
        # 1e-3 every window converges after one correction sweep, at 2.0
        # windows stall and are halved, and at 100 the one-step solve
        # fails within max_newton = 6 residuals.
        system = random_system_suite()[5]
        space, h = system.space, system.hamiltonian
        u = np.random.default_rng(18).standard_normal(space.dim)
        u /= np.linalg.norm(u)
        starts = system.point + np.array([1e-3, 2.0, 100.0])[:, None] * u
        steps, max_newton = 2 * dynamics.BLOCK, 6
        propagate, widths = dynamics._propagate, []

        def recording(powers, b):
            if np.array_equal(b, np.broadcast_to(b[:, :1], b.shape)):  # a prediction
                widths.append(b.shape[1])
            return propagate(powers, b)

        monkeypatch.setattr(dynamics, "_propagate", recording)
        gradients = count_calls(monkeypatch, Poly, "gradient")
        batch = integrate(space, h, starts, 1e-2, steps, max_newton=max_newton)
        predicted, evaluations = [], []
        for row, x0 in zip(batch[:2], starts):
            widths.clear()
            gradients.clear()
            np.testing.assert_array_equal(row, integrate(space, h, x0, 1e-2, steps, max_newton=max_newton))
            predicted.append(list(widths))
            evaluations.append(len(gradients))
        # per window: f at its first point, a residual sweep that fails,
        # and the one after the correction that passes
        assert predicted[0] == [dynamics.BLOCK, dynamics.BLOCK] and evaluations[0] == 6
        assert min(predicted[1]) < dynamics.BLOCK
        with pytest.raises(SolverDiverged):
            integrate(space, h, starts[2], 1e-2, steps, max_newton=max_newton)
        assert np.isnan(batch[2]).all()

    def test_a_diverging_start_leaves_the_batch_going(self, space2):
        # the Hamiltonian and step of test_solver_divergence_detected
        h = Poly(2, {(4, 0): 1.0, (0, 4): 1.0})
        starts = np.array([[0.01, 0.02], [10.0, 10.0], [-0.03, 0.01]])
        batch = integrate(space2, h, starts, 10.0, 2, max_newton=3)
        assert np.isnan(batch[1]).all()
        for i in (0, 2):
            single = integrate(space2, h, starts[i], 10.0, 2, max_newton=3)
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

    @pytest.mark.parametrize("starts", [4, 32])
    def test_circle_grid_spans_the_full_period(self, starts):
        # The box pi max(1, 1/|A|_2) of the normalized generator spans a third
        # of this circle's period; a 2.5 rad turn of the raw generator lies
        # outside it, yet on the orbit.
        space = canonical_space(4)
        gens = torus_generators([[1, 3]])
        algebra = LieAlgebraBasis.build(space, gens)
        k = Subalgebra.from_vectors(algebra, np.eye(1))
        p = np.array([1.0, 0.0, 0.7, 0.2])
        x = scipy.linalg.expm(2.5 * gens[0]) @ p
        assert orbit_distance(space, algebra, x, p, k, starts=starts) <= 1e-9

    def test_non_abelian_k_falls_back_to_nelder_mead(self):
        # p = (z, i sigma_y conj(z)) on two spin-1/2 blocks has J(p) = 0
        # exactly (dyadic entries), so K is all of su(2) and moves p.
        space = canonical_space(8)
        algebra = LieAlgebraBasis.build(space, su2_generators(blocks=2))
        z = np.array([0.5 - 0.25j, 0.375 + 0.5j])
        zc = np.concatenate([z, 1j * PAULI[1] @ z.conj()])
        p = np.empty(8)
        p[0::2], p[1::2] = zc.real, zc.imag
        mu = MomentumMap(space, algebra).value(p)
        assert np.all(mu == 0.0)
        k = momentum_isotropy_algebra(algebra, mu)
        assert k.dim == 3
        draws = np.random.default_rng(5)
        for i in range(3):
            x = group_exp(algebra, draws.uniform(-1.5, 1.5, 3)) @ p
            dist = orbit_distance(space, algebra, x, p, k, starts=4, rng=np.random.default_rng(i))
            assert dist <= 1e-6

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
    def test_chunked_batches_give_the_same_report(
        self, example1_parts, monkeypatch, tmp_path, case
    ):
        space, algebra, h = example1_parts
        if case == "quartic":
            h = poly_add(h, Poly(4, {(4, 0, 0, 0): 0.3, (0, 2, 2, 0): 0.1}))

        def probe(name):
            return stability_probe(space, algebra, h, np.zeros(4), epsilon=1e-2, horizon=1.0,
                                   samples=7, rng=11, csv_path=tmp_path / name)

        whole = probe("whole.csv")
        sizes = []

        def recording(space, hamiltonian, x0, *rest, **kwargs):
            sizes.append(len(x0))
            return integrate(space, hamiltonian, x0, *rest, **kwargs)

        monkeypatch.setattr(dynamics, "integrate", recording)
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_ENTRIES", 3 * 101 * 4)  # 3 trajectories
        chunked = probe("chunked.csv")
        assert sizes == [3, 3, 1]
        for field in ("max_orbit_distance", "energy_drift", "momentum_drift"):
            expected = getattr(whole, field)
            assert getattr(chunked, field) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert (chunked.escaped, chunked.solver_failures) == (whole.escaped, whole.solver_failures)
        tables = []
        for name in ("whole.csv", "chunked.csv"):
            with (tmp_path / name).open(newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            tables.append(np.array([[float(v) for v in row] for row in rows]))
        np.testing.assert_allclose(tables[1], tables[0], rtol=1e-12, atol=1e-15)
        samples = tables[1][:, 0]
        assert np.all(np.diff(samples) >= 0) and set(samples) == set(range(7))

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
            {"horizon": -5.0},
            {"horizon": 0.0},
            {"horizon": nan},
            {"horizon": inf},
            {"dt": nan},
            {"dt": -0.1},
            {"escape_factor": -1.0},
            {"escape_factor": nan},
        ):
            args = dict({"epsilon": 1e-3, "horizon": 1.0, "samples": 1}, **bad)
            with pytest.raises(ValidationError):
                stability_probe(space, algebra, h, np.zeros(4), **args)
