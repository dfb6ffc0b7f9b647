"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS ...` line on success; a failed
assertion is reported by pytest as usual.  Criteria with runtime budgets
time the operative calls with perf_counter.
"""

import time

import numpy as np
import pytest

from slicecert import (
    MomentumMap,
    Poly,
    LieAlgebraBasis,
    integrate,
    momentum_isotropy_algebra,
    orthogonal_velocity,
    restricted_hessian,
    solve_velocities,
    stability_probe,
    witt_artin_frame,
)
from slicecert.certify import DEFINITENESS_TOL
from slicecert.cli import cmd_certify, load_system
from slicecert.linalg import inertia

from reference import descent_residual, omega_form
from systems import canonical_space, momentum_component, random_system_suite, with_point


def _report(number, message):
    print(f"[criterion {number}] PASS {message}")


@pytest.fixture(scope="module")
def example1():
    return load_system("example1")


@pytest.fixture(scope="module")
def suite():
    return random_system_suite()


def test_criterion_1_example1_reproduction(example1):
    start = time.perf_counter()
    report, code = cmd_certify(example1, seed=42)
    frame = witt_artin_frame(example1.space, example1.algebra, example1.point)
    family = solve_velocities(example1.hamiltonian, frame)

    grid = np.linspace(0.0, 6.0, 401)
    negative = []
    for xi in grid:
        hm = restricted_hessian(
            example1.space, example1.algebra, example1.hamiltonian, example1.point,
            np.array([xi]), frame,
        )
        scale = max(1.0, float(np.abs(hm).max()))
        if np.linalg.eigvalsh(hm).max() < -DEFINITENESS_TOL * scale:
            negative.append(xi)
    elapsed = time.perf_counter() - start

    assert code == 0
    assert report["verdict"] == "STABLE_NEG_DEF"
    spacing = 6.0 / 400  # grid resolution 0.015
    assert abs(negative[0] - 2.0) <= spacing + 1e-12
    assert abs(negative[-1] - 4.0) <= spacing + 1e-12
    inside = grid[(grid > 2.0 + spacing) & (grid < 4.0 - spacing)]
    assert all(xi in negative for xi in inside)
    assert all(2.0 - spacing < xi < 4.0 + spacing for xi in negative)
    assert abs(report["xiStar"][0] - 3.0) <= 1e-4
    assert abs(report["margin"] - 1.0) <= 1e-4
    assert elapsed < 1.0
    _report(1, f"STABLE_NEG_DEF on ({negative[0]:.3f}, {negative[-1]:.3f}), "
               f"xi*={report['xiStar'][0]:.6f}, margin={report['margin']:.6f}, {elapsed:.2f}s")


def test_criterion_2_orthogonal_velocity_baseline_fails(example1):
    frame = witt_artin_frame(example1.space, example1.algebra, example1.point)
    family = solve_velocities(example1.hamiltonian, frame)
    xi_perp = orthogonal_velocity(family, example1.algebra_metric)
    np.testing.assert_allclose(xi_perp, [0.0], atol=1e-12)
    h_perp = restricted_hessian(
        example1.space, example1.algebra, example1.hamiltonian, example1.point, xi_perp, frame
    )
    signature = inertia(h_perp, DEFINITENESS_TOL)
    assert signature == (2, 2, 0)
    report, code = cmd_certify(example1, velocity=xi_perp)
    assert report["verdict"] == "INCONCLUSIVE"
    _report(2, f"xi_perp=0 has inertia {signature}; baseline verdict {report['verdict']}")


def test_criterion_3_second_worked_point(example1):
    start = time.perf_counter()
    p = np.array([1.0, 0.0, 0.0, 0.0])
    frame = witt_artin_frame(example1.space, example1.algebra, p)
    family = solve_velocities(example1.hamiltonian, frame)
    hm = restricted_hessian(
        example1.space, example1.algebra, example1.hamiltonian, p, family.xi1, frame
    )
    elapsed = time.perf_counter() - start

    assert family.dim == 0
    assert abs(family.xi1[0] - 2.0) <= 1e-9
    assert frame.dims[2] == 2
    # hand computation: d2h - 2 d2J = diag(0,0,-2,-2) restricted to span{e3,e4}
    np.testing.assert_allclose(hm, np.diag([-2.0, -2.0]), atol=1e-9)
    assert elapsed < 1.0
    _report(3, f"unique velocity {family.xi1[0]:.12f}, slice dim 2, "
               f"restricted Hessian diag({hm[0,0]:.12f}, {hm[1,1]:.12f}), {elapsed:.2f}s")


def test_criterion_4_descent_suite(suite):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for system in suite:
        mm = MomentumMap(system.space, system.algebra)
        family = solve_velocities(
            system.hamiltonian, witt_artin_frame(system.space, system.algebra, system.point)
        )
        kernel = mm.kernel_basis(system.point)
        sub_k = momentum_isotropy_algebra(system.algebra, mm.value(system.point))
        q = system.hamiltonian.hessian(system.point)
        if system.algebra.dim:
            q = q - np.einsum("i,imn->mn", family.xi1, mm.component_hessians())
        for _ in range(100):
            v = kernel @ rng.standard_normal(kernel.shape[1]) if kernel.shape[1] else np.zeros(system.space.dim)
            eta = (
                sub_k.basis.T @ rng.standard_normal(sub_k.dim)
                if sub_k.dim
                else np.zeros(system.algebra.dim)
            )
            residual = descent_residual(
                system.space, system.algebra, system.hamiltonian, system.point, family.xi1, v, eta
            )
            bound = 1e-9 * (1.0 + abs(float(v @ q @ v)))
            assert residual <= bound
            worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"10 systems x 100 samples, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_realization_independence(suite):
    rng = np.random.default_rng(55)
    mismatches = 0
    for system in suite:
        frame = witt_artin_frame(system.space, system.algebra, system.point)
        family = solve_velocities(system.hamiltonian, frame)
        base = inertia(
            restricted_hessian(
                system.space, system.algebra, system.hamiltonian, system.point, family.xi1, frame,
                check=False,
            ),
            DEFINITENESS_TOL,
        )
        for _ in range(5):
            alt = witt_artin_frame(system.space, system.algebra, system.point, rng=rng)
            sig = inertia(
                restricted_hessian(
                    system.space, system.algebra, system.hamiltonian, system.point, family.xi1, alt,
                    check=False,
                ),
                DEFINITENESS_TOL,
            )
            if sig != base:
                mismatches += 1
    assert mismatches == 0
    _report(5, "inertia identical across 5 random slice complements on all 10 systems")


def test_criterion_6_differential_identity_suite(suite):
    rng = np.random.default_rng(66)
    worst = 0.0
    for system in suite:
        if system.algebra.dim == 0:
            continue
        mm = MomentumMap(system.space, system.algebra)
        for _ in range(100):
            i = int(rng.integers(0, system.algebra.dim))
            p = rng.standard_normal(system.space.dim)
            v = rng.standard_normal(system.space.dim)
            grad = momentum_component(mm, i).gradient(p)
            pairing = omega_form(system.space, system.algebra.generators[i] @ p, v)
            residual = abs(float(grad @ v) - pairing)
            assert residual <= 1e-10
            worst = max(worst, residual)
    _report(6, f"momentum differential identity holds; max residual {worst:.2e}")


def test_criterion_7_witt_artin_dimension_identities(suite, example1):
    systems = list(suite) + [example1, with_point(example1, np.array([1.0, 0, 0, 0]))]
    for system in systems:
        frame = witt_artin_frame(system.space, system.algebra, system.point)
        t0, t, n, n0 = frame.dims
        dim_h = frame.isotropy.dim
        dim_k = frame.momentum_isotropy.dim
        assert t0 == dim_k - dim_h
        assert t == system.algebra.dim - dim_k
        assert n0 == t0
        assert t0 + t + n + n0 == system.space.dim
    _report(7, f"dimension identities exact on {len(systems)} analyzed points")


def test_criterion_8_integrator_conservation_and_probes(example1):
    start = time.perf_counter()
    mm = MomentumMap(example1.space, example1.algebra)
    x0 = np.array([0.3, -0.2, 0.25, 0.4])
    traj = integrate(example1.space, example1.hamiltonian, x0, 1e-2, 10_000)
    momentum_drift = float(np.abs(mm.value(traj) - mm.value(traj[0])).max())
    energies = example1.hamiltonian.value(traj)
    energy_drift = float(np.abs(energies - energies[0]).max())
    assert momentum_drift <= 1e-9
    assert energy_drift <= 1e-6

    probe = stability_probe(
        example1.space,
        example1.algebra,
        example1.hamiltonian,
        example1.point,
        epsilon=1e-3,
        horizon=100.0,
        samples=16,
        rng=42,
    )
    assert not probe.escaped
    assert probe.max_orbit_distance <= 10 * 1e-3

    saddle_space = canonical_space(2)
    saddle_algebra = LieAlgebraBasis.build(saddle_space, np.zeros((0, 2, 2)))
    saddle_h = Poly(2, {(1, 1): 1.0})
    saddle_probe = stability_probe(
        saddle_space,
        saddle_algebra,
        saddle_h,
        np.zeros(2),
        epsilon=1e-3,
        horizon=20.0,
        samples=16,
        rng=42,
    )
    assert saddle_probe.escaped
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"drifts (J {momentum_drift:.1e}, h {energy_drift:.1e}); stable probe "
               f"max dist {probe.max_orbit_distance:.2e}; saddle escaped; {elapsed:.1f}s")


def test_criterion_9_concavity_of_minimum_eigenvalue(suite, example1):
    rng = np.random.default_rng(99)
    slices = 0
    systems = [example1] + list(suite)
    while slices < 100:
        progressed = False
        for system in systems:
            frame = witt_artin_frame(system.space, system.algebra, system.point)
            family = solve_velocities(system.hamiltonian, frame)
            if family.dim == 0:
                continue
            if frame.dims[2] == 0:
                continue

            def hmat(s):
                return restricted_hessian(
                    system.space, system.algebra, system.hamiltonian, system.point,
                    family.member(s), frame, check=False,
                )

            s1 = rng.uniform(-8.0, 8.0, family.dim)
            s2 = rng.uniform(-8.0, 8.0, family.dim)
            mid = np.linalg.eigvalsh(hmat(0.5 * (s1 + s2)))[0]
            l1 = np.linalg.eigvalsh(hmat(s1))[0]
            l2 = np.linalg.eigvalsh(hmat(s2))[0]
            assert mid >= 0.5 * l1 + 0.5 * l2 - 1e-10
            slices += 1
            progressed = True
            if slices >= 100:
                break
        assert progressed, "no system offers a positive-dimensional family"
    _report(9, f"midpoint concavity verified on {slices} random affine slices")
