"""Symplectic integration and the empirical stability probe.

The flow of X_h = Omega^{-1} grad h is integrated with the implicit midpoint
rule, which conserves all quadratic first integrals (in particular every
momentum component) up to solver residual.  The probe measures how far
trajectories started near p wander from the K-orbit of p; the orbit distance
is a heuristic minimization and only ever overestimates, so probes err
toward declaring escape, never toward confirming stability.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SolverDiverged, ValidationError
from .linalg import metric_inv_sqrt
from .momentum import MomentumMap, momentum_isotropy_algebra

MIDPOINT_TOL = 1e-12
MAX_NEWTON = 50
DISTANCE_STARTS = 4  # orbit-distance starts per probe checkpoint


def hamiltonian_vector_field(space, hamiltonian, x):
    """X_h(x) = Omega^{-1} grad h(x); satisfies x1' = dh/dy1 in canonical
    2d coordinates and conserves h and every momentum component."""
    x = space.check_point(x)
    return space.omega_inverse() @ hamiltonian.gradient(x)


def integrate(space, hamiltonian, x0, dt, steps, tol=MIDPOINT_TOL, max_newton=MAX_NEWTON):
    """Implicit midpoint trajectory; returns an array of steps+1 points.

    Quadratic Hamiltonians reduce to one propagator, built once from the
    midpoint equation (I - dt/2 L) x' = (I + dt/2 L) x + shift; otherwise
    each step runs a Newton iteration to the stated residual and raises
    SolverDiverged on failure.
    """
    x0 = space.check_point(x0)
    dt = float(dt)
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    steps = int(steps)
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    n = space.dim
    omega_inv = space.omega_inverse()
    traj = np.empty((steps + 1, n))
    traj[0] = x0

    if hamiltonian.degree() <= 2:
        origin = np.zeros(n)
        lmat = omega_inv @ hamiltonian.hessian(origin)
        shift = dt * (omega_inv @ hamiltonian.gradient(origin))
        a_minus = np.eye(n) - 0.5 * dt * lmat
        # Step x + (D x + c) with D = A-^{-1} A+ - I = A-^{-1} dt L.  Kept apart
        # from I, D is rounded relative to dt L rather than to 1, so h drifts less.
        prop = np.linalg.solve(a_minus, np.column_stack([dt * lmat, shift]))
        mat, const = prop[:, :n], prop[:, n]
        x = x0
        for k in range(steps):
            x = x + (mat @ x + const)
            traj[k + 1] = x
        return traj

    eye = np.eye(n)
    x = x0
    for k in range(steps):
        y = x + dt * (omega_inv @ hamiltonian.gradient(x))
        converged = False
        for _ in range(max_newton):
            mid = 0.5 * (x + y)
            res = y - x - dt * (omega_inv @ hamiltonian.gradient(mid))
            if not np.all(np.isfinite(res)):
                break
            if np.abs(res).max() <= tol * (1.0 + np.abs(y).max()):
                converged = True
                break
            jac = eye - 0.5 * dt * (omega_inv @ hamiltonian.hessian(mid))
            try:
                y = y - np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                break
        if not converged:
            raise SolverDiverged(f"implicit midpoint failed to converge at step {k}")
        x = y
        traj[k + 1] = x
    return traj


def _orbit_distance_to(space, algebra, p, sub_k):
    """The function (x, starts, rng, extra_start) -> (distance, minimizer) for
    min over g in exp(k) of |x - g.p|_metric.

    K's generator matrices and whether K fixes p depend on p and K only, so
    they are settled here, once per point.
    """
    metric = space.metric

    def metric_dist(x, q):
        d = x - q
        return float(np.sqrt(max(d @ metric @ d, 0.0)))

    amats = [algebra.matrix(sub_k.basis[i]) for i in range(sub_k.dim)]
    if not amats or max(np.abs(a @ p).max() for a in amats) <= 1e-13 * (1.0 + float(np.abs(p).max())):
        # K is trivial or fixes p: the orbit is the single point p.
        return lambda x, starts, rng, extra_start=None: (metric_dist(x, p), np.zeros(sub_k.dim))

    import scipy.optimize  # only this search needs it; deferred to keep startup light

    m = sub_k.dim
    box = math.pi * max(1.0, 1.0 / min(np.linalg.norm(a, 2) for a in amats))

    def distance(x, starts, rng, extra_start=None):
        def objective(t):
            a = np.tensordot(t, amats, axes=1)
            q = scipy.linalg.expm(a) @ p
            d = x - q
            return float(d @ metric @ d)

        start_list = [np.zeros(m)]
        if extra_start is not None and len(extra_start) == m:
            start_list.append(np.asarray(extra_start, dtype=float))
        start_list.extend(rng.uniform(-box, box, size=(max(0, starts - len(start_list)), m)))

        best_val = objective(np.zeros(m))
        best_t = np.zeros(m)
        for t0 in start_list:
            res = scipy.optimize.minimize(
                objective,
                t0,
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 400 * m, "maxfev": 400 * m},
            )
            if res.fun < best_val:
                best_val, best_t = float(res.fun), np.asarray(res.x, dtype=float)
        return float(np.sqrt(max(best_val, 0.0))), best_t

    return distance


def orbit_distance(space, algebra, x, p, sub_k, starts=32, rng=None):
    """Approximate metric distance from x to the K-orbit of p.

    Multi-start Nelder-Mead over exponential coordinates of K; the identity
    is always a start, so the result never exceeds |x - p|_metric.
    """
    distance = _orbit_distance_to(space, algebra, space.check_point(p), sub_k)
    rng = np.random.default_rng(0) if rng is None else rng
    return distance(space.check_point(x), starts, rng)[0]


@dataclass(frozen=True)
class ProbeReport:
    """Empirical summary of trajectories started in a metric ball around p."""

    epsilon: float
    horizon: float
    samples: int
    max_orbit_distance: float
    energy_drift: float
    momentum_drift: float
    escaped: bool
    solver_failures: int
    dt: float
    escape_factor: float


def stability_probe(
    space,
    algebra,
    hamiltonian,
    p,
    epsilon,
    horizon,
    samples,
    dt=1e-2,
    escape_factor=100.0,
    rng=None,
    csv_path=None,
):
    """Integrate ``samples`` trajectories from the metric epsilon-ball at p.

    Records the largest observed distance to the orbit of K, the momentum
    isotropy group of J(p), the energy and momentum drifts, and whether any
    trajectory exceeded escape_factor * epsilon.  Orbit distances are
    evaluated on a subsample of each trajectory, with evaluation points placed
    at the ambient-norm peaks of each window so excursions are not missed
    between samples.
    """
    for name, value in (("epsilon", epsilon), ("horizon", horizon), ("dt", dt),
                        ("escape_factor", escape_factor)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and positive, got {value}")
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    p = space.check_point(p)
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(42 if rng is None else int(rng))
    steps = max(1, int(math.ceil(horizon / dt)))
    stride = max(1, steps // 200)
    inv_sqrt = metric_inv_sqrt(space.metric)
    mm = MomentumMap(space, algebra)
    distance = _orbit_distance_to(space, algebra, p, momentum_isotropy_algebra(algebra, mm.value(p)))

    max_dist = 0.0
    energy_drift = 0.0
    momentum_drift = 0.0
    failures = 0
    writer = None
    handle = None
    if csv_path is not None:
        handle = open(csv_path, "w", newline="")
        writer = csv.writer(handle)
        header = ["sample", "t"]
        header += [f"x{i + 1}" for i in range(space.dim)]
        header += ["h"] + [f"J{i + 1}" for i in range(algebra.dim)] + ["orbitDistance"]
        writer.writerow(header)

    try:
        for sample in range(samples):
            direction = rng.standard_normal(space.dim)
            direction /= np.linalg.norm(direction)
            radius = epsilon * rng.random() ** (1.0 / space.dim)
            x0 = p + radius * (inv_sqrt @ direction)
            try:
                traj = integrate(space, hamiltonian, x0, dt, steps)
            except SolverDiverged:
                failures += 1
                continue

            energies = np.atleast_1d(hamiltonian.value(traj))
            energy_drift = max(energy_drift, float(np.abs(energies - energies[0]).max()))
            if algebra.dim:
                momenta = mm.value(traj)
                momentum_drift = max(
                    momentum_drift,
                    float(np.abs(momenta - momenta[0]).max()),
                )
            else:
                momenta = np.zeros((len(traj), 0))

            # ambient distances pick the evaluation points inside each window
            diffs = traj - p
            ambient = np.sqrt(np.einsum("ti,ij,tj->t", diffs, space.metric, diffs))
            indices = {0, steps}
            for lo in range(0, steps + 1, stride):
                hi = min(lo + stride, steps + 1)
                indices.add(lo + int(np.argmax(ambient[lo:hi])))
            warm = None
            for idx in sorted(indices):
                dist, warm = distance(traj[idx], DISTANCE_STARTS, rng, warm)
                max_dist = max(max_dist, dist)
                if writer is not None:
                    row = [sample, idx * dt]
                    row += list(traj[idx])
                    row += [energies[idx]] + list(momenta[idx]) + [dist]
                    writer.writerow(row)
    finally:
        if handle is not None:
            handle.close()

    return ProbeReport(
        epsilon=float(epsilon),
        horizon=float(horizon),
        samples=int(samples),
        max_orbit_distance=max_dist,
        energy_drift=energy_drift,
        momentum_drift=momentum_drift,
        escaped=bool(max_dist > escape_factor * epsilon),
        solver_failures=failures,
        dt=float(dt),
        escape_factor=float(escape_factor),
    )
