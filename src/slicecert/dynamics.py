"""Symplectic integration and the empirical stability probe.

The flow of X_h = Omega^{-1} grad h is integrated with the implicit midpoint
rule, which conserves all quadratic first integrals (in particular every
momentum component) up to solver residual.  The probe measures how far
trajectories started near p wander from the K-orbit of p.  For abelian K
the orbit is in closed form after one diagonalization of K's generators, and
one grid pass plus Newton steps finds the nearest point; other K fall back
to multi-start Nelder-Mead.  Either way the value is the distance to an
actual orbit point, so it only ever overestimates, and probes err toward
declaring escape, never toward confirming stability.  The fallback's random
starts come from a child stream of the probe's generator, so the sampled
initial conditions depend on the seed alone.  scipy is imported only where
it is needed: ``scipy.linalg.expm`` once K moves p, ``scipy.optimize`` for
the fallback.  So a probe at a K-fixed point, like every other command,
loads neither.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SolverDiverged, ValidationError
from .linalg import metric_inv_sqrt
from .momentum import MomentumMap, momentum_isotropy_algebra

MIDPOINT_TOL = 1e-12
MAX_NEWTON = 50
DISTANCE_STARTS = 4  # Nelder-Mead starts per probe checkpoint (non-abelian K)
GRID_STEP = math.pi / 16  # orbit grid spacing, in units of 1/|A_i|_2
GRID_MAX_POINTS = 1 << 16  # wider spacing past this many grid points
PERIOD_MAX_DENOMINATOR = 100  # frequency ratios a circle period may have
NEWTON_ITERS = 30  # Newton steps per checkpoint, and halvings per step
NEWTON_EIG_FLOOR = 1e-8  # Hessian |eigenvalue| floor, relative to the largest
NEWTON_TOL = 1e-15  # stop once a step promises less, relative to |x - q|^2
MAX_TRAJECTORY_ENTRIES = 1 << 27  # (steps + 1) * dim floats a probe may hold: 1 GiB


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


def _joint_diagonalization(amats, norms):
    """(V, lam) with A_i = V diag(lam[i]) V^-1 for every generator A_i, or
    None when K is non-abelian or a generator is not diagonalizable.

    V comes from one eigendecomposition of a fixed generic combination
    sum_i c_i A_i; the check that V reconstructs every A_i (to
    1e-10 (1 + |A_i|)) is the one test of both conditions.
    """
    coeffs = np.random.default_rng(0).uniform(1.0, 2.0, len(amats)) / norms
    _, vecs = np.linalg.eig(np.tensordot(coeffs, amats, axes=1))
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return None
    lam = np.einsum("kj,ijl,lk->ik", inv, amats, vecs)
    recon = np.einsum("jk,ik,kl->ijl", vecs, lam, inv)
    if not (np.abs(recon - amats).max(axis=(1, 2)) <= 1e-10 * (1.0 + norms)).all():
        return None  # also when eig returned non-finite vectors
    return vecs, lam


def _circle_period(lam):
    """The period 2 pi / omega_0 of t -> exp(t A) for one generator with
    eigenvalues lam, or None if there is none to find.

    omega_0 is the common divisor of the nonzero frequencies |Im lam|: each
    ratio to the largest is matched by ``Fraction.limit_denominator`` and
    checked to 1e-9.  A real part (a non-compact direction) or a ratio with
    no such match gives None.
    """
    scale = np.abs(lam).max()
    if np.abs(lam.real).max() > 1e-9 * scale:
        return None
    freqs = np.abs(lam.imag)
    top = freqs.max()
    ratios = freqs[freqs > 1e-9 * top] / top
    from fractions import Fraction  # deferred: only a circle K needs it

    fracs = [Fraction(r).limit_denominator(PERIOD_MAX_DENOMINATOR) for r in ratios]
    if any(abs(r - float(f)) > 1e-9 for r, f in zip(ratios, fracs)):
        return None
    denom = math.lcm(*(f.denominator for f in fracs))
    numer = math.gcd(*(f.numerator * denom // f.denominator for f in fracs))
    return 2.0 * math.pi * denom / (numer * top)


def _grid(half, step):
    """Points t with t_i = k step_i in [-half_i, half_i] for integer k, so
    t = 0 is on the grid; the steps widen evenly past GRID_MAX_POINTS."""
    counts = np.ceil(half / step)
    total = float(np.prod(2.0 * counts + 1.0))
    if total > GRID_MAX_POINTS:
        step = step * (total / GRID_MAX_POINTS) ** (1.0 / len(step))
        counts = np.ceil(half / step)
    axes = [np.arange(-c, c + 1.0) * s for c, s in zip(counts, step)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(step))


def _nelder_mead_distance(amats, p, metric, box):
    """Multi-start Nelder-Mead over exponential coordinates of K, for K that
    one eigenbasis does not diagonalize.  Starts: the identity, the caller's
    warm start, then random points of [-box, box]^m from ``rng``."""
    import scipy.optimize  # only this search needs it; deferred to keep startup light
    from scipy.linalg import expm

    m = len(amats)

    def distance(x, starts, rng, extra_start=None):
        def objective(t):
            q = expm(np.tensordot(t, amats, axes=1)) @ p
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


def _orbit_distance_to(space, algebra, p, sub_k):
    """The function (x, starts, rng, extra_start) -> (distance, t) for
    min over g in exp(k) of |x - g.p|_metric, with g = exp(sum_i t_i A_i).

    Everything that depends on p and K alone is settled here, once per
    point: K's generator matrices, whether K fixes p, and for abelian K the
    eigenbasis and the grid of orbit points.  ``starts``, ``rng`` and
    ``extra_start`` feed only the Nelder-Mead fallback.
    """
    metric = space.metric

    def metric_dist(x, q):
        d = x - q
        return float(np.sqrt(max(d @ metric @ d, 0.0)))

    amats = np.array([algebra.matrix(sub_k.basis[i]) for i in range(sub_k.dim)])
    if not len(amats) or np.abs(amats @ p).max() <= 1e-13 * (1.0 + float(np.abs(p).max())):
        # K is trivial or fixes p: the orbit is the single point p.
        return lambda x, starts, rng, extra_start=None: (metric_dist(x, p), np.zeros(sub_k.dim))
    from scipy.linalg import expm  # deferred: only an orbit that moves p needs it

    norms = np.array([np.linalg.norm(a, 2) for a in amats])
    box = math.pi * max(1.0, 1.0 / norms.min())
    diagonal = _joint_diagonalization(amats, norms)
    if diagonal is None:
        return _nelder_mead_distance(amats, p, metric, box)

    # exp(sum_i t_i A_i) p = Re(V (exp(t . lam) * w)) with w = V^-1 p
    vecs, lam = diagonal
    w = np.linalg.solve(vecs, p.astype(complex))
    period = _circle_period(lam[0]) if len(amats) == 1 else None
    half = np.full(len(amats), box if period is None else 0.5 * period)
    grid = _grid(half, GRID_STEP / norms)
    points = np.real((np.exp(grid @ lam) * w) @ vecs.T)
    mpoints = points @ metric
    squares = np.einsum("ij,ij->i", mpoints, points)

    def parts(t, x):
        """(f, z, M d) at t, where f = |d|^2_metric and d = Re(V z) - x."""
        z = np.exp(t @ lam) * w
        d = np.real(vecs @ z) - x
        md = metric @ d
        return float(d @ md), z, md

    def line_search(x, t, f, step, gain):
        """(t + s, parts) for the first s of step, step/2, ... that lowers f,
        or None once the gain the model promises (-grad . s, twice the
        predicted decrease) falls to rounding level."""
        for _ in range(NEWTON_ITERS):
            if not gain > NEWTON_TOL * f:
                return None
            trial = parts(t + step, x)
            if trial[0] < f:
                return t + step, trial
            step, gain = 0.5 * step, 0.5 * gain
        return None

    def distance(x, starts=None, rng=None, extra_start=None):
        # |x - q|^2 = |q|^2 - 2 <x, q> + |x|^2 over the grid, then Newton in t
        t = grid[int(np.argmin(squares - 2.0 * (mpoints @ x)))]
        f, z, md = parts(t, x)
        for _ in range(NEWTON_ITERS):
            lz = lam * z
            dq = np.real(lz @ vecs.T)
            ddq = np.real((lam[:, None, :] * lz) @ vecs.T)
            grad = 2.0 * (dq @ md)
            hess = 2.0 * (dq @ metric @ dq.T + ddq @ md)
            ev, u = np.linalg.eigh(hess)
            floor = NEWTON_EIG_FLOOR * np.abs(ev).max()
            if not floor > 0.0:
                break
            # |eigenvalue|-floored steps descend even where the Hessian is
            # indefinite or singular, as when one generator fixes p
            step = -u @ ((u.T @ grad) / np.maximum(np.abs(ev), floor))
            found = line_search(x, t, f, step, -float(grad @ step))
            if found is None:
                break
            t, (f, z, md) = found
        q = expm(np.tensordot(t, amats, axes=1)) @ p
        return min(metric_dist(x, q), metric_dist(x, p)), t

    return distance


def orbit_distance(space, algebra, x, p, sub_k, starts=32, rng=None):
    """Metric distance from x to the K-orbit of p, from above.

    For abelian K (one eigenbasis diagonalizes every generator) the orbit
    point is exp(sum_i t_i A_i) p = Re(V (exp(t . lam) * w)): one pass over
    a grid of t with spacing (pi/16)/|A_i|_2 finds the start, and damped
    Newton steps in t refine it.  The grid spans one full period when
    dim K = 1 and the frequencies have a common divisor; otherwise (dim K
    >= 2, or no divisor) it spans [-box, box]^m with box = pi max(1,
    1/min_i |A_i|_2), which is a full period only for unit frequencies.
    Other K fall back to multi-start Nelder-Mead, ``starts`` starts drawn
    from ``rng``.  Either way the value is |x - exp(sum_i t_i A_i) p| at
    the found t, or |x - p| if that is smaller, so it never exceeds
    |x - p|_metric.
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
    if not math.isfinite(horizon / dt):
        raise ValidationError(f"horizon / dt must be finite, got {horizon} / {dt}")
    p = space.check_point(p)
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(42 if rng is None else int(rng))
    steps = max(1, int(math.ceil(horizon / dt)))
    if (steps + 1) * space.dim > MAX_TRAJECTORY_ENTRIES:
        raise ValidationError(
            f"horizon / dt = {steps} steps: a trajectory of (steps + 1) * dim = "
            f"{(steps + 1) * space.dim} entries exceeds the bound of "
            f"{MAX_TRAJECTORY_ENTRIES} (1 GiB of float64)"
        )
    stride = max(1, steps // 200)
    inv_sqrt = metric_inv_sqrt(space.metric)
    mm = MomentumMap(space, algebra)
    distance = _orbit_distance_to(space, algebra, p, momentum_isotropy_algebra(algebra, mm.value(p)))
    # A child stream for the Nelder-Mead starts, so the samples drawn below
    # depend on the seed alone, whichever orbit-distance method runs.
    search_rng = rng.spawn(1)[0]

    max_dist = 0.0
    energy_drift = 0.0
    momentum_drift = 0.0
    failures = 0
    writer = None
    handle = None
    if csv_path is not None:
        try:
            handle = open(csv_path, "w", newline="")
        except OSError as exc:
            raise ParseError(f"cannot write '{csv_path}': {exc}") from exc
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
                dist, warm = distance(traj[idx], DISTANCE_STARTS, search_rng, warm)
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
