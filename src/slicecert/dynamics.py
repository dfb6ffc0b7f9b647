"""Symplectic integration and the empirical stability probe.

The flow of X_h = Omega^{-1} grad h is integrated with the implicit midpoint
rule, which conserves all quadratic first integrals (in particular every
momentum component) up to solver residual.  A quadratic h steps with one
precomputed propagator; any other h solves the midpoint equations of a
window of up to 64 steps at once by simplified Newton, one gradient call
per sweep over the window, with a Jacobian each start holds across
windows.  The probe measures how far trajectories started near p wander
from the K-orbit of p.  For abelian K the orbit is in closed form after
one diagonalization of K's generators, and one grid pass plus Newton
steps finds the nearest point; other K fall back to multi-start
Nelder-Mead.  Either way the value is the distance to an actual orbit
point, so it only ever overestimates, and probes err toward
declaring escape, never toward confirming stability.  The fallback's random
starts come from a child stream of the probe's generator, so the sampled
initial conditions depend on the seed alone.  scipy is imported only for
the fallback (``scipy.linalg`` and ``scipy.optimize``), so a probe with
abelian or trivial K, like every other command, loads neither.
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
BLOCK = 64  # linear-path steps per propagator product, and Newton-path window width
STALE_RATE = 0.01  # a sweep contracting the residual less than this marks J stale
MAX_TRAJECTORY_ENTRIES = 1 << 27  # trajectory floats a probe holds at once: 1 GiB


def integrate(space, hamiltonian, x0, dt, steps, tol=MIDPOINT_TOL, max_newton=MAX_NEWTON):
    """Implicit midpoint trajectory of steps+1 points from x0.

    x0 is one point, giving an array (steps + 1, dim), or a batch (S, dim)
    of starts stepped together, giving (S, steps + 1, dim); a batch row
    holds the same bits as the 1-D call from that start.  Quadratic
    Hamiltonians reduce to one propagator, built once from the midpoint
    equation (I - dt/2 L) x' = (I + dt/2 L) x + shift and applied BLOCK
    steps per product.  Otherwise every step meets its midpoint equation
    to the stated residual, solved a window of up to BLOCK steps at a time
    by simplified Newton: a prediction from h's linearization, then sweeps
    of one gradient call each, with a Jacobian the start holds across
    windows (``_newton_steps``).  A window that does not converge is
    halved, down to one step; at most ``max_newton`` residuals per try.
    A start whose one-step window fails raises SolverDiverged at that step
    in the 1-D call, and in a batch its whole trajectory is NaN while the
    other starts go on.
    """
    x0 = np.asarray(x0, dtype=float)
    batch = x0.ndim == 2
    starts = np.array([space.check_point(x) for x in x0]) if batch else space.check_point(x0)[None]
    dt = float(dt)
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    steps = int(steps)
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if hamiltonian.degree() <= 2:
        traj = _linear_steps(space, hamiltonian, starts, dt, steps)
        failed = np.full(len(starts), -1)
    else:
        traj, failed = _newton_steps(space, hamiltonian, starts, dt, steps, tol, max_newton)
    if batch:
        traj[failed >= 0] = np.nan
        return traj
    if failed[0] >= 0:
        raise SolverDiverged(f"implicit midpoint failed to converge at step {failed[0]}")
    return traj[0]


def _linear_steps(space, hamiltonian, starts, dt, steps):
    """Trajectories of a quadratic h.

    With D = A-^{-1} A+ - I = A-^{-1} dt L and c the shift, one step is
    x + (D x + c).  Kept apart from I, D is rounded relative to dt L rather
    than to 1, so h drifts less.  j steps are x + (D_j x + c_j) with
    D_{j+1} = D_j + (D + D D_j) and c_{j+1} = c_j + (c + D c_j), so one
    product with the stacked D_j, c_j advances a block of steps.
    """
    n = space.dim
    omega_inv = space.omega_inverse()
    origin = np.zeros(n)
    lmat = omega_inv @ hamiltonian.hessian(origin)
    shift = dt * (omega_inv @ hamiltonian.gradient(origin))
    prop = np.linalg.solve(np.eye(n) - 0.5 * dt * lmat, np.column_stack([dt * lmat, shift]))
    block = min(BLOCK, steps)
    stack = np.empty((block, n, n + 1))
    stack[0] = prop
    for j in range(1, block):
        stack[j] = stack[j - 1] + (prop + prop[:, :n] @ stack[j - 1])
    mats = stack[:, :, :n].reshape(block * n, n)
    consts = stack[:, :, n]

    traj = np.empty((len(starts), steps + 1, n))
    traj[:, 0] = x = starts
    for k in range(0, steps, block):
        size = min(block, steps - k)
        # matrix-vector products per start: a batch row keeps the 1-D bits
        moves = (mats[: size * n] @ x[:, :, None]).reshape(len(x), size, n) + consts[:size]
        traj[:, k + 1 : k + 1 + size] = x[:, None, :] + moves
        x = traj[:, k + size]
    return traj


def _newton_steps(space, hamiltonian, starts, dt, steps, tol, max_newton):
    """(trajectories, the step at which each start failed or -1).

    Simplified Newton (Hairer & Wanner, Solving ODEs II, IV.8) on a window
    of up to BLOCK midpoint equations at once.  Each start holds one
    Jacobian J of the field f = Omega^-1 grad h, as M = (I - dt/2 J)^-1 and
    the Cayley factor P = M (I + dt/2 J) = 2M - I.

    - **Prediction.** Midpoint steps of h's linearization at the window's
      first point x0, f(x0) + J (x - x0), with the held J: the correction
      below for the residual r_j = -dt f(x0) of the constant guess x0.
    - **Sweep.** One gradient call gives the residual r_j of every step
      still iterating, and the corrections d solve d_{j+1} = P d_j - M r_j
      with d_0 = 0 by a doubling scan (``_propagate``).  The steps up to
      the first one out of tolerance have converged; they join converged
      points only, so later sweeps neither evaluate nor move them.  Once
      every step has converged the window is accepted, with that sweep's
      correction applied too.
    - **Held J.** Within a window, J is refreshed, at the central
      midpoint of the steps still iterating, only when a sweep does not
      halve the largest residual of the one before.  A window that
      stalls again after a refresh, meets a non-finite residual or
      reaches max_newton sweeps ends at its converged steps, or is
      predicted afresh if it has none, and the next window is half as
      wide.  An accepted window doubles the next, up to BLOCK, unless J
      went stale in it: some sweep left more than STALE_RATE of the last
      largest residual (a test for a new Jacobian that Hairer & Wanner
      use).  Then the next window keeps its width and starts with J
      evaluated at its first point.
    - **One step.** A one-step window is simplified Newton step by step:
      it refreshes J from its second residual on.  After a window that took
      three residuals or more (and at step 0) it starts from an Euler step
      and refreshes J from its first residual, as plain Newton.  Here a
      start fails: at a non-finite residual (a singular Jacobian gives
      one) or after max_newton residuals out of tolerance.

    Each start keeps its own window, all starts sweep together, and every
    operation is row by row, so a batch row holds the 1-D call's bits.
    """
    n = space.dim
    omega_inv = space.omega_inverse()
    eye = np.eye(n)

    def field(x):
        # matrix-vector products per row: a batch row keeps the 1-D bits
        return (omega_inv @ hamiltonian.gradient(x)[..., None])[..., 0]

    count = len(starts)
    full = min(BLOCK, steps)
    traj = np.empty((count, steps + 1, n))
    traj[:, 0] = starts
    failed = np.full(count, -1)
    # Per live start: its index; its window's first point traj[live, pos],
    # width and converged steps; the held M and P; f at the first point;
    # whether J was evaluated in this try; whether the last window was
    # hard; whether J went stale in this window; this try's residual count
    # and its last largest residual; and the window: its first point,
    # then the iterate.
    live = np.arange(count)
    pos = np.zeros(count, dtype=np.int64)
    width = np.full(count, full)
    done = np.zeros(count, dtype=np.int64)
    inv = np.empty((count, n, n))
    cayley = np.empty((count, n, n))
    f0 = np.empty((count, n))
    fresh = np.ones(count, dtype=bool)
    hard = np.ones(count, dtype=bool)
    stale = np.zeros(count, dtype=bool)
    sweeps = np.zeros(count, dtype=np.int64)
    last = np.full(count, np.inf)
    win = np.empty((count, full + 1, n))
    win[:, 0] = starts
    step = np.arange(full)

    def refresh(rows, points):
        inv[rows] = factor = _invert_rows(eye - 0.5 * dt * (omega_inv @ hamiltonian.hessian(points)))
        cayley[rows] = 2.0 * factor - eye

    refresh(live, starts)
    begin = predict = np.ones(count, dtype=bool)  # a new window; a new prediction
    with np.errstate(over="ignore", invalid="ignore"):  # failure is read off the residual
        while len(live):
            cols = int(width.max())
            if begin.any():
                f0[begin] = field(win[begin, 0])
                again = np.flatnonzero(begin & stale)
                if len(again):
                    refresh(again, win[again, 0])
                    fresh[again] = True
                stale[begin] = False
            if predict.any():
                # dt M f(x0) per step; dt f(x0), an Euler step, for a
                # one-step window after a hard one
                shift = dt * f0[predict]
                linear = (width[predict] > 1) | ~hard[predict]
                shift[linear] = _apply_rows(inv[predict][linear], shift[linear])
                moves = _propagate(cayley[predict], np.repeat(shift[:, None], cols, axis=1))
                win[predict, 1 : cols + 1] = win[predict, :1] + moves
                begin = predict = np.zeros(len(live), dtype=bool)
            prev, y = win[:, :cols], win[:, 1 : cols + 1]
            lo = int(done.min())  # every row has converged before this step
            used = (step[:cols] >= done[:, None]) & (step[:cols] < width[:, None])
            ys, xs = y[used], prev[used]
            mids = 0.5 * (xs + ys)
            res = np.zeros_like(y)
            res[used] = found = ys - xs - dt * field(mids)
            size = np.zeros(used.shape)
            size[used] = over = np.abs(found).max(axis=1)
            # NaN compares false: a non-finite residual is out of tolerance
            out = np.zeros(used.shape, dtype=bool)
            out[used] = ~(over <= tol * (1.0 + np.abs(ys).max(axis=1)))
            done = np.where(out.any(axis=1), out.argmax(axis=1), width)
            largest = size.max(axis=1)
            sweeps += 1
            accept = done == width
            stalled = ~accept & ~(largest <= 0.5 * last)
            stale |= largest > STALE_RATE * last
            retry = ~np.isfinite(largest) | ~accept & (sweeps >= max_newton)
            retry |= stalled & fresh & (width > 1)
            renew = ~retry & (stalled | ~accept & (width == 1) & ((sweeps > 1) | hard))
            if renew.any():
                rows = np.flatnonzero(renew)
                centre = (done[rows] + width[rows] - 1) // 2
                refresh(rows, 0.5 * (prev[rows, centre] + y[rows, centre]))
                fresh[rows] = True
            # causal, so it moves no converged step; it is added only to the
            # steps iterating, since a singular J makes it NaN throughout
            tail = y[:, lo:]
            np.add(tail, _propagate(cayley, -_apply_rows(inv[:, None], res[:, lo:])), out=tail,
                   where=used[:, lo:, None])
            last = largest
            ends = accept | retry & (done > 0)
            if not (ends | retry).any():
                continue

            lost = retry & ~ends & (width == 1)
            failed[live[lost]] = pos[lost]
            rows, cols_done = np.nonzero(ends[:, None] & (step[:cols] < done[:, None]))
            traj[live[rows], pos[rows] + 1 + cols_done] = y[rows, cols_done]
            win[ends, 0] = y[ends, done[ends] - 1]
            pos[ends] += done[ends]
            width[accept & ~stale] *= 2
            width[retry] = np.maximum(width[retry] // 2, 1)
            width[ends] = np.minimum(np.minimum(width[ends], BLOCK), steps - pos[ends])
            hard[ends] = sweeps[ends] >= 3
            begin, predict = ends, ends | retry & ~lost
            fresh[predict] = False
            done[predict] = 0
            sweeps[predict] = 0
            last[predict] = np.inf

            keep = ~lost & (pos < steps)
            if not keep.all():
                live, pos, width, done, inv, cayley, f0, fresh, hard, stale, sweeps, last, win, begin, predict = (
                    a[keep] for a in (live, pos, width, done, inv, cayley, f0, fresh, hard, stale,
                                      sweeps, last, win, begin, predict)
                )
    return traj, failed


def _propagate(cayley, b):
    """z with z_0 = b_0 and z_j = P z_{j-1} + b_j along axis 1, P = cayley[i]
    for row i.

    A doubling scan: after the pass with span s each z_j sums P^k b_{j-k}
    over k < 2s, so ceil(log2 W) passes, each one batch of matrix-vector
    products with P^s, solve a window of W; P^s is squared as s doubles.
    """
    z = b.copy()
    power, span = cayley, 1
    while span < z.shape[1]:
        z[:, span:] += (power[:, None] @ z[:, :-span, :, None])[..., 0]
        span *= 2
        if span < z.shape[1]:
            power = power @ power
    return z


def _apply_rows(inv, res):
    """inv[i] @ res[i] for each row, as matrix-vector products per row."""
    return (inv @ res[..., None])[..., 0]


def _invert_rows(jac):
    """jac[i]^-1 for each row; NaN where jac[i] is singular, so that row's
    next residual is not finite."""
    try:
        return np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        out = np.full(jac.shape, np.nan)
        for i, j in enumerate(jac):
            try:
                out[i] = np.linalg.inv(j)
            except np.linalg.LinAlgError:
                pass
        return out


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
        return min(math.sqrt(max(f, 0.0)), metric_dist(x, p)), t

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
    |x - p|_metric.  For abelian K that orbit point is taken in the
    eigenbasis, exact to rounding at any t, not from ``expm``.
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
    between samples.  The samples are integrated together, in batches of
    at most MAX_TRAJECTORY_ENTRIES floats; a sample whose Newton solve
    fails counts as one solver failure and the others go on.  When every
    sample fails, nothing was measured and the probe reports escape.
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
    # J_i(x) = x^T Q_i x for all i as one product: x @ [Q_1 ... Q_d], then
    # each block dotted with x
    n, d = space.dim, algebra.dim
    quads = 0.5 * mm.component_hessians().transpose(1, 0, 2).reshape(n, d * n)
    distance = _orbit_distance_to(space, algebra, p, momentum_isotropy_algebra(algebra, mm.value(p)))
    # A child stream for the Nelder-Mead starts, so the samples drawn below
    # depend on the seed alone, whichever orbit-distance method runs.
    search_rng = rng.spawn(1)[0]

    # every start is drawn first, in the order a sample-by-sample loop draws them
    starts = np.empty((samples, space.dim))
    for sample in range(samples):
        direction = rng.standard_normal(space.dim)
        direction /= np.linalg.norm(direction)
        radius = epsilon * rng.random() ** (1.0 / space.dim)
        starts[sample] = p + radius * (inv_sqrt @ direction)
    chunk = MAX_TRAJECTORY_ENTRIES // ((steps + 1) * space.dim)

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
        for first in range(0, samples, chunk):
            batch = integrate(space, hamiltonian, starts[first : first + chunk], dt, steps)
            for sample, traj in enumerate(batch, first):
                if np.isnan(traj[0, 0]):  # the Newton solve failed on this sample
                    failures += 1
                    continue

                energies = np.atleast_1d(hamiltonian.value(traj))
                energy_drift = max(energy_drift, float(np.abs(energies - energies[0]).max()))
                # each product taken in place, so a sweep holds one
                # trajectory-sized temporary
                terms = (traj @ quads).reshape(len(traj), d, n)
                terms *= traj[:, None]
                momenta = terms.sum(axis=2)
                if d:
                    momentum_drift = max(momentum_drift, float(np.abs(momenta - momenta[0]).max()))

                # the ambient-distance peak of each window of stride steps
                diffs = traj - p
                weighted = diffs @ space.metric
                weighted *= diffs
                ambient = np.sqrt(weighted.sum(axis=1))
                windows = np.pad(ambient, (0, -len(ambient) % stride), constant_values=-np.inf)
                peaks = np.arange(0, steps + 1, stride) + windows.reshape(-1, stride).argmax(axis=1)
                warm = None
                for idx in np.union1d(peaks, [0, steps]).tolist():
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
        # a probe that measured no trajectory confirms no bound
        escaped=bool(max_dist > escape_factor * epsilon or failures == samples),
        solver_failures=failures,
        dt=float(dt),
        escape_factor=float(escape_factor),
    )
