"""Symplectic integration and the empirical stability probe.

The flow of X_h = Omega^{-1} grad h is integrated with the implicit
midpoint rule, which conserves all quadratic first integrals (in
particular every momentum component) up to solver residual.  A quadratic h
steps with precomputed maps of 1..64 and of 64, 128, ..., 4032 steps, two
products per start for every 4096 steps; any other h solves the midpoint
equations of a window of up to 64 steps at once by simplified Newton, one
gradient call per sweep over the window, with a Jacobian each start holds
across windows.  One stepper serves both: it keeps each start's state
between calls, so ``integrate`` is one call over all the steps and the
probe one call per segment, on the same path.  The probe measures how far
trajectories started near p wander from the K-orbit of p.  It steps its
samples a chunk at a time and each chunk a segment at a time, scanning
each segment as it is stepped and dropping it before the next, so its
memory grows neither with the horizon nor with the samples; for a
quadratic h it takes the energy as one quadratic form, and any other h a
block of rows at a time.  When K fixes p the orbit is {p}, and every
checkpoint distance is one metric norm, all rows at once.  Any other K
takes one damped Newton search over orbit points q, on the checkpoints of
a whole chunk at once, row by row, and the same search serves every K.
Each generator is diagonalized once, A_i = V_i diag(lam_i) V_i^-1, so
each factor exp(t_i A_i) is in closed form.  The search starts at the
nearest point of a grid exp(t_1 A_1) ... exp(t_m A_m) p, each axis one
period of its generator, tabulated one axis at a time; a step s moves q
to exp(s_1 A_1) ... exp(s_m A_m) q, by the same factors.  The grid covers
the orbit when that product covers K, as it does for tori and SU(2).
The value is the distance to an actual orbit point, so it only ever
overestimates, and probes err toward declaring escape, never toward
confirming stability.
Only numpy runs here: no command imports scipy.
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
GRID_STEP = math.pi / 16  # orbit grid spacing, in units of 1/|A_i|_2
GRID_MAX_POINTS = 1 << 16  # wider spacing past this many grid points
GRID_PASS_BYTES = 1 << 20  # grid-pass scores held at once, rows x grid points
PERIOD_MAX_DENOMINATOR = 100  # frequency ratios a circle period may have
NEWTON_ITERS = 30  # Newton steps per checkpoint, and halvings per step
NEWTON_EIG_FLOOR = 1e-8  # Hessian |eigenvalue| floor, relative to the largest
NEWTON_TOL = 1e-15  # stop once a step promises less, relative to |x - q|^2
BLOCK = 64  # linear-path steps per propagator product, and Newton-path window width
STALE_RATE = 0.01  # a sweep contracting the residual less than this marks J stale
MAX_TRAJECTORY_ENTRIES = 1 << 27  # bound on a probe trajectory's (steps + 1) * dim
PROBE_CHUNK_ENTRIES = 1 << 21  # probe samples stepped at once, as samples * (segment + 1) * dim


def integrate(space, hamiltonian, x0, dt, steps):
    """Implicit midpoint trajectory of steps+1 points from x0.

    x0 is one point, giving an array (steps + 1, dim), or a batch (S, dim)
    of starts stepped together, giving (S, steps + 1, dim); a batch row
    holds the same bits as the 1-D call from that start.  It is one
    ``advance`` over all the steps of the stepper the probe advances a
    segment at a time (``_stepper``), so on the Newton path a probe's
    points are these bits.
    Quadratic Hamiltonians reduce to one propagator, built once from the
    midpoint equation (I - dt/2 L) x' = (I + dt/2 L) x + shift, whose maps
    of up to BLOCK and BLOCK^2 steps fill the trajectory (``_linear_steps``).
    Otherwise every step meets its midpoint equation to MIDPOINT_TOL
    relative to its point, solved a window of up to BLOCK steps at a time
    by simplified Newton: a prediction from h's linearization, then sweeps
    of one gradient call each, with a Jacobian the start holds across
    windows (``_newton_steps``).  A window that does not converge is
    halved, down to one step; at most MAX_NEWTON residuals per try.
    A start whose one-step window fails raises SolverDiverged at that step
    in the 1-D call, and in a batch its whole trajectory is NaN while the
    other starts go on.
    """
    x0 = np.asarray(x0, dtype=float)
    batch = x0.ndim == 2
    starts = np.array([space.check_point(x) for x in x0]) if batch else space.check_point(x0)[None]
    dt = _finite_positive("dt", dt)
    steps = int(steps)
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    traj, failed = _stepper(space, hamiltonian, dt, steps, starts)(steps)
    if batch:
        traj[failed >= 0] = np.nan
        return traj
    if failed[0] >= 0:
        raise SolverDiverged(f"implicit midpoint failed to converge at step {failed[0]}")
    return traj[0]


def _finite_positive(name, value):
    """``value`` as a float; ValidationError unless it is finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")
    return value


def _stepper(space, hamiltonian, dt, steps, starts):
    """The function advance(k) that steps every start k steps on from where
    the last call left it, ``steps`` in all.  It returns (rows (S, R, dim),
    each start's failing step or -1): rows 0..k are the k + 1 points from
    the last call's last, and any rows past them are scratch, handed back
    whole so that the caller need not copy a slice.  A start that failed
    leaves the stepper, so the next call's rows are those of the others."""
    if hamiltonian.degree() <= 2:
        return _linear_steps(space, hamiltonian, dt, steps, starts)
    return _newton_steps(space, hamiltonian, dt, steps, starts)


def _linear_steps(space, hamiltonian, dt, steps, starts):
    """The ``_stepper`` of a quadratic h, its maps built once.

    With D = A-^{-1} A+ - I = A-^{-1} dt L and c the shift, one step is
    x + (D x + c).  Kept apart from I, D is rounded relative to dt L rather
    than to 1, so h drifts less.  j steps are x + (D_j x + c_j) with
    D_{j+1} = D_j + (D + D D_j) and c_{j+1} = c_j + (c + D c_j).  Two
    stacks of such maps, both built by this recursion, advance the
    trajectories (B = BLOCK, or steps if fewer):

    - the inner stack holds the maps of j = 1..B steps;
    - the outer stack holds those of B, 2B, ..., (B - 1) B steps, built
      from the B-step map as the inner one is from one step.

    A superblock of up to B^2 steps starts from the last point of the one
    before, and each ``advance`` from its own first point, a copy of the
    last one's last: that point is the only state a start keeps.  Per
    start, one product with the outer stack gives the first point of each
    of its blocks, and one product with the inner stack fills every step
    of every block.  So a point is two maps from its superblock's first
    point, and a map of j steps carries the rounding of the j-step
    recursion that built it, ~j eps: the error grows like steps * eps, as
    it does step by step.
    """
    n = space.dim
    omega_inv = space.omega_inverse()
    origin = np.zeros(n)
    lmat = omega_inv @ hamiltonian.hessian(origin)
    shift = dt * (omega_inv @ hamiltonian.gradient(origin))
    prop = np.linalg.solve(np.eye(n) - 0.5 * dt * lmat, np.column_stack([dt * lmat, shift]))
    block = min(BLOCK, steps)
    inner = _step_maps(prop, block)
    outer = _step_maps(inner[-1], min(BLOCK, -(-steps // block)) - 1)
    span = block * (len(outer) + 1)
    # [D_j | c_j]^T side by side, so that [x, 1] @ it gives every D_j x + c_j
    inner, outer = (maps.transpose(2, 0, 1).reshape(n + 1, len(maps) * n) for maps in (inner, outer))
    last = starts.copy()

    def advance(k):
        count = len(last)
        traj = np.empty((count, k + 1, n))
        traj[:, 0] = last
        for at in range(0, k, span):
            size = min(span, k - at)
            blocks = -(-size // block)
            # each block's first point, then a 1 for the c_j;
            # vector-matrix products per start: a batch row keeps the 1-D bits
            firsts = np.ones((count, blocks, n + 1))
            firsts[:, 0, :n] = x = traj[:, at]
            if blocks > 1:
                moves = (firsts[:, :1] @ outer[:, : (blocks - 1) * n]).reshape(count, blocks - 1, n)
                np.add(x[:, None], moves, out=firsts[:, 1:, :n])
            full = size // block
            for lo, rows, width in ((0, full, block), (full, 1, size - full * block)):
                if rows and width:
                    first = at + 1 + lo * block
                    moves = traj[:, first : first + rows * width].reshape(count, rows, width * n)
                    np.matmul(firsts[:, lo : lo + rows], inner[:, : width * n], out=moves)
                    filled = moves.reshape(count, rows, width, n)
                    filled += firsts[:, lo : lo + rows, None, :n]
        last[:] = traj[:, -1]  # a copy, not a view that would keep traj alive
        return traj, np.full(count, -1)

    return advance


def _step_maps(prop, count):
    """The maps [D_j | c_j] of j = 1..count steps of prop = [D | c], by the
    recursion D_{j+1} = D_j + (D + D D_j), c_{j+1} = c_j + (c + D c_j)."""
    mat = prop[:, : len(prop)]
    stack = np.empty((count,) + prop.shape)
    if count:
        stack[0] = prop
    for prev, cur in zip(stack, stack[1:]):
        np.matmul(mat, prev, out=cur)
        cur += prop
        cur += prev
    return stack


def _newton_steps(space, hamiltonian, dt, steps, starts):
    """The ``_stepper`` of any other h.

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
      the first one out of MIDPOINT_TOL have converged; they join
      converged points only, so later sweeps neither evaluate nor move
      them.  Once every step has converged the window is accepted, with
      that sweep's correction applied too.
    - **Held J.** Within a window, J is refreshed, at the central
      midpoint of the steps still iterating, only when a sweep does not
      halve the largest residual of the one before.  A window that
      stalls again after a refresh, meets a non-finite residual or
      reaches MAX_NEWTON sweeps ends at its converged steps, or is
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
      one) or after MAX_NEWTON residuals out of tolerance.

    Between calls each start keeps its state: the rows it has stepped past
    the last call's end, its window's first point last among them; its
    held M and P; its next window's width; and whether J was evaluated in
    this try, whether its last window was hard and whether J went stale.
    Windows are capped at ``steps``, not at a call's end k: a start that
    passes row k stops at the end of its window, and its rows past k begin
    the next call.  So calls of any lengths give the bits of one call over
    all the steps.  Each start keeps its own window, all starts sweep
    together, and every operation is row by row, so a batch row holds the
    1-D call's bits.
    """
    n = space.dim
    omega_inv = space.omega_inverse()
    eye = np.eye(n)

    def field(x):
        # matrix-vector products per row: a batch row keeps the 1-D bits
        return (omega_inv @ hamiltonian.gradient(x)[..., None])[..., 0]

    def factor(points):
        inv = _invert_rows(eye - 0.5 * dt * (omega_inv @ hamiltonian.hessian(points)))
        return inv, 2.0 * inv - eye

    full = min(BLOCK, steps)
    step = np.arange(full)
    # Per start, between calls (``held``): its window's first row pos, the
    # width of that window, the held M and P, and its fresh, hard and stale
    # flags; and (``ahead``) the rows from the last call's end on, as far
    # as each start has stepped.
    count = len(starts)
    held = [np.zeros(count, dtype=np.int64), np.full(count, full), *factor(starts),
            np.ones(count, dtype=bool), np.ones(count, dtype=bool), np.zeros(count, dtype=bool)]
    at, ahead = 0, starts[:, None]

    def advance(k):
        nonlocal held, at, ahead
        end = at + k
        traj = np.empty((len(ahead), min(k + BLOCK, steps - at + 1), n))
        traj[:, : ahead.shape[1]] = ahead
        failed = np.full(len(traj), -1)
        # Per live start: its index; its window's first point traj[live,
        # pos - at], width and converged steps; the held M and P; f at the
        # first point; whether J was evaluated in this try; whether the
        # last window was hard; whether J went stale in this window; this
        # try's residual count and its last largest residual; and the
        # window: its first point, then the iterate.
        live = np.flatnonzero(held[0] < end)  # the starts whose window begins before row end
        pos, width, inv, cayley, fresh, hard, stale = (a[live] for a in held)
        done = np.zeros(len(live), dtype=np.int64)
        f0 = np.empty((len(live), n))
        sweeps = np.zeros(len(live), dtype=np.int64)
        last = np.full(len(live), np.inf)
        win = np.empty((len(live), full + 1, n))
        win[:, 0] = traj[live, pos - at]
        begin = predict = np.ones(len(live), dtype=bool)  # a new window; a new prediction
        with np.errstate(over="ignore", invalid="ignore"):  # failure is read off the residual
            while len(live):
                cols = int(width.max())
                if begin.any():
                    f0[begin] = field(win[begin, 0])
                    again = np.flatnonzero(begin & stale)
                    if len(again):
                        inv[again], cayley[again] = factor(win[again, 0])
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
                out[used] = ~(over <= MIDPOINT_TOL * (1.0 + np.abs(ys).max(axis=1)))
                done = np.where(out.any(axis=1), out.argmax(axis=1), width)
                largest = size.max(axis=1)
                sweeps += 1
                accept = done == width
                stalled = ~accept & ~(largest <= 0.5 * last)
                stale |= largest > STALE_RATE * last
                retry = ~np.isfinite(largest) | ~accept & (sweeps >= MAX_NEWTON)
                retry |= stalled & fresh & (width > 1)
                renew = ~retry & (stalled | ~accept & (width == 1) & ((sweeps > 1) | hard))
                if renew.any():
                    rows = np.flatnonzero(renew)
                    centre = (done[rows] + width[rows] - 1) // 2
                    inv[rows], cayley[rows] = factor(0.5 * (prev[rows, centre] + y[rows, centre]))
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
                traj[live[rows], pos[rows] - at + 1 + cols_done] = y[rows, cols_done]
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

                keep = ~lost & (pos < end)
                if not keep.all():  # every row's state, so that the rows leaving keep theirs
                    for state, now in zip(held, (pos, width, inv, cayley, fresh, hard, stale)):
                        state[live] = now
                    live, pos, width, done, inv, cayley, f0, fresh, hard, stale, sweeps, last, win, begin, predict = (
                        a[keep] for a in (live, pos, width, done, inv, cayley, f0, fresh, hard, stale,
                                          sweeps, last, win, begin, predict)
                    )
        held = [state[failed < 0] for state in held]
        ahead = traj[failed < 0, k:]  # a copy, so the stepper keeps none of traj alive
        at = end
        return traj, failed

    return advance


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


def _eigenbases(amats, norms):
    """(V_i, V_i^-1, lam_i) with A_i = V_i diag(lam_i) V_i^-1, one eigenbasis
    per generator, or None when some A_i is not diagonalizable: V_i must
    rebuild A_i to 1e-10 |A_i|, which a singular or non-finite V_i cannot."""
    lam, vecs = np.linalg.eig(amats)
    # complex whatever the generators: eig returns real arrays when all of
    # its eigenvalues are real
    lam, vecs = lam.astype(complex), vecs.astype(complex)
    inv = _invert_rows(vecs)
    recon = vecs @ (lam[:, :, None] * inv)
    if not (np.abs(recon - amats).max(axis=(1, 2)) <= 1e-10 * norms).all():
        return None
    return list(zip(vecs, inv, lam))


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
    from fractions import Fraction  # deferred: only an orbit grid needs it

    fracs = [Fraction(r).limit_denominator(PERIOD_MAX_DENOMINATOR) for r in ratios]
    if any(abs(r - float(f)) > 1e-9 for r, f in zip(ratios, fracs)):
        return None
    denom = math.lcm(*(f.denominator for f in fracs))
    numer = math.gcd(*(f.numerator * denom // f.denominator for f in fracs))
    return 2.0 * math.pi * denom / (numer * top)


def _grid_axes(half, step):
    """Per axis i, the values k step_i for integer k from -c_i to c_i,
    c_i = ceil(half_i / step_i), so t = 0 is on the grid and the axis spans
    [-half_i, half_i].  While the grid, their product, holds more than
    GRID_MAX_POINTS points, the steps widen evenly by the excess; the ceil
    can leave a widened grid still too large, so this may take more than
    one pass."""
    counts = np.ceil(half / step)
    while (total := float(np.prod(2.0 * counts + 1.0))) > GRID_MAX_POINTS:
        step = step * (total / GRID_MAX_POINTS) ** (1.0 / len(step))
        counts = np.ceil(half / step)
    return [np.arange(-c, c + 1.0) * s for c, s in zip(counts, step)]


def _orbit_table(axes, factors, p):
    """exp(t_1 A_1) ... exp(t_m A_m) p at every t of the grid spanned by
    axes, in row-major order.  Along axis i, exp(t_i A_i) is the real
    matrix Re(V_i diag(exp(t_i lam_i)) V_i^-1), applied to every point
    built so far from the factors after it; exp(t_i lam_i) is tabulated
    from real exp, cos and sin, so the transcendentals number
    sum_i len(axes[i]) * dim, not one complex exp per grid point."""
    points = p[None]
    for axis, (vecs, inv, lam) in zip(axes[::-1], factors[::-1]):
        growth = np.exp(np.multiply.outer(axis, lam.real))
        angle = np.multiply.outer(axis, lam.imag)
        table = np.empty(angle.shape, dtype=complex)
        table.real = growth * np.cos(angle)
        table.imag = growth * np.sin(angle)
        maps = np.real((vecs * table[:, None]) @ inv)
        points = (points @ maps.transpose(0, 2, 1)).reshape(-1, len(p))
    return points


def _metric_norms(diffs, metric):
    """|d|_metric for each d along the last axis of diffs, by one
    vector-matrix product per row, so a row's bits do not depend on the
    rows beside it."""
    weighted = (diffs[..., None, :] @ metric)[..., 0, :]
    weighted *= diffs
    return np.sqrt(np.maximum(weighted.sum(axis=-1), 0.0))


def _residual(q, xs, metric):
    """(f, M d) per row, where d = q - x and f = |d|^2_metric, by products
    row by row."""
    d = q - xs
    md = (d[:, None, :] @ metric)[:, 0]
    return (d[:, None, :] @ md[:, :, None])[:, 0, 0], md


def _grid_start(p, metric, norms, factors):
    """The function xs -> the nearest point to each row of xs of a grid on
    the orbit of K, exp(t_1 A_1) ... exp(t_m A_m) p (``_orbit_table``).
    Each t_i spans one period of its own A_i, or [-box, box], box = pi
    max(1, 1/min_i |A_i|_2), if it has none, at spacing (pi/16)/|A_i|_2;
    the rows are scored a chunk at a time.  The grid covers the orbit when
    this product of one-parameter subgroups covers K, as it does for tori
    (where the factors commute) and for SU(2) (Euler angles); for any other
    K it may miss a part of the orbit, and the distance found is then only
    larger."""
    box = math.pi * max(1.0, 1.0 / norms.min())
    periods = [_circle_period(lam) for _, _, lam in factors]
    axes = _grid_axes(np.array([box if period is None else 0.5 * period for period in periods]),
                      GRID_STEP / norms)
    points = _orbit_table(axes, factors, p)
    # M q for every grid point q, laid out (dim, points), and |q|^2.  Here
    # and in the scores, einsum keeps these long products out of BLAS,
    # whose threads would go on spinning after them and slow what follows.
    mpoints_t = np.einsum("ji,qj->iq", metric, points)
    squares = np.einsum("ij,ji->i", points, mpoints_t)
    chunk = max(1, GRID_PASS_BYTES // (8 * len(points)))

    def start(xs):
        # |x - q|^2 = |q|^2 - 2 <x, q> + |x|^2 over the grid
        index = np.empty(len(xs), dtype=np.int64)
        for lo in range(0, len(xs), chunk):
            scores = np.einsum("rn,ng->rg", xs[lo : lo + chunk], mpoints_t)
            scores *= -2.0
            scores += squares
            index[lo : lo + chunk] = np.argmin(scores, axis=1)
        return points[index]

    return start


def _orbit_newton(xs, metric, amats, q, factors):
    """f = |x - q|^2_metric per row of xs at the orbit point q that damped
    Newton reaches from the start q, all rows at once and every product row
    by row, so a row holds a one-row call's bits.

    A step s moves q to exp(s_1 A_1) ... exp(s_m A_m) q, the product the
    grid is built from, each factor Re(V_i (exp(s_i lam_i) * (V_i^-1 q)))
    from ``factors``.  Its derivatives at s = 0 are A_i q and, for i <= j,
    A_i A_j q; for commuting A_i it is left translation by
    exp(sum_i s_i A_i) (Absil, Mahony & Sepulchre, 2008).  Hessian
    |eigenvalue|s floored at NEWTON_EIG_FLOOR of the largest make every
    step descend, even where a generator fixes p; a row takes the first of
    s, s/2, ... that lowers f, until the gain the model promises
    (-grad . s) falls to rounding level, and a row that does not move is
    done."""
    order = np.arange(len(amats))
    pairs = amats[np.minimum.outer(order, order)] @ amats[np.maximum.outer(order, order)]
    f, md = _residual(q, xs, metric)
    rows = np.arange(len(xs))
    for _ in range(NEWTON_ITERS):
        if not len(rows):
            break
        at = q[rows]
        dq, ddq = (amats @ at[:, None, :, None])[..., 0], (pairs @ at[:, None, None, :, None])[..., 0]
        grad = 2.0 * (dq @ md[rows, :, None])[..., 0]
        hess = 2.0 * (dq @ metric @ dq.transpose(0, 2, 1) + (ddq @ md[rows, None, :, None])[..., 0])
        ev, u = np.linalg.eigh(hess)
        floor = NEWTON_EIG_FLOOR * np.abs(ev).max(axis=1)
        keep = floor > 0.0
        rows, grad, ev, u, floor = rows[keep], grad[keep], ev[keep], u[keep], floor[keep]
        scaled = (u.transpose(0, 2, 1) @ grad[..., None])[..., 0] / np.maximum(np.abs(ev), floor[:, None])
        step = -(u @ scaled[..., None])[..., 0]
        gain = -(grad[:, None, :] @ step[..., None])[:, 0, 0]
        moved = np.zeros(len(rows), dtype=bool)
        live = np.arange(len(rows))
        for _ in range(NEWTON_ITERS):
            live = live[gain[live] > NEWTON_TOL * f[rows[live]]]
            if not len(live):
                break
            at = rows[live]
            trial = q[at]
            for (vecs, inv, lam), s in zip(factors[::-1], step[live].T[::-1]):
                trial = np.real(_apply_rows(vecs, np.exp(np.multiply.outer(s, lam)) * _apply_rows(inv, trial)))
            found_f, found_md = _residual(trial, xs[at], metric)
            lower = found_f < f[at]
            hit = at[lower]
            f[hit], md[hit], q[hit] = found_f[lower], found_md[lower], trial[lower]
            moved[live[lower]] = True
            live = live[~lower]
            step[live] *= 0.5
            gain[live] *= 0.5
        rows = rows[moved]
    return f


def _orbit_distance_to(space, algebra, p, sub_k):
    """The function xs -> the metric distance from each row x of xs to the
    K-orbit of p, from above.  When K is trivial or fixes p, each
    |A_i p| <= 1e-13 |A_i|_2 |p|, the orbit is {p}, and the distance is
    |x - p|_metric (``_metric_norms``); so it is when some generator A_i of
    K is not diagonalizable, which no compact K has.  Otherwise it is the
    smaller of that and |x - q|_metric, at the orbit point q that
    ``_orbit_newton`` reaches from the nearest point of one grid of the
    orbit (``_grid_start``).  One search serves every K:
    each A_i = V_i diag(lam_i) V_i^-1 is decomposed once per point, and the
    grid and the Newton steps are both products of the factors
    exp(t_i A_i) = V_i diag(exp(t_i lam_i)) V_i^-1."""
    metric = space.metric
    amats = np.array([algebra.matrix(xi) for xi in sub_k.basis]).reshape(sub_k.dim, len(p), len(p))

    def direct(xs):
        return _metric_norms(xs - p, metric)

    norms = np.linalg.svd(amats, compute_uv=False)[:, 0]  # |A_i|_2
    if (np.linalg.norm(amats @ p, axis=1) <= 1e-13 * norms * np.linalg.norm(p)).all():
        return direct

    factors = _eigenbases(amats, norms)
    if factors is None:
        return direct
    start = _grid_start(p, metric, norms, factors)

    def distance(xs):
        found = np.sqrt(np.maximum(_orbit_newton(xs, metric, amats, start(xs), factors), 0.0))
        return np.minimum(direct(xs), found)

    return distance


def orbit_distance(space, algebra, x, p, sub_k, starts=32, rng=None):
    """Metric distance from x to the K-orbit of p, from above: the one row
    of ``_orbit_distance_to``, so |x - p| when K fixes p, and otherwise
    the smaller of that and |x - q| at the orbit point q that one damped
    Newton search finds, for every K from the nearest point of a grid over
    one period of each generator.  The probe's batched rows hold this
    call's bits.  ``starts`` and ``rng`` are accepted, since existing
    callers pass them, and unused; no K is searched from random starts."""
    p = space.check_point(p)
    return float(_orbit_distance_to(space, algebra, p, sub_k)(space.check_point(x)[None])[0])


def _energy(hamiltonian, dim):
    """The function (points (R, dim), out (R,)) that writes h at each point
    into out.  A quadratic h is one form over all the points, c + x . (g +
    H x / 2) from h, grad h and d2h at 0, in place of a gather over every
    monomial.  Any other h is ``Poly.value``, which works row by row, a
    block of BLOCK^2 points at a time, so that its temporaries stay small."""
    if hamiltonian.degree() > 2:
        def blocks(points, out):
            for lo in range(0, len(points), BLOCK * BLOCK):
                out[lo : lo + BLOCK * BLOCK] = hamiltonian.value(points[lo : lo + BLOCK * BLOCK])

        return blocks
    origin = np.zeros(dim)
    half = 0.5 * hamiltonian.hessian(origin)
    grad = hamiltonian.gradient(origin)
    const = hamiltonian.value(origin)

    def quadratic(points, out):
        np.einsum("tn,tn->t", points @ half, points, out=out)
        out += points @ grad
        out += const

    return quadratic


def _scan(seg, rows, at, last, p, metric, energy, quads, stride):
    """(checkpoint table, (h, J) (S, 1 + d, rows)) of the first ``rows`` rows
    of a segment (S, R, dim) holding rows at, at + 1, ... of trajectories: a
    table row (row, x, h, J) per peak of |x - p| in each window of stride
    rows, and at rows 0 and last.  The segment is read whole, not sliced,
    so that it is never copied."""
    count, length, n = seg.shape
    flat = seg.reshape(-1, n)
    # h and each J_i along the rows, so that per-row work runs down long axes
    conserved = np.empty((1 + quads.shape[1] // n, len(flat)))
    energy(flat, conserved[0])
    conserved[1:] = np.einsum("tdn,tn->td", (flat @ quads).reshape(len(flat), len(conserved) - 1, n), flat).T
    diffs = flat - p
    squares = np.einsum("tn,tn->t", diffs @ metric, diffs).reshape(count, length)[:, :rows]
    pad = -rows % stride
    windows = np.pad(squares, ((0, 0), (0, pad)), constant_values=-np.inf) if pad else squares
    pick = np.arange(0, rows, stride) + windows.reshape(count, -1, stride).argmax(axis=2)
    pick = np.column_stack([pick] + [np.full(count, row - at) for row in (0, last) if 0 <= row - at < rows])
    flat_pick = (pick + length * np.arange(count)[:, None]).ravel()
    table = np.column_stack([at + pick.ravel(), flat[flat_pick], conserved[:, flat_pick].T])
    conserved = conserved.reshape(-1, count, length)[..., :rows].transpose(1, 0, 2)
    return table.reshape(count, pick.shape[1], -1), conserved


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
    rng,
    dt=1e-2,
    escape_factor=100.0,
    csv_path=None,
):
    """Integrate ``samples`` trajectories from the metric epsilon-ball at p.

    Records the largest observed distance to the orbit of K, the momentum
    isotropy group of J(p), the energy and momentum drifts, and whether any
    trajectory exceeded escape_factor * epsilon.  Orbit distances are
    evaluated on a subsample of each trajectory, with evaluation points placed
    at the ambient-norm peaks of each window so excursions are not missed
    between samples.  The samples are integrated together, a chunk of
    them at a time and a segment of whole windows (about BLOCK^2 steps) at
    a time, each segment scanned as it is stepped and each chunk measured
    as it ends, so memory grows neither with the horizon nor with the
    samples: a chunk's segment holds at most PROBE_CHUNK_ENTRIES entries,
    or one sample.  Each chunk has one stepper (``_stepper``), which keeps
    every sample's state from one segment to the next, so a sample's
    points are those ``integrate`` gives from its start on the Newton
    path, and differ only by rounding on the linear one, whose
    superblocks start at each segment.  A sample whose Newton solve fails
    counts as one solver failure and leaves the batch.
    A trajectory that overflows, or none measured, reads as escape.
    The starts are drawn from ``rng``, a numpy Generator or a seed; None,
    which would draw fresh entropy, raises TypeError.
    """
    for name, value in (("epsilon", epsilon), ("horizon", horizon), ("dt", dt),
                        ("escape_factor", escape_factor)):
        _finite_positive(name, value)
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    # ceil(horizon / dt) steps, with (steps + 1) * dim <= MAX_TRAJECTORY_ENTRIES
    # entries; NaN and inf fail the comparison too
    if not horizon / dt <= MAX_TRAJECTORY_ENTRIES // space.dim - 1:
        raise ValidationError(
            f"horizon / dt = {horizon / dt} steps: a trajectory of (steps + 1) * dim entries "
            f"exceeds the bound of {MAX_TRAJECTORY_ENTRIES}"
        )
    steps = max(1, math.ceil(horizon / dt))
    p = space.check_point(p)
    if rng is None:
        raise TypeError("rng must be a seed or a numpy Generator, not None")
    rng = np.random.default_rng(rng)
    stride = max(1, steps // 200)
    inv_sqrt = metric_inv_sqrt(space.metric)
    mm = MomentumMap(space, algebra)
    # J_i(x) = x^T Q_i x for all i as one product: x @ [Q_1 ... Q_d], then
    # each block dotted with x
    n, d = space.dim, algebra.dim
    quads = 0.5 * mm.component_hessians().transpose(1, 0, 2).reshape(n, d * n)
    energy = _energy(hamiltonian, n)
    distance = _orbit_distance_to(space, algebra, p, momentum_isotropy_algebra(algebra, mm.value(p)))

    # every start is drawn first, in the order a sample-by-sample loop draws them
    starts = np.empty((samples, space.dim))
    for sample in range(samples):
        direction = rng.standard_normal(space.dim)
        direction /= np.linalg.norm(direction)
        radius = epsilon * rng.random() ** (1.0 / space.dim)
        starts[sample] = p + radius * (inv_sqrt @ direction)
    # whole stride windows, so no window straddles two segments
    segment = stride * max(1, BLOCK * BLOCK // stride)

    writer = handle = None
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

    start, drifts = np.empty((samples, 1 + d)), np.zeros((samples, 1 + d))  # (h, J) at row 0; max |change|
    chunk = max(1, PROBE_CHUNK_ENTRIES // ((min(segment, steps) + 1) * n))
    kept = []  # per chunk, the samples whose solve has not failed
    max_dist = 0.0
    try:
        # an overflow reads as escape: numpy maxima keep its non-finite values
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, samples, chunk):
                live = np.arange(lo, min(lo + chunk, samples))
                tables = {sample: [] for sample in live.tolist()}  # per sample, its checkpoint tables
                advance = _stepper(space, hamiltonian, dt, steps, starts[live])
                for at in range(0, steps, segment):
                    size = min(segment, steps - at)
                    traj, failed = advance(size)
                    if (failed >= 0).any():
                        live, traj = live[failed < 0], traj[failed < 0]
                        if not len(live):
                            break
                    # a segment's last row is the first of the next
                    scanned = size + (at + size == steps)
                    table, conserved = _scan(traj, scanned, at, steps, p, space.metric, energy, quads, stride)
                    if not at:
                        start[live] = conserved[..., 0]
                    drifts[live] = np.maximum(drifts[live], np.abs(conserved - start[live, :, None]).max(axis=2))
                    del traj, conserved  # before the next segment is stepped
                    for sample, rows in zip(live.tolist(), table):
                        tables[sample].append(rows)
                kept.append(live)

                merged = [np.concatenate(tables[sample]) for sample in live.tolist()]
                merged = [table[np.unique(table[:, 0], return_index=True)[1]] for table in merged]
                if merged:
                    table = np.concatenate(merged)
                    dists = distance(table[:, 1 : n + 1])
                    max_dist = np.maximum(max_dist, dists.max())
                    if writer is not None:
                        table[:, 0] *= dt
                        ids = np.repeat(live, [len(rows) for rows in merged]).tolist()
                        writer.writerows([sample] + row for sample, row in
                                         zip(ids, np.column_stack([table, dists]).tolist()))
            live = np.concatenate(kept)
    finally:
        if handle is not None:
            handle.close()

    return ProbeReport(
        epsilon=float(epsilon),
        horizon=float(horizon),
        samples=int(samples),
        max_orbit_distance=float(max_dist),
        energy_drift=float(drifts[live, 0].max(initial=0.0)),
        momentum_drift=float(drifts[live, 1:].max(initial=0.0)),
        # no trajectory measured confirms no bound, nor does a NaN distance
        escaped=bool(not max_dist <= escape_factor * epsilon or len(live) == 0),
        solver_failures=samples - len(live),
        dt=float(dt),
        escape_factor=float(escape_factor),
    )
