"""Velocity families, the slice-Hessian pencil, and the definiteness search.

A point p is a relative equilibrium when grad h(p) = grad J_xi(p) for some
algebra element xi; the solution set is the affine family xi_1 + h, with h
the isotropy algebra of p.  Along family coordinates s the Hessians
restricted to the symplectic slice form one affine pencil
H(s) = H0 + sum_k s_k D_k, built once per point from one d2h(p) by
``slice_pencil``.  The searched xi*, the baselines xiPerp and xi1, and a
caller's fixed ``--velocity`` are all judged from it: the certificate is a
velocity whose restricted Hessian is definite.  The search maximizes
lambda_min(H(s)) and lambda_min(-H(s)) from random restarts, all restarts
of both signs stepped together with stacked eigen-solves and batched
supergradients that keep the bits of the one-start ascent.  The criterion
is sufficient only: INCONCLUSIVE never asserts instability.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotRelativeEquilibrium, PreconditionViolated
from .linalg import inertia
from .momentum import MomentumMap
from .symmetry import Subalgebra
from .witt_artin import WittArtinFrame

# Definiteness threshold, applied to the spectrum after scaling the matrix
# by 1/max(1, max|entry|); separates genuine definiteness from numerical zeros.
DEFINITENESS_TOL = 1e-7

VELOCITY_TOL = 1e-9

# The search's supergradient ascent: random restarts per sign, the box
# |s|_inf <= SEARCH_BOX, and the iteration cap of each ascent.
SEARCH_RESTARTS = 20
SEARCH_BOX = 1e3
SEARCH_MAX_ITER = 500
# Eigenvalues within CLUSTER_TOL * max(1, max|w|) of the smallest share its
# eigenspace in the supergradient.
CLUSTER_TOL = 1e-8

VERDICT_POS = "STABLE_POS_DEF"
VERDICT_NEG = "STABLE_NEG_DEF"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class VelocityFamily:
    """Affine family xi1 + span(directions) of velocities of one point,
    with the grad h(p) it was solved from."""

    xi1: np.ndarray
    directions: Subalgebra  # isotropy algebra at the point
    residual: float
    gradient: np.ndarray

    @property
    def dim(self):
        return self.directions.dim

    def member(self, s):
        s = np.asarray(s, dtype=float)
        return self.xi1 + self.directions.basis.T @ s


@dataclass(frozen=True)
class StabilityCertificate:
    """Verdict at one velocity of a family: searched, or fixed by the caller."""

    verdict: str
    xi_star: np.ndarray
    spectrum: np.ndarray
    margin: float
    boundary_hit: bool = False

    @property
    def stable(self):
        return self.verdict in (VERDICT_POS, VERDICT_NEG)


def velocity_residual(space, algebra, hamiltonian, p, xi):
    """Norm of grad h(p) - grad J_xi(p); zero iff xi is a velocity at p."""
    p = space.check_point(p)
    return _velocity_residual(MomentumMap(space, algebra), hamiltonian.gradient(p), p, xi)


def _velocity_residual(mm, gradient, p, xi):
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (mm.dim,):
        raise DimensionMismatch(f"velocity of shape {xi.shape}, expected ({mm.dim},)")
    with np.errstate(invalid="ignore"):  # a non-finite xi gives a NaN or infinite residual
        predicted = mm.differential_rows(p).T @ xi
    return float(np.linalg.norm(gradient - predicted))


def _velocity_bound(gradient):
    """VELOCITY_TOL * (1 + |grad h(p)|): the largest residual of a velocity."""
    return VELOCITY_TOL * (1.0 + float(np.linalg.norm(gradient)))


def solve_velocities(hamiltonian, frame):
    """Solve grad J_xi(p) = grad h(p) for xi by least squares at the frame's point.

    Returns the minimum-norm particular solution together with the frame's
    isotropy algebra (the family directions); raises NotRelativeEquilibrium
    unless the residual is at most ``_velocity_bound`` (a NaN one is refused).
    """
    p, target = frame.point, hamiltonian.gradient(frame.point)
    mat = frame.momentum_map.differential_rows(p).T  # (2n, d), d = 0 included
    xi1, _, _, _ = np.linalg.lstsq(mat, target, rcond=None)
    residual = _velocity_residual(frame.momentum_map, target, p, xi1)
    if not residual <= _velocity_bound(target):
        raise NotRelativeEquilibrium(
            f"critical-point residual {residual:.3e} exceeds tolerance; "
            "the point is not a relative equilibrium"
        )
    return VelocityFamily(xi1=xi1, directions=frame.isotropy, residual=residual, gradient=target)


def require_velocity(mm, gradient, p, xi):
    """Raise PreconditionViolated unless xi is a velocity of p for momentum
    map ``mm``, given ``gradient`` = grad h(p)."""
    res = _velocity_residual(mm, gradient, p, xi)
    bound = _velocity_bound(gradient)
    if not res <= bound:  # a NaN residual is rejected too
        raise PreconditionViolated(f"xi is not a velocity of p (residual {res:.3e} > {bound:.3e})")


def _restrict(frame, hessian, xi):
    """B^T (hessian - d2J_xi) B, symmetrized, for B the slice basis of
    ``frame``, whose momentum map supplies d2J."""
    d2j = np.einsum("i,imn->mn", np.asarray(xi, dtype=float), frame.momentum_map.component_hessians())
    b = frame.basis_n
    h = b.T @ (hessian - d2j) @ b
    return 0.5 * (h + h.T)


def restricted_hessian(space, algebra, hamiltonian, p, xi, frame, check=True):
    """B^T (d2h(p) - d2J_xi(p)) B for B the slice basis of ``frame``, whose
    momentum map supplies d2J."""
    p = space.check_point(p)
    if check:
        require_velocity(frame.momentum_map, hamiltonian.gradient(p), p, xi)
    return _restrict(frame, hamiltonian.hessian(p), xi)


@dataclass(frozen=True)
class SlicePencil:
    """Restricted Hessians of one point's velocity family: at the member
    xi1 + sum_k s_k eta_k, eta_k the family's directions, the restricted
    Hessian is H(s) = h0 + sum_k s_k directions[k]."""

    frame: WittArtinFrame
    family: VelocityFamily
    hessian: np.ndarray  # d2h(p) on the whole phase space
    h0: np.ndarray  # H at xi1
    directions: np.ndarray  # (family.dim, r, r), symmetric

    def at(self, xi):
        """The restricted Hessian at velocity xi; no velocity check."""
        return _restrict(self.frame, self.hessian, xi)


def slice_pencil(hamiltonian, frame, family):
    """The pencil of ``family`` (from ``solve_velocities`` on ``frame``),
    from one evaluation of d2h at the frame's point."""
    hessian = hamiltonian.hessian(frame.point)
    b = frame.basis_n
    hessians = frame.momentum_map.component_hessians()
    d = -(b.T @ np.einsum("ki,imn->kmn", family.directions.basis, hessians) @ b)
    return SlicePencil(
        frame=frame,
        family=family,
        hessian=hessian,
        h0=_restrict(frame, hessian, family.xi1),
        directions=0.5 * (d + d.transpose(0, 2, 1)),
    )


def orthogonal_velocity(family, algebra_metric):
    """The unique family member orthogonal to the isotropy algebra.

    This is the baseline velocity of the splitting-based criteria; the
    projection uses the supplied positive-definite metric on coordinates.
    """
    metric = np.asarray(algebra_metric, dtype=float)
    hb = family.directions.basis  # (m, d)
    gram = hb @ metric @ hb.T
    coef = np.linalg.solve(gram, hb @ metric @ family.xi1)
    return family.xi1 - hb.T @ coef


def _min_eig_supergradients(w, u, direction_mats):
    """Supergradients of s -> lambda_min(H(s)), one row for each stacked
    eigendecomposition (w, u) of an H(s).

    At a simple minimal eigenvalue this is (u^T D_k u); at clustered
    spectra the eigenvector contributions over the minimal eigenspace are
    averaged, which is a valid supergradient of the concave objective.
    Each u^T D_k u is summed in the order of the one-matrix form
    ``einsum("ij,jk,ki->i", u.T, D_k, u)`` and each average as
    ``sum / count``, so every row has the bits of one matrix's supergradient.
    """
    n, r = w.shape
    scale = np.maximum(1.0, np.abs(w).max(axis=1))
    sizes = np.count_nonzero(w <= w[:, :1] + CLUSTER_TOL * scale[:, None], axis=1)  # of each minimal cluster
    x = u.transpose(0, 2, 1).reshape(n * r, r)  # every eigenvector as a row
    if r > 2:
        q = np.stack([np.einsum("ij,jk,ki->i", x, d, x.T) for d in direction_mats])
    else:  # at r <= 2 that einsum sums in another order than the one-matrix form
        q = np.stack([((x.T[:, None] * d[:, :, None]) * x.T).sum(1).sum(0) for d in direction_mats])
    q = q.reshape(len(q), n, r)
    grad = np.empty((n, len(q)))
    for c in set(sizes.tolist()):
        rows = sizes == c
        grad[rows] = (q[:, rows, :c].sum(-1) / c).T
    return grad


def _combine(h0, mats, s):
    """The family members h0 + sum_k s_k mats[k] of restricted Hessians, one
    for each row of s (one matrix for a vector s), added term by term."""
    h = np.broadcast_to(h0, s.shape[:-1] + h0.shape).copy()
    for k in range(len(mats)):
        h += s[..., k, None, None] * mats[k]
    return h


def _certificate(hm, xi, boundary=False):
    """The verdict rule: STABLE when hm, the restricted Hessian at velocity
    ``xi``, is definite; vacuously so on an empty slice."""
    n_plus, n_minus, _ = inertia(hm, DEFINITENESS_TOL)
    if n_plus == hm.shape[0]:
        verdict = VERDICT_POS
    elif n_minus == hm.shape[0]:
        verdict = VERDICT_NEG
    else:
        verdict = VERDICT_INCONCLUSIVE
    spectrum = np.linalg.eigvalsh(hm)
    return StabilityCertificate(
        verdict=verdict,
        xi_star=xi,
        spectrum=spectrum,
        margin=float(np.abs(spectrum).min(initial=np.inf)),
        boundary_hit=boundary,
    )


def _ascend_both_signs(h0, direction_mats, rng):
    """Projected supergradient ascent of lambda_min(H(s)) and of
    lambda_min(-H(s)) over the box |s|_inf <= SEARCH_BOX.

    Each sign starts at s = 0 and at SEARCH_RESTARTS uniform points of the
    box, the positive sign's drawn first, and all starts ascend together,
    each on the path it would take alone.  A round takes one supergradient
    step for every start that has just moved, from one stacked ``eigh``,
    and one backtracking trial along its direction for every start still
    live, from one stacked ``eigvalsh``.  A negative start's matrix,
    supergradient and direction are the exact negations of the positive
    forms, so H(s) and u^T D_k u are computed once for both signs.  The
    step doubles on success, up to SEARCH_BOX, and halves on failure.  A
    start stops when its supergradient vanishes, its step falls to
    1e-13 (1 + |s|_inf), or it has taken SEARCH_MAX_ITER supergradient
    steps.  Returns the (s, value, boundary) of each sign, positive first;
    the first of a sign's best starts wins.
    """
    m = len(direction_mats)
    if m == 0:
        values = np.linalg.eigvalsh(np.stack([h0, -h0]))[:, 0]
        return [(np.zeros(0), float(v), False) for v in values]

    n = SEARCH_RESTARTS + 1
    draws = rng.uniform(-SEARCH_BOX, SEARCH_BOX, size=(2, SEARCH_RESTARTS, m))
    s = np.concatenate([np.zeros((2, 1, m)), draws], axis=1).reshape(2 * n, m)
    sign = np.repeat([1.0, -1.0], n)[:, None]  # each start's matrices are sign * H(s)
    val = np.linalg.eigvalsh(sign[:, :, None] * _combine(h0, direction_mats, s))[:, 0]
    step = 1.0 + np.abs(s).max(axis=1)
    direction = np.zeros_like(s)
    ascents = np.zeros(len(s), dtype=int)  # supergradient steps taken
    live = np.ones(len(s), dtype=bool)
    moved = np.ones(len(s), dtype=bool)  # needs a supergradient at its s
    while live.any():
        live &= ~moved | (ascents < SEARCH_MAX_ITER)
        idx = np.flatnonzero(live & moved)
        if idx.size:
            w, u = np.linalg.eigh(sign[idx, :, None] * _combine(h0, direction_mats, s[idx]))
            grad = sign[idx] * _min_eig_supergradients(w, u, direction_mats)
            gnorm = np.sqrt(np.vecdot(grad, grad))[:, None]
            live[idx[gnorm[:, 0] < 1e-15]] = False  # a flat start stops; its direction is never read
            direction[idx] = grad / np.maximum(gnorm, 1e-15)
            ascents[idx] += 1
            moved[idx] = False
        live &= step > 1e-13 * (1.0 + np.abs(s).max(axis=1))
        idx = np.flatnonzero(live)
        trial = np.clip(s[idx] + step[idx, None] * direction[idx], -SEARCH_BOX, SEARCH_BOX)
        tval = np.linalg.eigvalsh(sign[idx, :, None] * _combine(h0, direction_mats, trial))[:, 0]
        up = tval > val[idx]
        s[idx[up]], val[idx[up]] = trial[up], tval[up]
        step[idx] = np.where(up, np.minimum(step[idx] * 2.0, SEARCH_BOX), step[idx] * 0.5)
        moved[idx] = up
    optima = []
    for half in (slice(0, n), slice(n, 2 * n)):
        best_s, best_val = np.zeros(m), -np.inf
        for si, vi in zip(s[half], val[half]):
            if vi > best_val:
                best_s, best_val = si.copy(), float(vi)
        optima.append((best_s, best_val, bool(np.any(np.abs(best_s) >= SEARCH_BOX * (1.0 - 1e-9)))))
    return optima


def definiteness_search(pencil, rng):
    """Search the pencil's family for a definite restricted Hessian.

    Maximizes lambda_min(H(s)) and lambda_min(-H(s)) by projected
    supergradient ascent with random restarts (s = 0 always included), the
    restarts of both signs run together by ``_ascend_both_signs``, keeps
    the optimum with the larger scaled value, the positive one on a tie,
    and judges it by the verdict rule of ``_certificate``.
    ``solve_velocities`` has already checked xi1.  INCONCLUSIVE makes no
    instability claim (the criterion is sufficient only).  The restarts are
    drawn from ``rng``, a numpy Generator or a seed; None, which would draw
    fresh entropy, raises TypeError.
    """
    if rng is None:
        raise TypeError("rng must be a seed or a numpy Generator, not None")
    rng = np.random.default_rng(rng)
    h0, direction_mats, family = pencil.h0, pencil.directions, pencil.family
    if h0.shape[0] == 0:
        return _certificate(h0, family.xi1.copy())

    def scaled(optimum):
        s, value, _ = optimum
        return value / max(1.0, float(np.abs(_combine(h0, direction_mats, s)).max()))

    pos, neg = _ascend_both_signs(h0, direction_mats, rng)
    s_best, _, boundary = pos if scaled(pos) >= scaled(neg) else neg
    return _certificate(_combine(h0, direction_mats, s_best), family.member(s_best), boundary)


def velocity_certificate(pencil, xi):
    """Certificate at one fixed velocity xi of the pencil's family, without a search.

    Raises DimensionMismatch when xi has the wrong length and
    PreconditionViolated when it is not a velocity of the frame's point.
    """
    xi = np.asarray(xi, dtype=float)
    frame = pencil.frame
    require_velocity(frame.momentum_map, pencil.family.gradient, frame.point, xi)
    return _certificate(pencil.at(xi), xi)
