"""Velocity families, the slice-Hessian pencil, and the definiteness search.

A point p is a relative equilibrium when grad h(p) = grad J_xi(p) for some
algebra element xi; the solution set is the affine family xi_1 + h, with h
the isotropy algebra of p.  Along family coordinates s the Hessians
restricted to the symplectic slice form one affine pencil
H(s) = H0 + sum_k s_k D_k, built once per point from one d2h(p) by
``slice_pencil``.  The searched xi*, the baselines xiPerp and xi1, and a
caller's fixed ``--velocity`` are all judged from it: the certificate is a
velocity whose restricted Hessian is definite.  The criterion is
sufficient only: INCONCLUSIVE never asserts instability.
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


def _min_eig_supergradient(w, u, direction_mats):
    """Supergradient of s -> lambda_min(H(s)) from the eigenpairs (w, u) of H(s).

    At a simple minimal eigenvalue this is (u^T D_k u); at clustered
    spectra the eigenvector contributions over the minimal eigenspace are
    averaged, which is a valid supergradient of the concave objective.
    """
    scale = max(1.0, float(np.abs(w).max()))
    members = np.nonzero(w <= w[0] + CLUSTER_TOL * scale)[0]
    cols = u[:, members]
    return np.array([np.einsum("ij,jk,ki->i", cols.T, d, cols).sum() / len(members) for d in direction_mats])


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


def _ascend_lambda_min(h0, direction_mats, rng):
    """Projected supergradient ascent of lambda_min over the box |s|_inf <= SEARCH_BOX.

    The starts, s = 0 and SEARCH_RESTARTS uniform points of the box, ascend
    together, each on the path it would take alone.  A round takes one
    supergradient step for every start that has just moved, from one stacked
    ``eigh``, and one backtracking trial along its direction for every start
    still live, from one stacked ``eigvalsh``.  The step doubles on success,
    up to SEARCH_BOX, and halves on failure.  A start stops when its
    supergradient vanishes, its step falls to 1e-13 (1 + |s|_inf), or it
    has taken SEARCH_MAX_ITER supergradient steps.  The first of the best
    starts wins.
    """
    m = len(direction_mats)
    if m == 0:
        return np.zeros(0), float(np.linalg.eigvalsh(h0)[0]), False

    s = np.vstack([np.zeros((1, m)), rng.uniform(-SEARCH_BOX, SEARCH_BOX, size=(SEARCH_RESTARTS, m))])
    val = np.linalg.eigvalsh(_combine(h0, direction_mats, s))[:, 0]
    step = 1.0 + np.abs(s).max(axis=1)
    direction = np.zeros_like(s)
    ascents = np.zeros(len(s), dtype=int)  # supergradient steps taken
    live = np.ones(len(s), dtype=bool)
    moved = np.ones(len(s), dtype=bool)  # needs a supergradient at its s
    while live.any():
        live &= ~moved | (ascents < SEARCH_MAX_ITER)
        idx = np.flatnonzero(live & moved)
        if idx.size:
            w, u = np.linalg.eigh(_combine(h0, direction_mats, s[idx]))
            for i, wi, ui in zip(idx, w, u):
                grad = _min_eig_supergradient(wi, ui, direction_mats)
                gnorm = float(np.linalg.norm(grad))
                if gnorm < 1e-15:
                    live[i] = False
                else:
                    direction[i] = grad / gnorm
            ascents[idx] += 1
            moved[idx] = False
        live &= step > 1e-13 * (1.0 + np.abs(s).max(axis=1))
        idx = np.flatnonzero(live)
        trial = np.clip(s[idx] + step[idx, None] * direction[idx], -SEARCH_BOX, SEARCH_BOX)
        tval = np.linalg.eigvalsh(_combine(h0, direction_mats, trial))[:, 0]
        up = tval > val[idx]
        s[idx[up]], val[idx[up]] = trial[up], tval[up]
        step[idx] = np.where(up, np.minimum(step[idx] * 2.0, SEARCH_BOX), step[idx] * 0.5)
        moved[idx] = up
    best_s, best_val = np.zeros(m), -np.inf
    for si, vi in zip(s, val):
        if vi > best_val:
            best_s, best_val = si.copy(), float(vi)
    boundary = bool(np.any(np.abs(best_s) >= SEARCH_BOX * (1.0 - 1e-9)))
    return best_s, best_val, boundary


def definiteness_search(pencil, rng):
    """Search the pencil's family for a definite restricted Hessian.

    Maximizes lambda_min(H(s)) and lambda_min(-H(s)) separately by projected
    supergradient ascent with random restarts (s = 0 always included), all
    restarts of one sign run together by ``_ascend_lambda_min``, keeps the
    optimum with the larger scaled value, and judges it by the verdict rule
    of ``_certificate``.  ``solve_velocities`` has already checked xi1.
    INCONCLUSIVE makes no instability claim (the criterion is sufficient
    only).  The restarts are drawn from ``rng``, a numpy Generator or a seed;
    None, which would draw fresh entropy, raises TypeError.
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

    pos = _ascend_lambda_min(h0, direction_mats, rng)
    neg = _ascend_lambda_min(-h0, -direction_mats, rng)
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
