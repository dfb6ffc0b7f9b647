"""Velocity families, restricted Hessians, and the definiteness search.

A point p is a relative equilibrium when grad h(p) = grad J_xi(p) for some
algebra element xi; the solution set is the affine family xi_1 + h, with h
the isotropy algebra of p.  The certificate searches that family for a
velocity whose Hessian restricted to the symplectic slice is definite.  The
criterion is sufficient only: INCONCLUSIVE never asserts instability.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotRelativeEquilibrium, PreconditionViolated
from .linalg import inertia
from .momentum import MomentumMap
from .symmetry import Subalgebra, compactness_certificate

# Definiteness threshold, applied to the spectrum after scaling the matrix
# by 1/max(1, max|entry|); separates genuine definiteness from numerical zeros.
DEFINITENESS_TOL = 1e-7

VELOCITY_TOL = 1e-9

# The search's supergradient ascent: random restarts per sign, the box
# |s|_inf <= SEARCH_BOX, and the iteration cap of each ascent.
SEARCH_RESTARTS = 20
SEARCH_BOX = 1e3
SEARCH_MAX_ITER = 500

VERDICT_POS = "STABLE_POS_DEF"
VERDICT_NEG = "STABLE_NEG_DEF"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class VelocityFamily:
    """Affine family xi1 + span(directions) of velocities of one point."""

    xi1: np.ndarray
    directions: Subalgebra  # isotropy algebra at the point
    residual: float

    @property
    def dim(self):
        return self.directions.dim

    def member(self, s):
        s = np.asarray(s, dtype=float)
        if self.dim == 0:
            return self.xi1.copy()
        return self.xi1 + self.directions.basis.T @ s


@dataclass(frozen=True)
class StabilityCertificate:
    """Verdict at one velocity of a family: searched, or fixed by the caller."""

    verdict: str
    xi_star: np.ndarray
    spectrum: np.ndarray
    margin: float
    compactness_verified: bool
    inertia_at_xi1: tuple
    boundary_hit: bool = False

    @property
    def stable(self):
        return self.verdict in (VERDICT_POS, VERDICT_NEG)


def velocity_residual(space, algebra, hamiltonian, p, xi):
    """Norm of grad h(p) - grad J_xi(p); zero iff xi is a velocity at p."""
    return _velocity_residual(MomentumMap(space, algebra), hamiltonian, space.check_point(p), xi)


def _velocity_residual(mm, hamiltonian, p, xi):
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (mm.dim,):
        raise DimensionMismatch(f"velocity of shape {xi.shape}, expected ({mm.dim},)")
    with np.errstate(invalid="ignore"):  # a non-finite xi gives a NaN or infinite residual
        predicted = mm.differential_rows(p).T @ xi
    return float(np.linalg.norm(hamiltonian.gradient(p) - predicted))


def solve_velocities(hamiltonian, frame):
    """Solve grad J_xi(p) = grad h(p) for xi by least squares at the frame's point.

    Returns the minimum-norm particular solution together with the frame's
    isotropy algebra (the family directions); raises NotRelativeEquilibrium
    when the residual exceeds VELOCITY_TOL * (1 + |grad h(p)|).
    """
    target = hamiltonian.gradient(frame.point)
    mat = frame.momentum_map.differential_rows(frame.point).T  # (2n, d), d = 0 included
    xi1, _, _, _ = np.linalg.lstsq(mat, target, rcond=None)
    residual = float(np.linalg.norm(mat @ xi1 - target))
    if residual > VELOCITY_TOL * (1.0 + float(np.linalg.norm(target))):
        raise NotRelativeEquilibrium(
            f"critical-point residual {residual:.3e} exceeds tolerance; "
            "the point is not a relative equilibrium"
        )
    return VelocityFamily(xi1=xi1, directions=frame.isotropy, residual=residual)


def require_velocity(mm, hamiltonian, p, xi):
    """Raise PreconditionViolated unless xi is a velocity of p for momentum map ``mm``."""
    res = _velocity_residual(mm, hamiltonian, p, xi)
    bound = VELOCITY_TOL * (1.0 + float(np.linalg.norm(hamiltonian.gradient(p))))
    if not res <= bound:  # a NaN residual is rejected too
        raise PreconditionViolated(f"xi is not a velocity of p (residual {res:.3e} > {bound:.3e})")


def augmented_hessian(mm, hamiltonian, p, xi):
    """d2h(p) - d2J_xi(p) on the whole phase space, for momentum map ``mm``."""
    d2j = np.einsum("i,imn->mn", np.asarray(xi, dtype=float), mm.component_hessians())
    return hamiltonian.hessian(p) - d2j


def restricted_hessian(space, algebra, hamiltonian, p, xi, frame, check=True):
    """B^T (d2h(p) - d2J_xi(p)) B for B the slice basis of ``frame``, whose
    momentum map supplies d2J."""
    p = space.check_point(p)
    if check:
        require_velocity(frame.momentum_map, hamiltonian, p, xi)
    q = augmented_hessian(frame.momentum_map, hamiltonian, p, xi)
    b = frame.basis_n
    h = b.T @ q @ b
    return 0.5 * (h + h.T)


def orthogonal_velocity(family, algebra_metric):
    """The unique family member orthogonal to the isotropy algebra.

    This is the baseline velocity of the splitting-based criteria; the
    projection uses the supplied positive-definite metric on coordinates.
    """
    if family.dim == 0:
        return family.xi1.copy()
    metric = np.asarray(algebra_metric, dtype=float)
    hb = family.directions.basis  # (m, d)
    gram = hb @ metric @ hb.T
    coef = np.linalg.solve(gram, hb @ metric @ family.xi1)
    return family.xi1 - hb.T @ coef


def _min_eig_supergradient(hmat, direction_mats, cluster_tol=1e-8):
    """Supergradient of s -> lambda_min(H(s)) at the current matrix.

    At a simple minimal eigenvalue this is (u^T dH/ds_i u); at clustered
    spectra the eigenvector contributions over the minimal eigenspace are
    averaged, which is a valid supergradient of the concave objective.
    """
    w, u = np.linalg.eigh(hmat)
    scale = max(1.0, float(np.abs(w).max()))
    members = np.nonzero(w <= w[0] + cluster_tol * scale)[0]
    cols = u[:, members]
    grad = np.array([np.mean(np.einsum("ij,jk,ki->i", cols.T, d, cols)) for d in direction_mats])
    return float(w[0]), grad


def _combine(h0, mats, s):
    """The family member h0 + sum_k s_k mats[k] of restricted Hessians."""
    h = h0.copy()
    for k in range(len(mats)):
        h += s[k] * mats[k]
    return h


def _certificate(hm, xi, h0, compact, boundary=False):
    """The verdict rule: STABLE when hm is definite, vacuously so on an empty slice.

    ``hm`` is the restricted Hessian at velocity ``xi`` and ``h0`` the one at
    the family's base velocity xi1.
    """
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
        margin=float(np.abs(spectrum).min()) if spectrum.size else np.inf,
        compactness_verified=compact,
        inertia_at_xi1=inertia(h0, DEFINITENESS_TOL),
        boundary_hit=boundary,
    )


def _ascend_lambda_min(h0, direction_mats, rng, restarts, box, max_iter):
    """Projected supergradient ascent of lambda_min over the box |s|_inf <= box."""
    m = len(direction_mats)

    def value(s):
        return float(np.linalg.eigvalsh(_combine(h0, direction_mats, s))[0])

    if m == 0:
        s0 = np.zeros(0)
        return s0, value(s0), False

    starts = [np.zeros(m)]
    starts.extend(rng.uniform(-box, box, size=(restarts, m)))
    best_s, best_val = np.zeros(m), -np.inf
    for s0 in starts:
        s = np.asarray(s0, dtype=float).copy()
        val = value(s)
        step = 1.0 + float(np.abs(s).max())
        for _ in range(max_iter):
            _, grad = _min_eig_supergradient(_combine(h0, direction_mats, s), direction_mats)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-15:
                break
            direction = grad / gnorm
            improved = False
            while step > 1e-13 * (1.0 + float(np.abs(s).max())):
                trial = np.clip(s + step * direction, -box, box)
                tval = value(trial)
                if tval > val:
                    s, val = trial, tval
                    step = min(step * 2.0, box)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if val > best_val:
            best_s, best_val = s, val
    boundary = bool(np.any(np.abs(best_s) >= box * (1.0 - 1e-9)))
    return best_s, best_val, boundary


def definiteness_search(hamiltonian, family, frame, rng=None):
    """Search the affine family for a definite restricted Hessian.

    Maximizes lambda_min(H(s)) and lambda_min(-H(s)) separately by projected
    supergradient ascent with random restarts (s = 0 always included), keeps
    the optimum with the larger scaled value, and judges it by the verdict
    rule of ``_certificate``.  ``family`` comes from ``solve_velocities`` on
    the same frame, which has already checked xi1.  INCONCLUSIVE makes no
    instability claim (the criterion is sufficient only).
    """
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(42 if rng is None else int(rng))
    mm = frame.momentum_map
    h0 = restricted_hessian(mm.space, mm.algebra, hamiltonian, frame.point, family.xi1, frame, check=False)
    compact = compactness_certificate(mm.algebra, mm.space.metric)
    if h0.shape[0] == 0:
        return _certificate(h0, family.xi1.copy(), h0, compact)

    hessians = mm.component_hessians()
    d = -(frame.basis_n.T @ np.einsum("ki,imn->kmn", family.directions.basis, hessians) @ frame.basis_n)
    direction_mats = 0.5 * (d + d.transpose(0, 2, 1))

    def scaled(optimum):
        s, value, _ = optimum
        return value / max(1.0, float(np.abs(_combine(h0, direction_mats, s)).max()))

    pos = _ascend_lambda_min(h0, direction_mats, rng, SEARCH_RESTARTS, SEARCH_BOX, SEARCH_MAX_ITER)
    neg = _ascend_lambda_min(-h0, -direction_mats, rng, SEARCH_RESTARTS, SEARCH_BOX, SEARCH_MAX_ITER)
    s_best, _, boundary = pos if scaled(pos) >= scaled(neg) else neg
    hm = _combine(h0, direction_mats, s_best)
    return _certificate(hm, family.member(s_best), h0, compact, boundary)


def velocity_certificate(hamiltonian, family, frame, xi):
    """Certificate at one fixed velocity xi of ``family``, without a search.

    Raises DimensionMismatch when xi has the wrong length and
    PreconditionViolated when it is not a velocity of the frame's point.
    """
    mm = frame.momentum_map
    xi = np.asarray(xi, dtype=float)
    hm = restricted_hessian(mm.space, mm.algebra, hamiltonian, frame.point, xi, frame)
    h0 = restricted_hessian(mm.space, mm.algebra, hamiltonian, frame.point, family.xi1, frame, check=False)
    return _certificate(hm, xi, h0, compactness_certificate(mm.algebra, mm.space.metric))
