"""Reference computations that only the tests use.

These restate pieces of the theory (the symplectic form and metric norm of
a space, polynomial evaluation as one gathered product, the augmented
Hessian, the slice form and slice momentum, the descent property, the
coadjoint action, the group exponential, the Hamiltonian vector field, the
step-by-step linear midpoint rule) so that tests can check the pipeline
against them, and ``count_calls`` counts how often the pipeline calls a
function.  Nothing in ``slicecert`` calls them.
"""

import sys

import numpy as np
import scipy.linalg

from slicecert.certify import require_velocity
from slicecert.errors import DegenerateSliceForm, DimensionMismatch, PreconditionViolated
from slicecert.momentum import MomentumMap, momentum_isotropy_algebra
from slicecert.symmetry import SUBALGEBRA_TOL
from slicecert.witt_artin import SLICE_DET_TOL

KERNEL_TOL = 1e-10


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name``: on a class, or in every slicecert module
    that imported the function by name."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
    else:
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("slicecert") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def omega_form(space, u, v):
    """omega(u, v) = u^T Omega v."""
    return float(np.asarray(u) @ space.omega @ np.asarray(v))


def metric_norm(space, v):
    """sqrt(v^T M v) for the metric M of ``space``."""
    return float(np.sqrt(max(float(np.asarray(v) @ space.metric @ np.asarray(v)), 0.0)))


def gathered_product_value(poly, x):
    """``poly.value(x)`` from one gathered (points, degree, monomials) block
    reduced by ``prod(axis=-2)``; ``Poly.value`` multiplies the degree rows
    in place instead and must give the same bits."""
    index, coeffs = poly._arrays()
    padded = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    monomials = np.take(padded, index, axis=-1).prod(axis=-2)
    if coeffs.ndim == 2:
        monomials = monomials[..., None, :]
    out = (monomials * coeffs).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def augmented_hessian(mm, hamiltonian, p, xi):
    """d2h(p) - d2J_xi(p) on the whole phase space, for momentum map ``mm``."""
    d2j = np.einsum("i,imn->mn", np.asarray(xi, dtype=float), mm.component_hessians())
    return hamiltonian.hessian(p) - d2j


def group_exp(algebra, xi, t=1.0):
    """exp(t A(xi)); symplectic whenever A(xi) is Hamiltonian."""
    return scipy.linalg.expm(float(t) * algebra.matrix(xi))


def hamiltonian_vector_field(space, hamiltonian, x):
    """X_h(x) = Omega^{-1} grad h(x); satisfies x1' = dh/dy1 in canonical
    2d coordinates and conserves h and every momentum component."""
    x = space.check_point(x)
    return space.omega_inverse() @ hamiltonian.gradient(x)


def linear_midpoint_steps(space, hamiltonian, x0, dt, steps):
    """Implicit midpoint trajectory of a quadratic h, one step at a time:
    x + (D x + c) with D = (I - dt/2 L)^-1 dt L and c the matching shift."""
    n = space.dim
    omega_inv = space.omega_inverse()
    lmat = omega_inv @ hamiltonian.hessian(np.zeros(n))
    shift = dt * (omega_inv @ hamiltonian.gradient(np.zeros(n)))
    prop = np.linalg.solve(np.eye(n) - 0.5 * dt * lmat, np.column_stack([dt * lmat, shift]))
    mat, const = prop[:, :n], prop[:, n]
    traj = np.empty((steps + 1, n))
    traj[0] = x = np.asarray(x0, dtype=float)
    for k in range(steps):
        x = x + (mat @ x + const)
        traj[k + 1] = x
    return traj


def adstar_matrix(algebra, eta):
    """Matrix of mu -> ad*_eta mu, where <ad*_eta mu, xi> = -<mu, [eta, xi]>."""
    eta = np.asarray(eta, dtype=float)
    if algebra.dim == 0:
        return np.zeros((0, 0))
    return -np.einsum("a,aji->ji", eta, algebra.structure)


def ad_star(algebra, eta, mu):
    """Infinitesimal coadjoint action ad*_eta mu; bilinear in (eta, mu)."""
    mu = np.asarray(mu, dtype=float)
    return adstar_matrix(algebra, eta) @ mu


def equivariance_residual(mm, x, eta, t):
    """|J(exp(tA(eta)) x) - Coad_{exp(t eta)} J(x)| for the momentum map mm.

    The coadjoint transport is the propagator of mu' = ad*_eta mu, i.e.
    expm of the constant ad* matrix.
    """
    x = mm.space.check_point(x)
    eta = np.asarray(eta, dtype=float)
    moved = mm.value(group_exp(mm.algebra, eta, t) @ x)
    if mm.algebra.dim == 0:
        return 0.0
    transport = scipy.linalg.expm(float(t) * adstar_matrix(mm.algebra, eta))
    return float(np.linalg.norm(moved - transport @ mm.value(x)))


def slice_symplectic_form(space, frame):
    """Antisymmetric matrix omega(n_i, n_j) over the slice basis."""
    b = frame.basis_n
    m = b.T @ space.omega @ b
    m = 0.5 * (m - m.T)
    if m.shape[0] and abs(np.linalg.det(m)) <= SLICE_DET_TOL:
        raise DegenerateSliceForm(f"slice symplectic form degenerate (|det| = {abs(np.linalg.det(m)):.3e})")
    return m


def slice_momentum_map(space, algebra, frame, v):
    """Homogeneous quadratic momentum of the slice, valued in the dual of
    the isotropy algebra (components along the frame's isotropy basis)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (frame.basis_n.shape[1],):
        raise DimensionMismatch(
            f"slice vector of shape {v.shape}, expected ({frame.basis_n.shape[1]},)"
        )
    w = frame.basis_n @ v
    out = np.zeros(frame.isotropy.dim)
    for i in range(frame.isotropy.dim):
        a = algebra.matrix(frame.isotropy.basis[i])
        out[i] = -0.5 * float(w @ space.omega @ (a @ w))
    return out


def descent_residual(space, algebra, hamiltonian, p, xi, v, eta):
    """|Q(v + eta.p, v + eta.p) - Q(v, v)| for Q = d2h(p) - d2J_xi(p).

    The theory guarantees zero whenever xi is a velocity, v lies in
    ker dJ(p), and eta lies in the momentum isotropy algebra; the returned
    value is the numerical residual.
    """
    p = space.check_point(p)
    v = np.asarray(v, dtype=float)
    eta = np.asarray(eta, dtype=float)
    mm = MomentumMap(space, algebra)

    rows = mm.differential_rows(p)
    if rows.size:
        kr = float(np.linalg.norm(rows @ v))
        if kr > KERNEL_TOL * (1.0 + float(np.linalg.norm(v))):
            raise PreconditionViolated(f"v is outside ker dJ(p) (residual {kr:.3e})")
    require_velocity(mm, hamiltonian.gradient(p), p, xi)
    sub_k = momentum_isotropy_algebra(algebra, mm.value(p))
    if sub_k.containment_residual(algebra, eta) > SUBALGEBRA_TOL * (1.0 + float(np.linalg.norm(eta))):
        raise PreconditionViolated("eta is outside the momentum isotropy algebra")

    q = augmented_hessian(mm, hamiltonian, p, xi)
    w = v + algebra.act(eta, p)
    return abs(float(w @ q @ w) - float(v @ q @ v))
