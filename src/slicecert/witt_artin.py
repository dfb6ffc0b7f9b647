"""Witt-Artin decomposition and the symplectic slice at a point.

The tangent space splits as T0 + T + N + N0 where T0 = k.p is isotropic,
T realizes the remaining group directions, N realizes the symplectic slice
ker dJ(p) / k.p, and N0 pairs with T0 under the symplectic form.  Each basis
is metric-orthonormal, from one whitened SVD (``linalg.orthonormalize``).
The slice is realized as the metric-orthogonal complement of k.p inside
ker dJ(p); any other complement yields a restricted Hessian with the same
inertia, which the tests check against a random complement and against the
descent residual in ``tests/reference.py``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSliceForm, ValidationError
from .linalg import orthonormalize
from .momentum import MomentumMap, momentum_isotropy_algebra
from .symmetry import Subalgebra, isotropy_algebra

SLICE_DET_TOL = 1e-9
PAIRING_TOL = 1e-9


@dataclass(frozen=True)
class WittArtinFrame:
    """Concrete bases (columns) realizing the four subspaces at one point,
    with the point-level objects they were built from: the momentum map,
    mu = J(p), and the isotropy algebras h of p and k of mu."""

    point: np.ndarray
    momentum_map: MomentumMap
    mu: np.ndarray
    basis_t0: np.ndarray
    basis_t: np.ndarray
    basis_n: np.ndarray
    basis_n0: np.ndarray
    isotropy: Subalgebra
    momentum_isotropy: Subalgebra

    @property
    def dims(self):
        return (
            self.basis_t0.shape[1],
            self.basis_t.shape[1],
            self.basis_n.shape[1],
            self.basis_n0.shape[1],
        )


def witt_artin_frame(space, algebra, p, rng=None):
    """Build the decomposition at p.

    With ``rng`` given, the slice is realized through a random complement of
    k.p inside ker dJ(p) instead of the metric-orthogonal one; downstream
    inertia results must not depend on that choice.
    """
    p = space.check_point(p)
    metric = space.metric
    sub_h = isotropy_algebra(algebra, p)
    mm = MomentumMap(space, algebra)
    mu = mm.value(p)
    sub_k = momentum_isotropy_algebra(algebra, mu)

    k_orbit = (
        np.column_stack([algebra.act(sub_k.basis[i], p) for i in range(sub_k.dim)])
        if sub_k.dim
        else np.zeros((space.dim, 0))
    )
    basis_t0 = orthonormalize(k_orbit, gram=metric)
    basis_t = orthonormalize(algebra.orbit_matrix(p), gram=metric, against=basis_t0)
    kernel = mm.kernel_basis(p)
    basis_n = orthonormalize(kernel, gram=metric, against=basis_t0)
    if rng is not None and basis_t0.shape[1] and basis_n.shape[1]:
        shift = rng.standard_normal((basis_t0.shape[1], basis_n.shape[1]))
        basis_n = orthonormalize(basis_n + basis_t0 @ shift, gram=metric)
    # T and N are each orthogonal to T0 but not to one another; orthonormalize
    # the union before complementing so the rank of g.p + ker dJ(p) is exact.
    spanned = orthonormalize(np.column_stack([basis_t0, basis_t, basis_n]), gram=metric)
    basis_n0 = orthonormalize(np.eye(space.dim), gram=metric, against=spanned)

    dims = (basis_t0.shape[1], basis_t.shape[1], basis_n.shape[1], basis_n0.shape[1])
    expected = (
        sub_k.dim - sub_h.dim,
        algebra.dim - sub_k.dim,
        space.dim - (algebra.dim - sub_h.dim) - (sub_k.dim - sub_h.dim),
        sub_k.dim - sub_h.dim,
    )
    if dims != expected or sum(dims) != space.dim:
        raise ValidationError(
            f"Witt-Artin dimension identities failed: got {dims}, expected {expected}"
        )

    if dims[0]:
        iso = np.abs(basis_t0.T @ space.omega @ basis_t0).max()
        if iso > 1e-10:
            raise ValidationError(f"T0 is not isotropic (residual {iso:.3e})")
        pairing = basis_t0.T @ space.omega @ basis_n0
        smallest = np.linalg.svd(pairing, compute_uv=False).min()
        if smallest <= PAIRING_TOL:
            raise ValidationError(
                f"symplectic pairing of T0 with N0 is degenerate (sigma_min {smallest:.3e})"
            )
    if dims[2]:
        det = np.linalg.det(basis_n.T @ space.omega @ basis_n)
        if abs(det) <= SLICE_DET_TOL:
            raise DegenerateSliceForm(
                f"symplectic form on the slice is degenerate (|det| = {abs(det):.3e})"
            )

    return WittArtinFrame(
        point=p,
        momentum_map=mm,
        mu=mu,
        basis_t0=basis_t0,
        basis_t=basis_t,
        basis_n=basis_n,
        basis_n0=basis_n0,
        isotropy=sub_h,
        momentum_isotropy=sub_k,
    )
