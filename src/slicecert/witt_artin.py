"""Witt-Artin decomposition and the symplectic slice at a point.

The tangent space splits as T0 + T + N + N0 where T0 = k.p is isotropic,
T realizes the remaining group directions, N realizes the symplectic slice
ker dJ(p) / k.p, and N0 pairs with T0 under the symplectic form.  Each basis
is metric-orthonormal: the metric is factored once, M = L L^T, and every
basis is found Euclidean-orthonormal in the whitened coordinates L^T x.
The slice is realized as the metric-orthogonal complement of k.p inside
ker dJ(p); any other complement yields a restricted Hessian with the same
inertia, which the tests check against a random complement and against the
descent residual in ``tests/reference.py``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSliceForm, ValidationError
from .linalg import degenerate, nullspace, orthonormalize, rank, singular_ratio
from .momentum import MomentumMap, momentum_isotropy_algebra
from .symmetry import Subalgebra, isotropy_algebra


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

    In whitened coordinates, T0 is the span of k.p, T that of g.p and N that
    of ker dJ(p) (one ``nullspace``), T and N each with T0 projected out.
    One SVD of the union of T0, T and N decides its rank, and its left
    singular vectors past that rank span N0.  The four bases are mapped back
    through L^-T.

    With ``rng`` given, the slice is realized through a random complement of
    k.p inside ker dJ(p) instead of the metric-orthogonal one; downstream
    inertia results must not depend on that choice.
    """
    p = space.check_point(p)
    sub_h = isotropy_algebra(algebra, p)
    mm = MomentumMap(space, algebra)
    mu = mm.value(p)
    sub_k = momentum_isotropy_algebra(algebra, mu)

    lt = np.linalg.cholesky(space.metric).T
    k_orbit = np.array([algebra.act(xi, p) for xi in sub_k.basis]).reshape(sub_k.dim, space.dim).T
    w_t0 = orthonormalize(lt @ k_orbit)
    w_t = orthonormalize(lt @ algebra.orbit_matrix(p), against=w_t0)
    w_n = orthonormalize(lt @ nullspace(mm.differential_rows(p)), against=w_t0)
    if rng is not None and w_t0.shape[1] and w_n.shape[1]:
        w_n = orthonormalize(w_n + w_t0 @ rng.standard_normal((w_t0.shape[1], w_n.shape[1])))
    # T and N are each orthogonal to T0 but not to one another, so the rank
    # of their union is decided here, once.
    u, sigma, _ = np.linalg.svd(np.column_stack([w_t0, w_t, w_n]))
    w_n0 = u[:, rank(sigma, sigma.max(initial=0.0)) :]
    basis_t0, basis_t, basis_n, basis_n0 = (np.linalg.solve(lt, w) for w in (w_t0, w_t, w_n, w_n0))
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
        if iso > 1e-10 * np.abs(space.omega).max():
            raise ValidationError(f"T0 is not isotropic (residual {iso:.3e})")
        pairing = basis_t0.T @ space.omega @ basis_n0
        if degenerate(pairing):
            raise ValidationError(
                "symplectic pairing of T0 with N0 is degenerate "
                f"(sigma_min/sigma_max {singular_ratio(pairing):.3e})"
            )
    if dims[2]:
        form = basis_n.T @ space.omega @ basis_n
        if degenerate(form):
            raise DegenerateSliceForm(
                f"symplectic form on the slice is degenerate (sigma_min/sigma_max {singular_ratio(form):.3e})"
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
