"""Momentum maps for linear symplectic actions.

Each generator A_i contributes the quadratic component
J_i(x) = -1/2 x^T Omega A_i x, normalized with zero constant term.
The sign is pinned by the differential identity
grad J_i(x) . v = omega(A_i x, v), which the test suite asserts.
"""

import numpy as np

from .errors import DimensionMismatch
from .linalg import nullspace
from .symmetry import Subalgebra

INVARIANCE_SAMPLES = 100


def momentum_isotropy_algebra(algebra, mu):
    """k = nullspace of eta -> ad*_eta mu (isotropy of mu in the coadjoint action)."""
    mu = np.asarray(mu, dtype=float)
    # column a is ad*_{e_a} mu
    mat = -np.einsum("aji,i->ja", algebra.structure, mu)
    null = nullspace(mat)
    return Subalgebra.from_vectors(algebra, null.T)


class MomentumMap:
    """Momentum map of a linear action, with cached quadratic data."""

    def __init__(self, space, algebra):
        self.space = space
        self.algebra = algebra
        d = algebra.dim
        n = space.dim
        self._quad = np.zeros((d, n, n))
        for i in range(d):
            s = -0.5 * (space.omega @ algebra.generators[i])
            self._quad[i] = 0.5 * (s + s.T)  # symmetric up to rounding for Hamiltonian A_i

    @property
    def dim(self):
        return self.algebra.dim

    def value(self, x):
        """J(x) in the dual-generator basis; batched over leading axes."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.space.dim:
            raise DimensionMismatch(f"point of length {x.shape[-1]}, expected {self.space.dim}")
        return np.einsum("...m,imn,...n->...i", x, self._quad, x)

    __call__ = value

    def component_hessians(self):
        """Array (d, 2n, 2n) of the constant Hessians of the J_i."""
        return 2.0 * self._quad

    def differential_rows(self, p):
        """Rows grad J_i(p); their common kernel is ker dJ(p)."""
        p = self.space.check_point(p)
        return 2.0 * np.einsum("imn,n->im", self._quad, p)


def invariance_residual(space, algebra, hamiltonian):
    """Max of |grad h(x) . (A_i x)| over INVARIANCE_SAMPLES seeded random
    points and every generator, relative to the largest
    |grad h(x)|_2 |A_i x|_2 over the same points and generators, so that it
    is at most 1 and does not change when h or a generator is scaled.

    Zero (to rounding) iff h is invariant under the identity component of the
    generated group; zero also when grad h or every A_i x vanishes at every
    sample.
    """
    if algebra.dim == 0:
        return 0.0
    x = np.random.default_rng(0).standard_normal((INVARIANCE_SAMPLES, space.dim))
    grad = hamiltonian.gradient(x)
    moved = np.einsum("imn,sn->ism", algebra.generators, x)
    scale = (np.linalg.norm(grad, axis=1) * np.linalg.norm(moved, axis=2)).max()
    residual = np.abs(np.einsum("sm,ism->is", grad, moved)).max()
    return float(residual / scale) if scale > 0.0 else 0.0
