"""Momentum maps for linear symplectic actions.

Each generator A_i contributes the quadratic component
J_i(x) = -1/2 x^T Omega A_i x, normalized with zero constant term.
The sign is pinned by the differential identity
grad J_i(x) . v = omega(A_i x, v), which the test suite asserts.
"""

import numpy as np

from .errors import DimensionMismatch
from .linalg import nullspace, orthonormalize
from .phase_space import Poly
from .symmetry import Subalgebra

INVARIANCE_SAMPLES = 100


def momentum_isotropy_algebra(algebra, mu):
    """k = nullspace of eta -> ad*_eta mu (isotropy of mu in the coadjoint action)."""
    mu = np.asarray(mu, dtype=float)
    d = algebra.dim
    if d == 0:
        return Subalgebra(basis=np.zeros((0, 0)))
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

    def component(self, i):
        """J_{e_i} as an exact polynomial."""
        return Poly.quadratic_form(self._quad[i])

    def value(self, x):
        """J(x) in the dual-generator basis; batched over leading axes."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.space.dim:
            raise DimensionMismatch(f"point of length {x.shape[-1]}, expected {self.space.dim}")
        if self.algebra.dim == 0:
            return np.zeros(x.shape[:-1] + (0,))
        return np.einsum("...m,imn,...n->...i", x, self._quad, x)

    __call__ = value

    def component_hessians(self):
        """Array (d, 2n, 2n) of the constant Hessians of the J_i."""
        return 2.0 * self._quad

    def differential_rows(self, p):
        """Rows grad J_i(p); their common kernel is ker dJ(p)."""
        p = self.space.check_point(p)
        if self.algebra.dim == 0:
            return np.zeros((0, self.space.dim))
        return 2.0 * np.einsum("imn,n->im", self._quad, p)

    def kernel_basis(self, p):
        """Metric-orthonormal basis (columns) of ker dJ(p)."""
        null = nullspace(self.differential_rows(p))
        return orthonormalize(null, gram=self.space.metric)


def invariance_residual(space, algebra, hamiltonian):
    """Max of |grad h(x) . (A_i x)| over INVARIANCE_SAMPLES seeded random
    points and every generator.

    Zero (to rounding) iff h is invariant under the identity component of the
    generated group.
    """
    if algebra.dim == 0:
        return 0.0
    x = np.random.default_rng(0).standard_normal((INVARIANCE_SAMPLES, space.dim))
    moved = np.einsum("imn,sn->ism", algebra.generators, x)
    return float(np.abs(np.einsum("sm,ism->is", hamiltonian.gradient(x), moved)).max(initial=0.0))
