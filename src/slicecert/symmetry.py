"""Lie algebras of linear symplectic symmetry generators.

Generators are Hamiltonian matrices A with A^T Omega + Omega A = 0; the
element xi acts as A(xi) = sum_i xi_i A_i.  Structure constants satisfy
[A_i, A_j] = sum_k c[i,j,k] A_k.  Subalgebra bases are kept orthonormal in
the Frobenius inner product of the generator matrices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotClosedUnderBracket,
    SubalgebraNotContained,
    ValidationError,
)
from .linalg import degenerate, nullspace, orthonormalize

# Relative to the data judged: |A_i| |Omega|, |A_i| |A_j| and |A_i| |metric|,
# each |.| the largest absolute entry.
HAMILTONIAN_TOL = 1e-12
CLOSURE_TOL = 1e-10
SUBALGEBRA_TOL = 1e-9
COMPACTNESS_TOL = 1e-10


def _skewness(gens, form):
    """|A_i^T S + S A_i| / (|A_i| |S|) for each generator A_i of the stack
    ``gens`` and the form S, each |.| the largest absolute entry: 0 iff A_i
    is skew for S, and unchanged by any rescaling of A_i or S."""
    residuals = np.abs(gens.transpose(0, 2, 1) @ form + form @ gens).max(axis=(1, 2))
    return residuals / (np.abs(gens).max(axis=(1, 2)) * np.abs(form).max())


def derive_structure_constants(generators):
    """Expand each commutator in the generator basis by least squares.

    Raises NotClosedUnderBracket if the expansion residual of [A_i, A_j]
    exceeds CLOSURE_TOL |A_i| |A_j| (the input does not span a Lie algebra).
    """
    gens = np.asarray(generators, dtype=float)
    d = gens.shape[0]
    structure = np.zeros((d, d, d))
    if d == 0:
        return structure
    sizes = np.abs(gens).max(axis=(1, 2))
    flat = gens.reshape(d, -1).T  # columns = flattened generators
    pinv = np.linalg.pinv(flat)
    for i in range(d):
        for j in range(i + 1, d):
            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
            coeffs = pinv @ comm.ravel()
            residual = np.abs(flat @ coeffs - comm.ravel()).max()
            if residual > CLOSURE_TOL * sizes[i] * sizes[j]:
                raise NotClosedUnderBracket(
                    f"commutator [A_{i}, A_{j}] leaves the generator span (residual {residual:.3e})"
                )
            structure[i, j] = coeffs
            structure[j, i] = -coeffs
    return structure


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Generators of the symmetry algebra plus their structure constants."""

    generators: np.ndarray  # (d, 2n, 2n)
    structure: np.ndarray   # (d, d, d)

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=float)
        struct = np.asarray(self.structure, dtype=float)
        gens.setflags(write=False)
        struct.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "structure", struct)
        object.__setattr__(self, "_gram", None)

    @classmethod
    def build(cls, space, generators, structure=None):
        """Validate generators against ``space`` and derive their structure
        constants.  Supplied ones are only checked against the derived
        brackets: a wrong shape raises DimensionMismatch, and a bracket
        [A_i, A_j] that differs by more than CLOSURE_TOL |A_i| |A_j| raises
        NotClosedUnderBracket."""
        dim = space.dim
        gens = np.asarray(generators, dtype=float)
        if gens.size == 0:
            gens = np.zeros((0, dim, dim))
        if gens.ndim != 3 or gens.shape[1:] != (dim, dim):
            raise DimensionMismatch(f"generators must have shape (d, {dim}, {dim}), got {gens.shape}")
        d = gens.shape[0]
        # the one nondegeneracy rule, so a zero stack is dependent at any scale
        if d and degenerate(gens.reshape(d, -1)):
            raise ValidationError("generators are linearly dependent")
        skewness = _skewness(gens, space.omega)
        if (skewness > HAMILTONIAN_TOL).any():
            i = int(np.argmax(skewness))
            raise ValidationError(
                f"generator {i} is not Hamiltonian: "
                f"|A^T Omega + Omega A| / (|A| |Omega|) = {skewness[i]:.3e}"
            )
        struct = derive_structure_constants(gens)
        if structure is not None:
            supplied = np.asarray(structure, dtype=float)
            # an empty table, of any shape, is the empty algebra's
            if supplied.shape != struct.shape and not supplied.size == struct.size == 0:
                raise DimensionMismatch(f"structure constants must have shape ({d},{d},{d})")
            # each supplied bracket sum_k c[i,j,k] A_k against the derived one
            difference = supplied.reshape(struct.shape) - struct
            residuals = np.abs(np.tensordot(difference, gens, axes=1)).max(axis=(2, 3))
            sizes = np.abs(gens).max(axis=(1, 2))
            if not (residuals <= CLOSURE_TOL * np.outer(sizes, sizes)).all():  # NaN fails too
                raise NotClosedUnderBracket(
                    f"supplied structure constants do not match the brackets [A_i, A_j] "
                    f"(residual {residuals.max():.3e})"
                )
        return cls(generators=gens, structure=struct)

    @property
    def dim(self):
        return self.generators.shape[0]

    @property
    def ambient_dim(self):
        return self.generators.shape[1] if self.generators.ndim == 3 else 0

    def matrix(self, xi):
        """A(xi) = sum_i xi_i A_i."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.dim,):
            raise DimensionMismatch(f"algebra vector of shape {xi.shape}, expected ({self.dim},)")
        return np.tensordot(xi, self.generators, axes=1)

    def act(self, xi, x):
        """Infinitesimal action A(xi) x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise DimensionMismatch(f"point of shape {x.shape}, expected ({self.ambient_dim},)")
        return self.matrix(xi) @ x

    def bracket(self, xi, eta):
        """[xi, eta] in generator coordinates."""
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        return np.einsum("i,j,ijk->k", xi, eta, self.structure)

    def orbit_matrix(self, p):
        """Columns A_i p spanning the tangent space to the orbit at p."""
        p = np.asarray(p, dtype=float)
        return np.einsum("imn,n->mi", self.generators, p)

    def gram(self):
        """Frobenius inner-product matrix of the generators."""
        if self._gram is None:
            object.__setattr__(self, "_gram", np.einsum("imn,jmn->ij", self.generators, self.generators))
        return self._gram


@dataclass(frozen=True)
class Subalgebra:
    """A subalgebra given by basis rows, orthonormal in the algebra Gram."""

    basis: np.ndarray  # (m, d)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_vectors(cls, algebra, vectors):
        vectors = np.asarray(vectors, dtype=float).reshape(len(vectors), algebra.dim)
        onb = orthonormalize(vectors.T, gram=algebra.gram()).T
        sub = cls(basis=onb)
        sub.check_closed(algebra)
        return sub

    @property
    def dim(self):
        return self.basis.shape[0]

    def outside(self, algebra, v):
        """The component outside the subalgebra, orthogonal to it in the
        algebra Gram, of each vector along the last axis of ``v``."""
        v = np.asarray(v, dtype=float)
        return v - v @ algebra.gram() @ self.basis.T @ self.basis

    def containment_residual(self, algebra, v):
        """The Gram norm of ``outside`` for each vector along the last axis."""
        r = self.outside(algebra, v)
        return np.sqrt(np.maximum(np.einsum("...i,ij,...j->...", r, algebra.gram(), r), 0.0))

    def check_closed(self, algebra):
        if self.dim < 2:  # every bracket in a line or a point is zero
            return
        brackets = np.einsum("ai,bj,ijk->abk", self.basis, self.basis, algebra.structure)
        residuals = self.containment_residual(algebra, brackets)
        if (residuals > SUBALGEBRA_TOL * (1.0 + np.linalg.norm(brackets, axis=-1))).any():
            raise ValidationError(
                f"subalgebra is not closed under the bracket (residual {residuals.max():.3e})"
            )


def isotropy_algebra(algebra, p):
    """Lie algebra of the stabilizer of p: nullspace of xi -> A(xi) p."""
    mat = algebra.orbit_matrix(np.asarray(p, dtype=float))
    null = nullspace(mat)  # columns in R^d
    return Subalgebra.from_vectors(algebra, null.T)


def normalizer_algebra(algebra, sub_h, sub_k):
    """n = {xi in k : [xi, h] subset h}.

    Computed as the nullspace of xi -> (component of [xi, h_i] outside h),
    from one table of the brackets [k_a, h_i]: the (dim h * d, dim k)
    matrix whose column a stacks the components outside h of [k_a, h_i]
    over i.  An empty h leaves no rows, so n = k.  Raises
    SubalgebraNotContained unless h is contained in k.
    """
    if (sub_k.containment_residual(algebra, sub_h.basis) > SUBALGEBRA_TOL).any():
        raise SubalgebraNotContained("h is not contained in k")
    brackets = np.einsum("ai,bj,ijk->abk", sub_k.basis, sub_h.basis, algebra.structure)
    outside = sub_h.outside(algebra, brackets)
    null = nullspace(outside.transpose(1, 2, 0).reshape(sub_h.dim * algebra.dim, sub_k.dim))
    vectors = (sub_k.basis.T @ null).T
    return Subalgebra.from_vectors(algebra, vectors)


def compactness_certificate(algebra, metric):
    """True iff every generator is skew-symmetric for ``metric``, to
    COMPACTNESS_TOL relative to |A_i| |metric| (``_skewness``).

    This is a sufficient condition: it bounds the generated group inside the
    metric's orthogonal group, so its closure (and every isotropy subgroup)
    is compact.  False is a verdict, not an error.
    """
    skewness = _skewness(algebra.generators, np.asarray(metric, dtype=float))
    return bool((skewness <= COMPACTNESS_TOL).all())
