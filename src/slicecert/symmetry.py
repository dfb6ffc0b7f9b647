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
from .linalg import RANK_TOL, nullspace, orthonormalize

# Relative to the data judged: |A_i| |Omega| and |A_i| |A_j|, each |.| the
# largest absolute entry.
HAMILTONIAN_TOL = 1e-12
CLOSURE_TOL = 1e-10
SUBALGEBRA_TOL = 1e-9
COMPACTNESS_TOL = 1e-10


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
        if d:
            # scale-free: sigma > RANK_TOL * sigma_max, so a zero stack has rank 0
            sigma = np.linalg.svd(gens.reshape(d, -1), compute_uv=False)
            if np.count_nonzero(sigma > RANK_TOL * sigma[0]) != d:
                raise ValidationError("generators are linearly dependent")
        omega = space.omega
        sizes = np.abs(gens).max(axis=(1, 2))
        bound = HAMILTONIAN_TOL * np.abs(omega).max()
        for i in range(d):
            residual = np.abs(gens[i].T @ omega + omega @ gens[i]).max()
            if residual > bound * sizes[i]:
                raise ValidationError(
                    f"generator {i} is not Hamiltonian: |A^T Omega + Omega A| = {residual:.3e}"
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

    def project(self, algebra, v):
        """Orthogonal projection of ``v`` onto the subalgebra."""
        coords = self.basis @ algebra.gram() @ np.asarray(v, dtype=float)
        return self.basis.T @ coords

    def containment_residual(self, algebra, v):
        v = np.asarray(v, dtype=float)
        r = v - self.project(algebra, v)
        return float(np.sqrt(max(r @ algebra.gram() @ r, 0.0)))

    def check_closed(self, algebra):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                b = algebra.bracket(self.basis[i], self.basis[j])
                residual = self.containment_residual(algebra, b)
                if residual > SUBALGEBRA_TOL * (1.0 + float(np.linalg.norm(b))):
                    raise ValidationError(
                        f"subalgebra is not closed under the bracket (residual {residual:.3e})"
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
    for i in range(sub_h.dim):
        if sub_k.containment_residual(algebra, sub_h.basis[i]) > SUBALGEBRA_TOL:
            raise SubalgebraNotContained("h is not contained in k")
    brackets = np.einsum("ai,bj,ijk->abk", sub_k.basis, sub_h.basis, algebra.structure)
    outside = brackets - brackets @ algebra.gram() @ sub_h.basis.T @ sub_h.basis
    null = nullspace(outside.transpose(1, 2, 0).reshape(sub_h.dim * algebra.dim, sub_k.dim))
    vectors = (sub_k.basis.T @ null).T
    return Subalgebra.from_vectors(algebra, vectors)


def compactness_certificate(algebra, metric):
    """True iff every generator is skew-symmetric for ``metric``.

    This is a sufficient condition: it bounds the generated group inside the
    metric's orthogonal group, so its closure (and every isotropy subgroup)
    is compact.  False is a verdict, not an error.
    """
    metric = np.asarray(metric, dtype=float)
    for i in range(algebra.dim):
        a = algebra.generators[i]
        if np.abs(a.T @ metric + metric @ a).max() > COMPACTNESS_TOL:
            return False
    return True
