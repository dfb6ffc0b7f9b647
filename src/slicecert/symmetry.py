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

HAMILTONIAN_TOL = 1e-12
CLOSURE_TOL = 1e-10
JACOBI_TOL = 1e-10
SUBALGEBRA_TOL = 1e-9
COMPACTNESS_TOL = 1e-10


def derive_structure_constants(generators):
    """Expand each commutator in the generator basis by least squares.

    Raises NotClosedUnderBracket if any expansion residual exceeds CLOSURE_TOL
    (the input does not span a Lie algebra).
    """
    gens = np.asarray(generators, dtype=float)
    d = gens.shape[0]
    structure = np.zeros((d, d, d))
    if d == 0:
        return structure
    flat = gens.reshape(d, -1).T  # columns = flattened generators
    pinv = np.linalg.pinv(flat)
    for i in range(d):
        for j in range(i + 1, d):
            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
            coeffs = pinv @ comm.ravel()
            residual = np.abs(flat @ coeffs - comm.ravel()).max() if comm.size else 0.0
            if residual > CLOSURE_TOL:
                raise NotClosedUnderBracket(
                    f"commutator [A_{i}, A_{j}] leaves the generator span (residual {residual:.3e})"
                )
            structure[i, j] = coeffs
            structure[j, i] = -coeffs
    return structure


def _check_jacobi(structure):
    c = structure
    if c.size == 0:
        return
    lhs = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    worst = np.abs(lhs).max()
    if worst > JACOBI_TOL:
        raise ValidationError(f"structure constants violate the Jacobi identity (residual {worst:.3e})")


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
        """Validate generators against ``space`` and derive structure constants
        when they are not supplied."""
        dim = space.dim
        gens = np.asarray(generators, dtype=float)
        if gens.size == 0:
            gens = np.zeros((0, dim, dim))
        if gens.ndim != 3 or gens.shape[1:] != (dim, dim):
            raise DimensionMismatch(f"generators must have shape (d, {dim}, {dim}), got {gens.shape}")
        d = gens.shape[0]
        if d:
            rank = np.linalg.matrix_rank(gens.reshape(d, -1), tol=RANK_TOL * max(1.0, np.abs(gens).max()))
            if rank != d:
                raise ValidationError("generators are linearly dependent")
        omega = space.omega
        for i in range(d):
            residual = np.abs(gens[i].T @ omega + omega @ gens[i]).max()
            if residual > HAMILTONIAN_TOL:
                raise ValidationError(
                    f"generator {i} is not Hamiltonian: |A^T Omega + Omega A| = {residual:.3e}"
                )
        if structure is None:
            struct = derive_structure_constants(gens)
        else:
            struct = np.asarray(structure, dtype=float)
            if struct.size == 0:
                struct = np.zeros((0, 0, 0))
            if struct.shape != (d, d, d):
                raise DimensionMismatch(f"structure constants must have shape ({d},{d},{d})")
            for i in range(d):
                for j in range(d):
                    comm = gens[i] @ gens[j] - gens[j] @ gens[i]
                    expanded = np.tensordot(struct[i, j], gens, axes=1) if d else comm * 0
                    residual = np.abs(comm - expanded).max() if comm.size else 0.0
                    if residual > CLOSURE_TOL:
                        raise NotClosedUnderBracket(
                            f"supplied structure constants do not match [A_{i}, A_{j}] (residual {residual:.3e})"
                        )
        _check_jacobi(struct)
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
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim))
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
        if self.dim == 0:
            return np.zeros(0)
        return np.einsum("i,j,ijk->k", xi, eta, self.structure)

    def orbit_matrix(self, p):
        """Columns A_i p spanning the tangent space to the orbit at p."""
        p = np.asarray(p, dtype=float)
        if self.dim == 0:
            return np.zeros((self.ambient_dim, 0))
        return np.einsum("imn,n->mi", self.generators, p)

    def gram(self):
        """Frobenius inner-product matrix of the generators."""
        if self._gram is None:
            if self.dim == 0:
                g = np.zeros((0, 0))
            else:
                g = np.einsum("imn,jmn->ij", self.generators, self.generators)
            object.__setattr__(self, "_gram", g)
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
        vectors = np.asarray(vectors, dtype=float)
        if vectors.size == 0:
            return cls(basis=np.zeros((0, algebra.dim)))
        onb = orthonormalize(vectors.T, gram=algebra.gram()).T
        sub = cls(basis=onb)
        sub.check_closed(algebra)
        return sub

    @property
    def dim(self):
        return self.basis.shape[0]

    def project(self, algebra, v):
        """Orthogonal projection of ``v`` onto the subalgebra."""
        if self.dim == 0:
            return np.zeros_like(np.asarray(v, dtype=float))
        coords = self.basis @ algebra.gram() @ np.asarray(v, dtype=float)
        return self.basis.T @ coords

    def containment_residual(self, algebra, v):
        v = np.asarray(v, dtype=float)
        r = v - self.project(algebra, v)
        g = algebra.gram()
        return float(np.sqrt(max(r @ g @ r, 0.0))) if g.size else 0.0

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

    Computed as the nullspace of xi -> (component of [xi, h_i] outside h).
    Raises SubalgebraNotContained unless h is contained in k.
    """
    for i in range(sub_h.dim):
        if sub_k.containment_residual(algebra, sub_h.basis[i]) > SUBALGEBRA_TOL:
            raise SubalgebraNotContained("h is not contained in k")
    if sub_h.dim == 0 or sub_k.dim == 0:
        return sub_k
    cols = []
    for a in range(sub_k.dim):
        stacked = []
        for i in range(sub_h.dim):
            b = algebra.bracket(sub_k.basis[a], sub_h.basis[i])
            stacked.append(b - sub_h.project(algebra, b))
        cols.append(np.concatenate(stacked))
    mat = np.column_stack(cols)
    null = nullspace(mat)  # coefficients in the k-basis
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
