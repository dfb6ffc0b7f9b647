"""Rank-revealing linear algebra helpers shared by the geometric modules."""

import os

import numpy as np

# A singular value sigma counts as zero iff sigma <= RANK_TOL * max(1, scale),
# where scale is the largest singular value of the matrix being judged.
# The environment variable SLICECERT_TOL overrides the default.
RANK_TOL = float(os.environ.get("SLICECERT_TOL", "1e-9"))


def _rank(sigma, scale):
    """Number of singular values in ``sigma`` that count as nonzero."""
    return int(np.count_nonzero(sigma > RANK_TOL * max(1.0, float(scale))))


def nullspace(mat):
    """Orthonormal basis (columns) of the right nullspace of ``mat``."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        mat = np.atleast_2d(mat)
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or not np.any(mat):
        return np.eye(cols)
    _, sigma, vh = np.linalg.svd(mat)
    return vh[_rank(sigma, sigma[0]):].T.copy()


def orthonormalize(vectors, gram=None, against=None):
    """Orthonormal basis (columns) of the span of ``vectors`` with ``against``
    projected out, by one SVD after metric whitening.

    ``gram`` is the inner-product matrix (Euclidean when omitted); ``against``
    holds columns that are already orthonormal in that inner product.  With
    G = L L^T, the columns are whitened to L^T v, ``against`` is projected
    out twice, and the left singular vectors that ``_rank`` keeps are mapped
    back through L^-T.  The scale of the rank rule is the largest singular
    value of the whitened input before projection, so a direction that only
    rounding leaves after projection is dropped.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        v = np.atleast_2d(v).T
    n = v.shape[0]
    if not v.shape[1]:
        return np.zeros((n, 0))
    lt = np.eye(n) if gram is None else np.linalg.cholesky(gram).T
    w = lt @ v
    scale = np.linalg.norm(w, 2)
    if against is not None and against.size:
        q = lt @ against
        for _ in range(2):
            w = w - q @ (q.T @ w)
    u, sigma, _ = np.linalg.svd(w, full_matrices=False)
    kept = u[:, : _rank(sigma, scale)]
    return np.linalg.solve(lt, kept)


def inertia(sym_matrix, zero_tol):
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Eigenvalues with |lambda| <= zero_tol * max(1, max|entry|) count as zero.
    """
    m = np.asarray(sym_matrix, dtype=float)
    if m.size == 0:
        return (0, 0, 0)
    cutoff = zero_tol * max(1.0, float(np.abs(m).max()))
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    n_plus = int(np.sum(w > cutoff))
    n_minus = int(np.sum(w < -cutoff))
    return (n_plus, n_minus, len(w) - n_plus - n_minus)


def metric_inv_sqrt(gram):
    """Inverse square root of a symmetric positive-definite matrix."""
    w, u = np.linalg.eigh(np.asarray(gram, dtype=float))
    return u @ np.diag(1.0 / np.sqrt(w)) @ u.T
