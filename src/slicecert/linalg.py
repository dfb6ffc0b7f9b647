"""Rank-revealing linear algebra helpers shared by the geometric modules."""

import os

import numpy as np

# A singular value sigma counts as zero iff sigma <= RANK_TOL * max(1, sigma_max).
# The environment variable SLICECERT_TOL overrides the default.
RANK_TOL = float(os.environ.get("SLICECERT_TOL", "1e-9"))


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
    cutoff = RANK_TOL * max(1.0, float(sigma[0]))
    rank = int(np.sum(sigma > cutoff))
    return vh[rank:].T.copy()


def orthonormalize(vectors, gram=None, against=None):
    """Modified Gram-Schmidt with one reorthogonalization pass.

    ``vectors`` holds candidate columns; ``gram`` is the inner-product matrix
    (Euclidean when omitted); ``against`` holds columns that are already
    orthonormal in that inner product and are projected out first.  Columns
    whose residual norm drops below ``RANK_TOL * max(1, original norm)`` are
    discarded.  Returns the surviving orthonormal columns.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        v = np.atleast_2d(v).T
    n = v.shape[0]

    def ip(a, b):
        return float(a @ gram @ b) if gram is not None else float(a @ b)

    fixed = []
    if against is not None and against.size:
        fixed = [against[:, j] for j in range(against.shape[1])]
    kept = []
    for j in range(v.shape[1]):
        w = v[:, j].copy()
        norm0 = np.sqrt(max(ip(w, w), 0.0))
        for _ in range(2):
            for q in fixed:
                w -= ip(q, w) * q
            for q in kept:
                w -= ip(q, w) * q
        norm1 = np.sqrt(max(ip(w, w), 0.0))
        if norm1 > RANK_TOL * max(1.0, norm0):
            kept.append(w / norm1)
    if not kept:
        return np.zeros((n, 0))
    return np.column_stack(kept)


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
