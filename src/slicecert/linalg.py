"""Rank-revealing linear algebra helpers shared by the geometric modules."""

import numpy as np

from .errors import ValidationError

# A singular value sigma counts as zero iff sigma <= RANK_TOL * max(1, scale),
# where scale is the largest singular value of the matrix being judged.
RANK_TOL = 1e-9


def rank(sigma, scale):
    """Number of singular values in ``sigma`` that count as nonzero."""
    return int(np.count_nonzero(sigma > RANK_TOL * max(1.0, float(scale))))


def nullspace(mat):
    """Orthonormal basis (columns) of the right nullspace of ``mat``."""
    mat = np.asarray(mat, dtype=float)
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or not np.any(mat):
        return np.eye(cols)
    _, sigma, vh = np.linalg.svd(mat)
    return vh[rank(sigma, sigma[0]):].T.copy()


def singular_ratio(mat):
    """sigma_min / sigma_max of a nonempty matrix, 0 for a zero one.

    The one nondegeneracy rule: ``mat`` is degenerate iff this ratio is at
    most RANK_TOL (``degenerate``), so no rescaling of ``mat`` changes the
    verdict, as a determinant threshold would.  For a matrix with no more
    rows than columns, degenerate means its rows are linearly dependent.
    """
    sigma = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    return float(sigma[-1] / sigma[0]) if sigma[0] > 0.0 else 0.0


def degenerate(mat):
    """True iff sigma_min <= RANK_TOL * sigma_max for the nonempty ``mat``."""
    return singular_ratio(mat) <= RANK_TOL


def require_spd(mat, name):
    """Raise ValidationError unless the square ``mat`` is symmetric (to
    1e-12 of its largest entry) and positive definite."""
    if np.abs(mat - mat.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(mat).max(initial=0.0)):
        raise ValidationError(f"{name} is not symmetric")
    if np.linalg.eigvalsh(0.5 * (mat + mat.T)).min(initial=np.inf) <= 0.0:
        raise ValidationError(f"{name} is not positive definite")


def orthonormalize(vectors, gram=None, against=None):
    """Orthonormal basis (columns) of the span of ``vectors`` with ``against``
    projected out, by one SVD.

    ``gram`` is the inner-product matrix (Euclidean when omitted); ``against``
    holds columns that are already orthonormal in that inner product.  With
    ``gram`` = L L^T, the columns are whitened to L^T v and the kept left
    singular vectors are mapped back through L^-T; without ``gram`` neither
    step is taken.  ``against`` is projected out twice.  The scale of the
    rank rule is the largest singular value of the whitened input before
    projection, so a direction that only rounding leaves after projection is
    dropped; with nothing projected out, that value comes from the one SVD.
    """
    w = np.asarray(vectors, dtype=float)
    if not w.shape[1]:
        return np.zeros((w.shape[0], 0))
    if gram is not None:
        lt = np.linalg.cholesky(gram).T
        w = lt @ w
        against = None if against is None else lt @ against
    scale = None
    if against is not None and against.size:
        scale = np.linalg.norm(w, 2)
        for _ in range(2):
            w = w - against @ (against.T @ w)
    u, sigma, _ = np.linalg.svd(w, full_matrices=False)
    kept = u[:, : rank(sigma, sigma[0] if scale is None else scale)]
    return kept if gram is None else np.linalg.solve(lt, kept)


def inertia(sym_matrix, zero_tol):
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Eigenvalues with |lambda| <= zero_tol * max(1, max|entry|) count as zero.
    """
    m = np.asarray(sym_matrix, dtype=float)
    cutoff = zero_tol * max(1.0, float(np.abs(m).max(initial=0.0)))
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    n_plus = int(np.sum(w > cutoff))
    n_minus = int(np.sum(w < -cutoff))
    return (n_plus, n_minus, len(w) - n_plus - n_minus)


def metric_inv_sqrt(gram):
    """Inverse square root of a symmetric positive-definite matrix."""
    w, u = np.linalg.eigh(np.asarray(gram, dtype=float))
    return u @ np.diag(1.0 / np.sqrt(w)) @ u.T
