"""The basis routine and the rank rule: orthonormalize and nullspace."""

import numpy as np
import pytest

from slicecert.linalg import RANK_TOL, nullspace, orthonormalize


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def low_rank(rng, n, cols, rank):
    """n x cols matrix of the given rank, as a product of Gaussian factors."""
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, cols))


def projector(a, gram):
    """G-orthogonal projector onto the column span of a, by least squares."""
    return a @ np.linalg.pinv(a.T @ gram @ a) @ a.T @ gram


@pytest.mark.parametrize("seed", range(5))
def test_metric_orthonormal_and_same_span(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    gram = random_spd(rng, n)
    rank = int(rng.integers(1, n))
    v = low_rank(rng, n, rank + 2, rank)
    b = orthonormalize(v, gram=gram)
    assert b.shape == (n, rank)
    np.testing.assert_allclose(b.T @ gram @ b, np.eye(rank), rtol=0, atol=1e-13)
    np.testing.assert_allclose(projector(b, gram), projector(v, gram), rtol=0, atol=1e-10)


def test_euclidean_default():
    rng = np.random.default_rng(11)
    v = low_rank(rng, 6, 5, 3)
    b = orthonormalize(v)
    np.testing.assert_allclose(b.T @ b, np.eye(3), rtol=0, atol=1e-13)
    np.testing.assert_allclose(projector(b, np.eye(6)), projector(v, np.eye(6)), rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_against_is_projected_out(seed):
    rng = np.random.default_rng(100 + seed)
    n = 7
    gram = random_spd(rng, n)
    fixed = orthonormalize(rng.standard_normal((n, 2)), gram=gram)
    # two fresh directions plus two that lie in span(fixed)
    v = np.column_stack([rng.standard_normal((n, 2)), fixed @ rng.standard_normal((2, 2))])
    b = orthonormalize(v, gram=gram, against=fixed)
    assert b.shape == (n, 2)
    np.testing.assert_allclose(fixed.T @ gram @ b, 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(b.T @ gram @ b, np.eye(2), rtol=0, atol=1e-13)
    # together with ``fixed`` the result spans what v and fixed span
    both = np.column_stack([fixed, b])
    np.testing.assert_allclose(
        projector(both, gram), projector(np.column_stack([fixed, v]), gram), rtol=0, atol=1e-10
    )


def test_all_dropped_gives_empty_basis():
    rng = np.random.default_rng(3)
    gram = random_spd(rng, 5)
    fixed = orthonormalize(rng.standard_normal((5, 2)), gram=gram)
    inside = fixed @ rng.standard_normal((2, 3))
    for out in (
        orthonormalize(inside, gram=gram, against=fixed),
        # rounding left by projecting large columns is judged against their size
        orthonormalize(1e8 * inside, gram=gram, against=fixed),
        orthonormalize(np.zeros((5, 3)), gram=gram),
        orthonormalize(np.zeros((5, 0)), gram=gram),
    ):
        assert out.shape == (5, 0)


@pytest.mark.parametrize("factor, rank", [(1.01, 3), (0.99, 2)], ids=["above", "below"])
def test_nullspace_and_orthonormalize_share_the_cutoff(factor, rank):
    # singular values (2, 1, s) with s just above or just below the cutoff
    # RANK_TOL * max(1, 2)
    rng = np.random.default_rng(5)
    n = 6
    u, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    mat = u @ np.diag([2.0, 1.0, factor * 2.0 * RANK_TOL]) @ w.T
    assert orthonormalize(mat).shape == (n, rank)
    assert nullspace(mat.T).shape == (n, n - rank)
    assert nullspace(mat).shape == (3, 3 - rank)
