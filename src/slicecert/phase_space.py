"""Symplectic vector spaces and exact polynomial observables.

Observables are sparse multivariate polynomials with exact symbolic
differentiation, so every derivative identity downstream is checkable to
rounding error rather than finite-difference error.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, ParseError, ValidationError
from .linalg import degenerate, require_spd

# Coefficients at or below this magnitude are dropped when terms are collected
# (only true zeros in practice; user coefficients are never rounded).
COEFF_DEDUP = 1e-300


def canonical_omega(dim):
    """Default symplectic matrix in coordinates (x1, y1, x2, y2, ...).

    The per-pair block is [[0, -1], [1, 0]], oriented so that the counter-
    rotating generator blkdiag([[0,-1],[1,0]], [[0,1],[-1,0]]) produces the
    momentum 1/2(x1^2+y1^2) - 1/2(x2^2+y2^2) under the differential identity
    grad J(x) . v = omega(A x, v).
    """
    if dim % 2 or dim <= 0:
        raise ValidationError(f"phase-space dimension must be even and positive, got {dim}")
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    omega = np.zeros((dim, dim))
    for j in range(dim // 2):
        omega[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block
    return omega


@dataclass(frozen=True)
class SymplecticSpace:
    """Phase space R^2n with symplectic matrix and a reference inner product.

    omega(u, v) = u^T Omega v; the metric is any symmetric positive-definite
    matrix, used for orthonormalizations and distances.
    """

    dim: int
    omega: np.ndarray
    metric: np.ndarray

    def __post_init__(self):
        if self.dim % 2 or self.dim <= 0:
            raise ValidationError(f"phase-space dimension must be even and positive, got {self.dim}")
        omega = np.asarray(self.omega, dtype=float)
        metric = np.asarray(self.metric, dtype=float)
        if omega.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"omega must be {self.dim}x{self.dim}, got {omega.shape}")
        if metric.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"metric must be {self.dim}x{self.dim}, got {metric.shape}")
        if np.abs(omega + omega.T).max() > 1e-12 * max(1.0, np.abs(omega).max()):
            raise ValidationError("omega is not antisymmetric")
        if degenerate(omega):
            raise ValidationError("omega is not invertible")
        require_spd(metric, "metric")
        omega.setflags(write=False)
        metric.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "_omega_inv", None)

    def omega_inverse(self):
        if self._omega_inv is None:
            object.__setattr__(self, "_omega_inv", np.linalg.inv(self.omega))
        return self._omega_inv

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"expected a point of length {self.dim}, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValidationError(f"point has a non-finite entry: {x}")
        return x


def _exponent_array(nvars, rows):
    """Exponent rows as an int64 array of shape (len(rows), nvars).

    Each entry must be a whole number, an int or a float such as 2.0: a
    fraction, a boolean or a string raises ParseError.  A row of another
    length raises DimensionMismatch, and a negative entry ValidationError.
    """
    try:
        kinds = set(map(type, chain.from_iterable(rows)))
    except TypeError as exc:
        raise ParseError(f"exponents must be lists of whole numbers: {exc}") from exc
    wrong = [k.__name__ for k in kinds
             if k not in (int, float) and not issubclass(k, (np.integer, np.floating))]
    if wrong:
        raise ParseError(f"exponents must be whole numbers, got {', '.join(sorted(wrong))}")
    lengths = set(map(len, rows)) - {nvars}
    if lengths:
        raise DimensionMismatch(f"exponent index of length {min(lengths)}, expected {nvars}")
    try:
        values = np.array(rows, dtype=float).reshape(len(rows), nvars)
    except OverflowError as exc:
        raise ParseError(f"exponent out of range: {exc}") from exc
    whole = np.isfinite(values) & (values == np.trunc(values))
    if not whole.all():
        raise ParseError(f"exponents must be whole numbers, got {values[~whole][0]!r}")
    if (values < 0).any():
        raise ValidationError("negative exponent in polynomial term")
    return values.astype(np.int64)


def _first_appearance(rows):
    """(first, slot) for the rows of an integer array: first[g] is the row
    at which the g-th distinct row first appears, in order of first
    appearance, and slot[r] is the position in ``first`` of row r's value."""
    order = np.lexsort(rows.T)  # stable: equal rows keep their order
    ranked = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    # each run of equal rows starts at its first appearance; marking those
    # rows puts them in order of appearance without a second sort
    starts = order[new]
    first = np.zeros(len(order), dtype=bool)
    first[starts] = True
    slot = np.empty_like(order)
    slot[order] = (first.cumsum() - 1)[starts][new.cumsum() - 1]
    return first.nonzero()[0], slot


class Poly:
    """Sparse multivariate polynomial: exponent multi-index -> coefficient.

    Stored as an exponent array, one row per distinct monomial in order of
    first appearance, and its coefficients.  The constructors and the
    derivative tables build these arrays with numpy passes over the
    exponents, not term by term in Python.  Immutable after construction.
    Differentiation is exact; evaluation is vectorized over trailing
    batches of points.
    """

    __slots__ = ("nvars", "_exps", "_coeffs", "_index", "_tables", "_degree")

    def __init__(self, nvars, terms=None):
        terms = terms or {}
        self._collect(nvars, list(terms), list(terms.values()))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_terms(cls, nvars, rows, coeffs):
        """Build from exponent rows and their coefficients.

        Rows with equal exponents add up, in row order.  Exponents must be
        whole numbers (2.0 passes; 2.5, true and "2" raise ParseError).
        """
        poly = cls.__new__(cls)
        poly._collect(nvars, rows, coeffs)
        return poly

    def _collect(self, nvars, rows, coeffs):
        """Set the terms: the coefficients of equal exponent rows summed in
        the order given, and the sums at or below COEFF_DEDUP dropped."""
        nvars = int(nvars)
        if nvars <= 0:
            raise ValidationError("polynomial needs at least one variable")
        exps = _exponent_array(nvars, rows)
        first, slot = _first_appearance(exps)
        # astype: bincount of no rows gives int zeros
        sums = np.bincount(slot, weights=np.array(coeffs, dtype=float), minlength=len(first)).astype(float)
        keep = np.abs(sums) > COEFF_DEDUP
        self._set(nvars, exps[first[keep]], sums[keep])

    def _set(self, nvars, exps, coeffs):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_degree", None)

    @property
    def _terms(self):
        """{exponent tuple: coefficient}, in monomial order."""
        return dict(zip(map(tuple, self._exps.tolist()), self._coeffs.tolist()))

    # -- structure ---------------------------------------------------------

    def degree(self):
        if self._degree is None:
            object.__setattr__(self, "_degree", int(self._exps.sum(axis=1).max(initial=0)))
        return self._degree

    def _arrays(self):
        """(each monomial's variable factors, one column per monomial, padded
        with the index nvars of value's extra 1.0 slot; coefficients)."""
        if self._index is None:
            # degree-major: x0^2 x2 -> column [0, 0, 2, nvars, ...], so column r
            # holds lengths[r] factors and row d the d-th factor of every monomial
            exps = self._exps
            lengths = exps.sum(axis=1)
            cols = np.repeat(np.arange(len(exps)), lengths)
            rows = np.arange(len(cols)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            index = np.full((self.degree(), len(exps)), self.nvars, dtype=np.int64)
            index[rows, cols] = np.repeat(np.arange(exps.size) % self.nvars, exps.ravel())
            object.__setattr__(self, "_index", index)
        return self._index, self._coeffs

    @classmethod
    def _table(cls, nvars, outputs, out, exps, values):
        """Vector-valued polynomial with ``outputs`` outputs, output out[r]
        holding the term values[r] x^exps[r].  Stored as the distinct
        monomials, in order of first appearance, and one (outputs,
        monomials) coefficient matrix."""
        first, slot = _first_appearance(exps)
        coeffs = np.zeros((outputs, len(first)))
        coeffs[out, slot] = values
        table = cls.__new__(cls)
        table._set(nvars, exps[first], coeffs)
        return table

    def _derivative_tables(self):
        """(gradient table, upper-triangle Hessian table, the position in
        the upper triangle of each full Hessian entry), built once.

        The derivative terms are listed output by output (np.triu_indices
        order for the Hessian), within an output in term order, and each
        table holds its monomials in order of first appearance in that
        list."""
        if self._tables is None:
            n = self.nvars
            exps, coeffs = self._exps, self._coeffs
            unit = np.eye(n, dtype=np.int64)
            out, term = np.nonzero(exps.T)
            grad = Poly._table(n, n, out, exps[term] - unit[out], coeffs[term] * exps[term, out])
            rows, cols = np.nonzero(np.tri(n, dtype=bool).T)  # np.triu_indices(n)
            present = exps.T > 0
            twice = exps.T > 1
            # x_i present, and x_j too, or x_i squared on the diagonal
            pair, term = np.nonzero(present[rows] & np.where((rows == cols)[:, None], twice[cols], present[cols]))
            i, j = rows[pair], cols[pair]
            # d/dx_j of d/dx_i: x_j's exponent once x_i is differentiated
            after = exps[term, j] - (i == j)
            hess = Poly._table(n, len(rows), pair, exps[term] - unit[i] - unit[j],
                               coeffs[term] * exps[term, i] * after)
            full = np.empty((n, n), dtype=np.int64)
            full[rows, cols] = full[cols, rows] = np.arange(len(rows))
            object.__setattr__(self, "_tables", (grad, hess, full.ravel()))
        return self._tables

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        """Evaluate at a point (last axis = variables; batches allowed).

        Each monomial is the product of its variable factors, gathered from
        x with a 1.0 appended for the padding one degree row at a time and
        multiplied into one C-ordered array in degree order: the products
        of ``prod`` down the degree axis of the whole gathered block,
        without that (points, degree, monomials) temporary.  The monomials
        are then multiplied by their coefficients and summed (not ``@``,
        whose BLAS kernels differ between a point and a batch), so a batch
        gives the same bits as its rows.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.nvars:
            raise DimensionMismatch(f"point of shape {x.shape}, expected last axis {self.nvars}")
        index, coeffs = self._arrays()
        padded = np.empty(x.shape[:-1] + (self.nvars + 1,))
        padded[..., :-1] = x
        padded[..., -1] = 1.0
        monomials = np.ones(x.shape[:-1] + index.shape[1:])
        for factors in index:
            monomials *= np.take(padded, factors, axis=-1)
        if coeffs.ndim == 2:
            monomials = monomials[..., None, :]
        out = (monomials * coeffs).sum(axis=-1)
        if out.ndim == 0:
            return float(out)
        return out

    __call__ = value

    def gradient(self, x):
        """Exact gradient at a point or a batch of points (last axis = variables)."""
        return self._derivative_tables()[0].value(x)

    def hessian(self, x):
        """Exact, exactly symmetric Hessian; batched like ``gradient``."""
        _, table, full = self._derivative_tables()
        upper = table.value(x)
        return np.take(upper, full, axis=-1).reshape(upper.shape[:-1] + (self.nvars, self.nvars))

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"Poly({self.nvars}, 0)"
        parts = []
        for exps, coeff in sorted(self._terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            parts.append(f"{coeff:g}*{mono}")
        return f"Poly({self.nvars}, {' + '.join(parts)})"
