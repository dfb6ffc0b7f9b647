"""Symplectic vector spaces and exact polynomial observables.

Observables are sparse multivariate polynomials with exact symbolic
differentiation, so every derivative identity downstream is checkable to
rounding error rather than finite-difference error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError

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
        if abs(np.linalg.det(omega)) <= 1e-12:
            raise ValidationError("omega is not invertible")
        if np.abs(metric - metric.T).max() > 1e-12 * max(1.0, np.abs(metric).max()):
            raise ValidationError("metric is not symmetric")
        if np.linalg.eigvalsh(0.5 * (metric + metric.T)).min() <= 0.0:
            raise ValidationError("metric is not positive definite")
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


class Poly:
    """Sparse multivariate polynomial: exponent multi-index -> coefficient.

    Immutable after construction.  Differentiation is exact; evaluation is
    vectorized over trailing batches of points.
    """

    __slots__ = ("nvars", "_terms", "_index", "_coeffs", "_tables", "_degree")

    def __init__(self, nvars, terms=None):
        nvars = int(nvars)
        if nvars <= 0:
            raise ValidationError("polynomial needs at least one variable")
        collected = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != nvars:
                raise DimensionMismatch(f"exponent index of length {len(key)}, expected {nvars}")
            if any(e < 0 for e in key):
                raise ValidationError("negative exponent in polynomial term")
            collected[key] = collected.get(key, 0.0) + float(coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", {k: c for k, c in collected.items() if abs(c) > COEFF_DEDUP})
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_coeffs", None)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_degree", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_records(cls, nvars, records):
        """Build from a list of {"exponents": [...], "coeff": c} records."""
        terms = {}
        for rec in records:
            key = tuple(int(e) for e in rec["exponents"])
            terms[key] = terms.get(key, 0.0) + float(rec["coeff"])
        return cls(nvars, terms)

    def to_records(self):
        return [
            {"exponents": list(exps), "coeff": coeff}
            for exps, coeff in sorted(self._terms.items())
        ]

    # -- structure ---------------------------------------------------------

    def degree(self):
        if self._degree is None:
            deg = max((sum(e) for e in self._terms), default=0)
            object.__setattr__(self, "_degree", deg)
        return self._degree

    def _arrays(self):
        """(each monomial's variable factors, one column per monomial, padded
        with the index nvars of value's extra 1.0 slot; coefficients)."""
        if self._index is None:
            exps = np.array(list(self._terms), dtype=np.int64).reshape(len(self._terms), self.nvars)
            self._store(exps, np.array(list(self._terms.values()), dtype=float))
        return self._index, self._coeffs

    def _store(self, exps, coeffs):
        # degree-major: x0^2 x2 -> column [0, 0, 2, nvars, ...], so column r
        # holds lengths[r] factors and row d the d-th factor of every monomial
        lengths = exps.sum(axis=1)
        cols = np.repeat(np.arange(len(exps)), lengths)
        rows = np.arange(len(cols)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        index = np.full((self.degree(), len(exps)), self.nvars, dtype=np.int64)
        index[rows, cols] = np.repeat(np.tile(np.arange(self.nvars), len(exps)), exps.ravel())
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def _table(cls, nvars, columns):
        """Vector-valued polynomial: one output per entry of ``columns``, a
        list of {exponents: coeff} dicts, stored as the distinct monomials and
        one (outputs, monomials) coefficient matrix."""
        rows = {}
        for col in columns:
            for key in col:
                rows.setdefault(key, len(rows))
        coeffs = np.zeros((len(columns), len(rows)))
        for j, col in enumerate(columns):
            for key, c in col.items():
                coeffs[j, rows[key]] = c
        exps = np.array(list(rows), dtype=np.int64).reshape(len(rows), nvars)
        table = cls(nvars)
        object.__setattr__(table, "_degree", int(exps.sum(axis=1).max(initial=0)))
        table._store(exps, coeffs)
        return table

    def _derivative_tables(self):
        """(gradient table, upper-triangle Hessian table, the position in
        the upper triangle of each full Hessian entry), built once."""
        if self._tables is None:
            n = self.nvars
            grad = [{} for _ in range(n)]
            hess = {(i, j): {} for i in range(n) for j in range(i, n)}  # np.triu_indices order
            for exps, coeff in self._terms.items():
                for i in range(n):
                    if not exps[i]:
                        continue
                    d1 = list(exps)
                    d1[i] -= 1
                    grad[i][tuple(d1)] = coeff * exps[i]
                    for j in range(i, n):
                        if d1[j]:
                            d2 = list(d1)
                            d2[j] -= 1
                            hess[i, j][tuple(d2)] = coeff * exps[i] * d1[j]
            rows, cols = np.triu_indices(n)
            full = np.empty((n, n), dtype=np.int64)
            full[rows, cols] = full[cols, rows] = np.arange(len(rows))
            tables = (Poly._table(n, grad), Poly._table(n, list(hess.values())), full.ravel())
            object.__setattr__(self, "_tables", tables)
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
