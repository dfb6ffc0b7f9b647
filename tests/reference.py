"""Reference computations that only the tests use.

These restate pieces of the theory (the symplectic form and metric norm of
a space, polynomial evaluation as one gathered product, the term-by-term
collection of polynomial records and build of derivative tables, the augmented
Hessian, the slice form and slice momentum, the descent property, the
coadjoint action, the group exponential, the Hamiltonian vector field, the
step-by-step linear midpoint rule, the Witt-Artin frame built subspace by
subspace under the metric) so that tests can check the pipeline
against them, and ``count_calls`` counts how often the pipeline calls a
function.  Nothing in ``slicecert`` calls them.
"""

import sys

import numpy as np
import scipy.linalg
import scipy.optimize

from slicecert.certify import require_velocity
from slicecert.errors import DegenerateSliceForm, DimensionMismatch, PreconditionViolated, ValidationError
from slicecert.linalg import degenerate, nullspace, orthonormalize, singular_ratio
from slicecert.momentum import MomentumMap, momentum_isotropy_algebra
from slicecert.phase_space import COEFF_DEDUP
from slicecert.symmetry import SUBALGEBRA_TOL, isotropy_algebra
from slicecert.witt_artin import WittArtinFrame

KERNEL_TOL = 1e-10


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name``: on a class, or in every slicecert module
    that imported the function by name."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
    else:
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("slicecert") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def omega_form(space, u, v):
    """omega(u, v) = u^T Omega v."""
    return float(np.asarray(u) @ space.omega @ np.asarray(v))


def metric_norm(space, v):
    """sqrt(v^T M v) for the metric M of ``space``."""
    return float(np.sqrt(max(float(np.asarray(v) @ space.metric @ np.asarray(v)), 0.0)))


def gathered_product_value(poly, x):
    """``poly.value(x)`` from one gathered (points, degree, monomials) block
    reduced by ``prod(axis=-2)``; ``Poly.value`` multiplies the degree rows
    in place instead and must give the same bits."""
    index, coeffs = poly._arrays()
    padded = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    monomials = np.take(padded, index, axis=-1).prod(axis=-2)
    if coeffs.ndim == 2:
        monomials = monomials[..., None, :]
    out = (monomials * coeffs).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def records_by_terms(records):
    """{exponent tuple: summed coefficient} of Poly records, summed term by
    term in record order, in order of first appearance, with the sums at
    or below COEFF_DEDUP dropped: what ``Poly.from_terms`` must hold."""
    terms = {}
    for rec in records:
        key = tuple(int(e) for e in rec["exponents"])
        terms[key] = terms.get(key, 0.0) + float(rec["coeff"])
    return {k: c for k, c in terms.items() if abs(c) > COEFF_DEDUP}


def factor_index(nvars, monomials):
    """The degree-major factor index ``Poly._arrays`` holds for a list of
    monomials: column r lists monomial r's variables, each as often as its
    exponent, padded with nvars."""
    index = np.full((max((sum(m) for m in monomials), default=0), len(monomials)), nvars, dtype=np.int64)
    for r, m in enumerate(monomials):
        factors = [v for v, e in enumerate(m) for _ in range(e)]
        index[: len(factors), r] = factors
    return index


def derivative_tables_by_terms(poly):
    """(gradient table, upper-triangle Hessian table, full-Hessian map) of
    ``poly``, each table as (factor index, coefficient matrix), built term
    by term with dicts: the derivative terms output by output (np.triu_indices
    order for the Hessian), within an output in term order, and each table's
    monomials in order of first appearance."""
    n = poly.nvars
    grad = [{} for _ in range(n)]
    hess = {(i, j): {} for i in range(n) for j in range(i, n)}
    for exps, coeff in poly._terms.items():
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

    def table(columns):
        rows = {}
        for col in columns:
            for key in col:
                rows.setdefault(key, len(rows))
        coeffs = np.zeros((len(columns), len(rows)))
        for j, col in enumerate(columns):
            for key, c in col.items():
                coeffs[j, rows[key]] = c
        return factor_index(n, list(rows)), coeffs

    rows, cols = np.triu_indices(n)
    full = np.empty((n, n), dtype=np.int64)
    full[rows, cols] = full[cols, rows] = np.arange(len(rows))
    return table(grad), table(list(hess.values())), full.ravel()


def augmented_hessian(mm, hamiltonian, p, xi):
    """d2h(p) - d2J_xi(p) on the whole phase space, for momentum map ``mm``."""
    d2j = np.einsum("i,imn->mn", np.asarray(xi, dtype=float), mm.component_hessians())
    return hamiltonian.hessian(p) - d2j


def group_exp(algebra, xi, t=1.0):
    """exp(t A(xi)); symplectic whenever A(xi) is Hamiltonian."""
    return scipy.linalg.expm(float(t) * algebra.matrix(xi))


def nelder_mead_orbit_distance(space, algebra, x, p, sub_k, starts=4, rng=None):
    """min |x - exp(sum_i t_i A_i) p|_metric over the t that multi-start
    Nelder-Mead finds in exponential coordinates of K, each point by
    scipy's expm, and |x - p|_metric.  Starts: the identity, then random
    points of [-box, box]^m, box = pi max(1, 1/min_i |A_i|_2), from rng."""
    rng = np.random.default_rng(0) if rng is None else rng
    amats = np.array([algebra.matrix(sub_k.basis[i]) for i in range(sub_k.dim)])
    m = len(amats)
    box = np.pi * max(1.0, 1.0 / min(np.linalg.norm(a, 2) for a in amats))

    def objective(t):
        d = x - scipy.linalg.expm(np.tensordot(t, amats, axes=1)) @ p
        return float(d @ space.metric @ d)

    best = objective(np.zeros(m))
    for t0 in [np.zeros(m)] + list(rng.uniform(-box, box, size=(max(0, starts - 1), m))):
        res = scipy.optimize.minimize(
            objective,
            t0,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 400 * m, "maxfev": 400 * m},
        )
        best = min(best, float(res.fun))
    return float(np.sqrt(max(best, 0.0)))


def hamiltonian_vector_field(space, hamiltonian, x):
    """X_h(x) = Omega^{-1} grad h(x); satisfies x1' = dh/dy1 in canonical
    2d coordinates and conserves h and every momentum component."""
    x = space.check_point(x)
    return space.omega_inverse() @ hamiltonian.gradient(x)


def linear_midpoint_steps(space, hamiltonian, x0, dt, steps):
    """Implicit midpoint trajectory of a quadratic h, one step at a time:
    x + (D x + c) with D = (I - dt/2 L)^-1 dt L and c the matching shift."""
    n = space.dim
    omega_inv = space.omega_inverse()
    lmat = omega_inv @ hamiltonian.hessian(np.zeros(n))
    shift = dt * (omega_inv @ hamiltonian.gradient(np.zeros(n)))
    prop = np.linalg.solve(np.eye(n) - 0.5 * dt * lmat, np.column_stack([dt * lmat, shift]))
    mat, const = prop[:, :n], prop[:, n]
    traj = np.empty((steps + 1, n))
    traj[0] = x = np.asarray(x0, dtype=float)
    for k in range(steps):
        x = x + (mat @ x + const)
        traj[k + 1] = x
    return traj


def adstar_matrix(algebra, eta):
    """Matrix of mu -> ad*_eta mu, where <ad*_eta mu, xi> = -<mu, [eta, xi]>."""
    eta = np.asarray(eta, dtype=float)
    if algebra.dim == 0:
        return np.zeros((0, 0))
    return -np.einsum("a,aji->ji", eta, algebra.structure)


def ad_star(algebra, eta, mu):
    """Infinitesimal coadjoint action ad*_eta mu; bilinear in (eta, mu)."""
    mu = np.asarray(mu, dtype=float)
    return adstar_matrix(algebra, eta) @ mu


def equivariance_residual(mm, x, eta, t):
    """|J(exp(tA(eta)) x) - Coad_{exp(t eta)} J(x)| for the momentum map mm.

    The coadjoint transport is the propagator of mu' = ad*_eta mu, i.e.
    expm of the constant ad* matrix.
    """
    x = mm.space.check_point(x)
    eta = np.asarray(eta, dtype=float)
    moved = mm.value(group_exp(mm.algebra, eta, t) @ x)
    if mm.algebra.dim == 0:
        return 0.0
    transport = scipy.linalg.expm(float(t) * adstar_matrix(mm.algebra, eta))
    return float(np.linalg.norm(moved - transport @ mm.value(x)))


def slice_symplectic_form(space, frame):
    """Antisymmetric matrix omega(n_i, n_j) over the slice basis."""
    b = frame.basis_n
    m = b.T @ space.omega @ b
    m = 0.5 * (m - m.T)
    if m.shape[0] and degenerate(m):
        raise DegenerateSliceForm(f"slice symplectic form degenerate (sigma_min/sigma_max {singular_ratio(m):.3e})")
    return m


def slice_momentum_map(space, algebra, frame, v):
    """Homogeneous quadratic momentum of the slice, valued in the dual of
    the isotropy algebra (components along the frame's isotropy basis)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (frame.basis_n.shape[1],):
        raise DimensionMismatch(
            f"slice vector of shape {v.shape}, expected ({frame.basis_n.shape[1]},)"
        )
    w = frame.basis_n @ v
    out = np.zeros(frame.isotropy.dim)
    for i in range(frame.isotropy.dim):
        a = algebra.matrix(frame.isotropy.basis[i])
        out[i] = -0.5 * float(w @ space.omega @ (a @ w))
    return out


def descent_residual(space, algebra, hamiltonian, p, xi, v, eta):
    """|Q(v + eta.p, v + eta.p) - Q(v, v)| for Q = d2h(p) - d2J_xi(p).

    The theory guarantees zero whenever xi is a velocity, v lies in
    ker dJ(p), and eta lies in the momentum isotropy algebra; the returned
    value is the numerical residual.
    """
    p = space.check_point(p)
    v = np.asarray(v, dtype=float)
    eta = np.asarray(eta, dtype=float)
    mm = MomentumMap(space, algebra)

    rows = mm.differential_rows(p)
    if rows.size:
        kr = float(np.linalg.norm(rows @ v))
        if kr > KERNEL_TOL * (1.0 + float(np.linalg.norm(v))):
            raise PreconditionViolated(f"v is outside ker dJ(p) (residual {kr:.3e})")
    require_velocity(mm, hamiltonian.gradient(p), p, xi)
    sub_k = momentum_isotropy_algebra(algebra, mm.value(p))
    if sub_k.containment_residual(algebra, eta) > SUBALGEBRA_TOL * (1.0 + float(np.linalg.norm(eta))):
        raise PreconditionViolated("eta is outside the momentum isotropy algebra")

    q = augmented_hessian(mm, hamiltonian, p, xi)
    w = v + algebra.act(eta, p)
    return abs(float(w @ q @ w) - float(v @ q @ v))


def kernel_basis(mm, p):
    """Metric-orthonormal basis (columns) of ker dJ(p) for momentum map ``mm``."""
    null = nullspace(mm.differential_rows(p))
    return orthonormalize(null, gram=mm.space.metric)


def reference_witt_artin_frame(space, algebra, p, rng=None):
    """``witt_artin_frame`` built one metric-whitened ``orthonormalize`` at a
    time: T0, then T and N (from ``kernel_basis``) with T0 projected out,
    the union of T0, T and N orthonormalized again, and N0 as the metric
    complement of that union.  Same checks and signature as the pipeline's."""
    p = space.check_point(p)
    metric = space.metric
    sub_h = isotropy_algebra(algebra, p)
    mm = MomentumMap(space, algebra)
    mu = mm.value(p)
    sub_k = momentum_isotropy_algebra(algebra, mu)

    k_orbit = np.array([algebra.act(xi, p) for xi in sub_k.basis]).reshape(sub_k.dim, space.dim).T
    basis_t0 = orthonormalize(k_orbit, gram=metric)
    basis_t = orthonormalize(algebra.orbit_matrix(p), gram=metric, against=basis_t0)
    kernel = kernel_basis(mm, p)
    basis_n = orthonormalize(kernel, gram=metric, against=basis_t0)
    if rng is not None and basis_t0.shape[1] and basis_n.shape[1]:
        shift = rng.standard_normal((basis_t0.shape[1], basis_n.shape[1]))
        basis_n = orthonormalize(basis_n + basis_t0 @ shift, gram=metric)
    spanned = orthonormalize(np.column_stack([basis_t0, basis_t, basis_n]), gram=metric)
    basis_n0 = orthonormalize(np.eye(space.dim), gram=metric, against=spanned)

    dims = (basis_t0.shape[1], basis_t.shape[1], basis_n.shape[1], basis_n0.shape[1])
    expected = (
        sub_k.dim - sub_h.dim,
        algebra.dim - sub_k.dim,
        space.dim - (algebra.dim - sub_h.dim) - (sub_k.dim - sub_h.dim),
        sub_k.dim - sub_h.dim,
    )
    if dims != expected or sum(dims) != space.dim:
        raise ValidationError(
            f"Witt-Artin dimension identities failed: got {dims}, expected {expected}"
        )

    if dims[0]:
        iso = np.abs(basis_t0.T @ space.omega @ basis_t0).max()
        if iso > 1e-10 * np.abs(space.omega).max():
            raise ValidationError(f"T0 is not isotropic (residual {iso:.3e})")
        pairing = basis_t0.T @ space.omega @ basis_n0
        if degenerate(pairing):
            raise ValidationError(
                "symplectic pairing of T0 with N0 is degenerate "
                f"(sigma_min/sigma_max {singular_ratio(pairing):.3e})"
            )
    if dims[2]:
        form = basis_n.T @ space.omega @ basis_n
        if degenerate(form):
            raise DegenerateSliceForm(
                f"symplectic form on the slice is degenerate (sigma_min/sigma_max {singular_ratio(form):.3e})"
            )

    return WittArtinFrame(
        point=p,
        momentum_map=mm,
        mu=mu,
        basis_t0=basis_t0,
        basis_t=basis_t,
        basis_n=basis_n,
        basis_n0=basis_n0,
        isotropy=sub_h,
        momentum_isotropy=sub_k,
    )


def _combine(h0, mats, s):
    """h0 + sum_k s_k mats[k], one term at a time."""
    h = h0.copy()
    for k in range(len(mats)):
        h += s[k] * mats[k]
    return h


def _min_eig_supergradient(hmat, direction_mats, cluster_tol=1e-8):
    """Supergradient of s -> lambda_min(H(s)) at hmat: u^T dH/ds_i u,
    averaged over the eigenvectors u of the minimal cluster."""
    w, u = np.linalg.eigh(hmat)
    scale = max(1.0, float(np.abs(w).max()))
    members = np.nonzero(w <= w[0] + cluster_tol * scale)[0]
    cols = u[:, members]
    grad = np.array([np.mean(np.einsum("ij,jk,ki->i", cols.T, d, cols)) for d in direction_mats])
    return float(w[0]), grad


def sequential_ascend_both_signs(h0, direction_mats, rng, restarts, box, max_iter):
    """``sequential_ascend_lambda_min`` on (h0, D) and then on (-h0, -D),
    from one rng: the lockstep ``certify._ascend_both_signs`` must give the
    bits of both optima."""
    return [sequential_ascend_lambda_min(sign * h0, [sign * d for d in direction_mats], rng, restarts, box, max_iter)
            for sign in (1.0, -1.0)]


def sequential_ascend_lambda_min(h0, direction_mats, rng, restarts, box, max_iter):
    """The ascent of one sign run one restart after another, each matrix its
    own eigen-solve and supergradient."""
    m = len(direction_mats)

    def value(s):
        return float(np.linalg.eigvalsh(_combine(h0, direction_mats, s))[0])

    if m == 0:
        s0 = np.zeros(0)
        return s0, value(s0), False

    starts = [np.zeros(m)]
    starts.extend(rng.uniform(-box, box, size=(restarts, m)))
    best_s, best_val = np.zeros(m), -np.inf
    for s0 in starts:
        s = np.asarray(s0, dtype=float).copy()
        val = value(s)
        step = 1.0 + float(np.abs(s).max())
        for _ in range(max_iter):
            _, grad = _min_eig_supergradient(_combine(h0, direction_mats, s), direction_mats)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-15:
                break
            direction = grad / gnorm
            improved = False
            while step > 1e-13 * (1.0 + float(np.abs(s).max())):
                trial = np.clip(s + step * direction, -box, box)
                tval = value(trial)
                if tval > val:
                    s, val = trial, tval
                    step = min(step * 2.0, box)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if val > best_val:
            best_s, best_val = s, val
    boundary = bool(np.any(np.abs(best_s) >= box * (1.0 - 1e-9)))
    return best_s, best_val, boundary
