"""Seeded system files for the benchmark, built with numpy alone.

The constructions follow the fixture classes of ``tests/systems.py``: torus
actions from integer weights, whose invariant polynomials are enumerated
exactly in complex coordinates, and su(2) spin-1/2 blocks, whose invariants
are the Hermitian pairings of the blocks and the momentum Casimir.  This
module never imports slicecert or the test fixtures: polynomials here are
plain ``{exponents: coeff}`` dicts, so a commit that changes the program's
polynomial arithmetic cannot change the inputs.  The program under test
receives only the JSON files written by ``write_systems``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])

# The bundled fixtures, copied so that every input is a benchmark file.
EXAMPLE1 = {
    "dim": 4,
    "generators": [[[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]],
    "hamiltonian": [
        {"exponents": [2, 0, 0, 0], "coeff": 1.0},
        {"exponents": [0, 2, 0, 0], "coeff": 1.0},
        {"exponents": [0, 0, 2, 0], "coeff": -2.0},
        {"exponents": [0, 0, 0, 2], "coeff": -2.0},
    ],
    "point": [0.0, 0.0, 0.0, 0.0],
}
SADDLE = {
    "dim": 2,
    "generators": [],
    "hamiltonian": [{"exponents": [1, 1], "coeff": 1.0}],
    "point": [0.0, 0.0],
}

# Phase-space dimensions of the torus series in the certify catalogue.
TORUS_SERIES_DIMS = (8, 14, 20, 26, 32)


# -- sparse polynomials -------------------------------------------------------


def p_const(n, c):
    return {(0,) * n: float(c)}


def p_coord(n, i, c=1.0):
    exps = [0] * n
    exps[i] = 1
    return {tuple(exps): float(c)}


def p_add(a, b, scale=1.0):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + scale * c
    return out


def p_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def p_nonzero(a):
    return {e: c for e, c in a.items() if c != 0.0}


def p_quadratic_form(s):
    """x^T S x as a polynomial."""
    n = s.shape[0]
    out = {}
    for i in range(n):
        for j in range(n):
            if s[i, j] != 0.0:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                out[tuple(exps)] = out.get(tuple(exps), 0.0) + float(s[i, j])
    return out


def p_compose_linear(a, m):
    """Substitute x -> M y."""
    n = m.shape[0]
    linear = [{tuple(int(k == j) for k in range(n)): float(m[i, j])
               for j in range(n) if m[i, j] != 0.0} for i in range(n)]
    powers = {}

    def lin_pow(i, e):
        if (i, e) not in powers:
            out = p_const(n, 1.0)
            for _ in range(e):
                out = p_mul(out, linear[i])
            powers[(i, e)] = out
        return powers[(i, e)]

    out = {}
    for exps, coeff in a.items():
        term = p_const(n, coeff)
        for i, e in enumerate(exps):
            if e:
                term = p_mul(term, lin_pow(i, e))
        out = p_add(out, term)
    return out


def p_gradient(a, x):
    exps = np.array(list(a.keys()), dtype=np.int64)
    coeffs = np.array(list(a.values()), dtype=float)
    grad = np.zeros(len(x))
    for i in range(len(x)):
        mask = exps[:, i] > 0
        if not mask.any():
            continue
        reduced = exps[mask].copy()
        reduced[:, i] -= 1
        grad[i] = float(np.sum(coeffs[mask] * exps[mask, i] * np.prod(x ** reduced, axis=1)))
    return grad


# -- actions and invariants ---------------------------------------------------


def canonical_omega(dim):
    omega = np.zeros((dim, dim))
    for j in range(dim // 2):
        omega[2 * j:2 * j + 2, 2 * j:2 * j + 2] = ROTATION
    return omega


def momentum_quadratics(gens):
    """Symmetric S_i with J_i(x) = x^T S_i x, as the program defines them."""
    omega = canonical_omega(gens.shape[1])
    out = []
    for a in gens:
        s = -0.5 * (omega @ a)
        out.append(0.5 * (s + s.T))
    return out


def realify(u):
    u = np.asarray(u, dtype=complex)
    k = u.shape[0]
    out = np.zeros((2 * k, 2 * k))
    out[0::2, 0::2] = u.real
    out[0::2, 1::2] = -u.imag
    out[1::2, 0::2] = u.imag
    out[1::2, 1::2] = u.real
    return out


def random_unitary(rng, k):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def torus_generators(weights):
    w = np.asarray(weights, dtype=float)
    d, n = w.shape
    gens = np.zeros((d, 2 * n, 2 * n))
    for i in range(d):
        for j in range(n):
            gens[i, 2 * j:2 * j + 2, 2 * j:2 * j + 2] = w[i, j] * ROTATION
    return gens


def su2_generators(blocks):
    return np.array([realify(np.kron(np.eye(blocks), -0.5j * PAULI[a])) for a in range(3)])


def _cmul(a, b):
    (ar, ai), (br, bi) = a, b
    return p_add(p_mul(ar, br), p_mul(ai, bi), -1.0), p_add(p_mul(ar, bi), p_mul(ai, br))


def complex_monomial(n, a_exp, b_exp):
    """(Re, Im) of prod_j z_j^a_j zbar_j^b_j with z_j = x_j + i y_j."""
    re, im = p_const(n, 1.0), {}
    for j, e in enumerate(a_exp):
        zj = (p_coord(n, 2 * j), p_coord(n, 2 * j + 1))
        for _ in range(e):
            re, im = _cmul((re, im), zj)
    for j, e in enumerate(b_exp):
        zbar = (p_coord(n, 2 * j), p_coord(n, 2 * j + 1, -1.0))
        for _ in range(e):
            re, im = _cmul((re, im), zbar)
    return p_nonzero(re), p_nonzero(im)


def _multi_indices(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(n - 1, total - first):
            yield (first,) + rest


def torus_invariants(weights, degrees=(2, 4), max_polys=18):
    """Real and imaginary parts of the weight-zero complex monomials."""
    w = np.asarray(weights, dtype=int)
    n = w.shape[1]
    out = []
    for deg in degrees:
        for ta in range(deg + 1):
            for a in _multi_indices(n, ta):
                for b in _multi_indices(n, deg - ta):
                    if a < b or np.any(w @ (np.array(a) - np.array(b))):
                        continue
                    re, im = complex_monomial(2 * n, a, b)
                    if re:
                        out.append(re)
                    if a != b and im:
                        out.append(im)
                    if len(out) >= max_polys:
                        return out
    return out


def hermitian_pairing(nvars, r, s):
    """(Re, Im) of <z_r, z_s> on C^2 x blocks."""
    re, im = {}, {}
    for j in range(2):
        xr, yr = p_coord(nvars, 2 * (2 * r + j)), p_coord(nvars, 2 * (2 * r + j) + 1)
        xs, ys = p_coord(nvars, 2 * (2 * s + j)), p_coord(nvars, 2 * (2 * s + j) + 1)
        re = p_add(p_add(re, p_mul(xr, xs)), p_mul(yr, ys))
        im = p_add(p_add(im, p_mul(xr, ys)), p_mul(yr, xs), -1.0)
    return p_nonzero(re), p_nonzero(im)


def su2_invariants(blocks):
    """Hermitian-pairing quadratics, their products, and the Casimir."""
    nvars = 4 * blocks
    quadratics = []
    for r in range(blocks):
        for s in range(r, blocks):
            re, im = hermitian_pairing(nvars, r, s)
            quadratics.append(re)
            if r != s:
                quadratics.append(im)
    out = list(quadratics)
    for i in range(len(quadratics)):
        for j in range(i, len(quadratics)):
            out.append(p_mul(quadratics[i], quadratics[j]))
    casimir = {}
    for s in momentum_quadratics(su2_generators(blocks)):
        j = p_quadratic_form(s)
        casimir = p_add(casimir, p_mul(j, j))
    out.append(p_nonzero(casimir))
    return out, len(quadratics)


# -- relative equilibria ------------------------------------------------------


def nullspace(mat, tol=1e-9):
    _, sigma, vh = np.linalg.svd(mat)
    rank = int(np.sum(sigma > tol * max(1.0, float(sigma[0]))))
    return vh[rank:].T


def combine(polys, coeffs):
    h = {}
    for c, b in zip(coeffs, polys):
        h = p_add(h, b, float(c))
    return p_nonzero(h)


def solve_hamiltonian_at(gens, polys, p, rng, tries=50):
    """Coefficients c with p a relative equilibrium of sum_a c_a B_a."""
    cols = [p_gradient(b, p) for b in polys]
    cols += [-2.0 * (s @ p) for s in momentum_quadratics(gens)]
    null = nullspace(np.column_stack(cols))
    if null.shape[1] == 0:
        raise ArithmeticError("no invariant Hamiltonian makes this point a relative equilibrium")
    for _ in range(tries):
        z = null @ rng.standard_normal(null.shape[1])
        c = z[:len(polys)]
        if np.linalg.norm(c) > 0.1 * np.linalg.norm(z):
            break
    scale = np.abs(c).max()
    if scale < 1e-12:
        raise ArithmeticError("degenerate coefficient draw")
    return combine(polys, c / scale)


def system_dict(gens, h, point):
    return {
        "dim": int(len(point)),
        "generators": np.asarray(gens).tolist(),
        "hamiltonian": [{"exponents": list(e), "coeff": c} for e, c in sorted(h.items())],
        "point": [float(v) for v in point],
    }


def torus_system(rng, weights, conjugate=False, support=None):
    w = np.asarray(weights, dtype=int)
    n = w.shape[1]
    gens = torus_generators(w)
    polys = torus_invariants(w)
    if support is None:
        p = rng.standard_normal(2 * n)
    else:
        p = np.zeros(2 * n)
        for j in support:
            p[2 * j:2 * j + 2] = rng.standard_normal(2)
    if conjugate:
        rot = realify(random_unitary(rng, n))
        gens = np.array([rot @ g @ rot.T for g in gens])
        polys = [p_nonzero(p_compose_linear(b, rot.T)) for b in polys]
        p = rot @ p
    return system_dict(gens, solve_hamiltonian_at(gens, polys, p, rng), p)


def su2_system(rng, blocks, at_origin):
    gens = su2_generators(blocks)
    polys, _ = su2_invariants(blocks)
    p = np.zeros(4 * blocks) if at_origin else rng.standard_normal(4 * blocks)
    return system_dict(gens, solve_hamiltonian_at(gens, polys, p, rng), p)


SUITE_CLASSES = (
    lambda rng: torus_system(rng, [[1, -1]], conjugate=True),
    lambda rng: torus_system(rng, [[1, 2]]),
    lambda rng: torus_system(rng, [[1, -1, 0], [0, 1, 1]], support=(0,)),
    lambda rng: torus_system(rng, [[1, 0, -1], [0, 2, 1]], conjugate=True),
    lambda rng: torus_system(rng, [[1, 0], [0, 1]], support=(0,)),
    lambda rng: su2_system(rng, 1, at_origin=True),
    lambda rng: su2_system(rng, 2, at_origin=True),
    lambda rng: su2_system(rng, 2, at_origin=False),
    lambda rng: torus_system(rng, [[2, -1]], conjugate=True),
    lambda rng: su2_system(rng, 1, at_origin=False),
)


def torus_series_weights(blocks):
    """A 2-torus with two independent weight rows on every block."""
    j = np.arange(blocks)
    return np.array([np.where(j % 2, -1, 1), j % 3 - 1])


def stable_pair_system(rng):
    """example1 class: the counter-rotating SO(2) on C^2, quadratic h at the
    origin, drawn so that h - xi J is definite for some xi."""
    w = [[1, -1]]
    polys = torus_invariants(w, degrees=(2,))  # |z0|^2, |z1|^2, Re/Im z0 z1
    a, b = rng.uniform(0.5, 1.0), rng.uniform(1.5, 2.5)
    gap = b - a
    c = [a, -b] + list(rng.uniform(-0.1, 0.1, size=len(polys) - 2) * gap)
    return system_dict(torus_generators(w), combine(polys, c), np.zeros(4))


def stable_su2_origin_system(rng, blocks=2):
    """su(2) x blocks at the origin with a definite quadratic part, so the
    point is certified at xi = 0 and the quartic flow stays near it."""
    polys, n_quad = su2_invariants(blocks)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    quad = np.zeros(n_quad)
    k = 0
    for r in range(blocks):
        for s in range(r, blocks):
            if r == s:
                quad[k] = sign * rng.uniform(0.5, 1.5)
                k += 1
            else:
                quad[k:k + 2] = rng.uniform(-0.2, 0.2, size=2) / blocks
                k += 2
    quartic = rng.standard_normal(len(polys) - n_quad)
    c = np.concatenate([quad, quartic / np.abs(quartic).max()])
    return system_dict(su2_generators(blocks), combine(polys, c), np.zeros(4 * blocks))


def _draw(seed, tag, build):
    """Build from a stream keyed by (seed, tag), redrawing on a degenerate
    draw; the redraw rule depends on numpy alone."""
    for attempt in range(20):
        try:
            return build(np.random.default_rng([seed, tag, attempt]))
        except ArithmeticError:
            continue
    raise ArithmeticError(f"no valid draw for input {tag} of seed {seed}")


def certify_catalog(seed):
    """(name, system dict) for example1, saddle, the ten suite classes, and
    the torus series."""
    out = [("example1", EXAMPLE1), ("saddle", SADDLE)]
    for i, build in enumerate(SUITE_CLASSES):
        out.append((f"suite{i}", _draw(seed, 100 + i, build)))
    for dim in TORUS_SERIES_DIMS:
        weights = torus_series_weights(dim // 2)
        out.append((f"torus{dim}", _draw(seed, 200 + dim, lambda rng: torus_system(rng, weights))))
    return out


def probe_flow_systems(seed, quadratic, quartic):
    out = [(f"pair{i}", _draw(seed, 300 + i, stable_pair_system)) for i in range(quadratic)]
    out += [(f"su2x2origin{i}", _draw(seed, 400 + i, stable_su2_origin_system)) for i in range(quartic)]
    return out


def probe_orbit_systems(seed, circle, torus):
    out = [(f"su2off{i}", _draw(seed, 500 + i, SUITE_CLASSES[9])) for i in range(circle)]
    out += [(f"t2block{i}", _draw(seed, 600 + i, SUITE_CLASSES[4])) for i in range(torus)]
    return out


def write_systems(systems, directory):
    """Write each system as <name>.json; return (paths by name, fingerprint).

    The fingerprint is a SHA-256 over the names and bytes of the files, so
    two runs with equal fingerprints gave the program identical inputs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = {}
    for name, data in systems:
        text = json.dumps(data, sort_keys=True)
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        paths[name] = path
    return paths, digest.hexdigest()[:16]
