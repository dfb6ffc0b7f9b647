"""Shared fixture builders: the worked examples plus randomized valid systems.

Random systems come in two families.  Torus actions are built from integer
weight vectors; their invariant polynomials are enumerated exactly in
complexified coordinates (a monomial z^a zbar^b is invariant iff every
weight row pairs to zero with a - b), so the invariance checks hold to
rounding.  su(2) systems use the realified spin-1/2 generators, with
invariants built from the Hermitian pairings of the blocks and the Casimir
of the momentum components.  Relative-equilibrium points are arranged by
solving the linear system in (hamiltonian coefficients, velocity) at the
chosen point.

The builders use slicecert itself (``Poly.gradient``, ``nullspace``), so a
rounding-level change there would change the systems under test.  The
suite is therefore frozen in ``suite_systems.json`` and loaded from it, and
that committed file is the reference.  The builders no longer reproduce it:
``python tests/systems.py`` writes a file that differs from it on 420
lines.  Rewrite it only on purpose, and say so in CHANGES.md.

Polynomial constants, coordinates, terms, sums, products, powers and
linear substitutions are the plain functions ``poly_constant``,
``poly_coordinate``, ``poly_terms``, ``poly_add``, ``poly_mul``,
``poly_pow`` and ``compose_linear`` below: the builders and the tests need
them, the pipeline never builds polynomials from others, so ``Poly`` has no
arithmetic of its own.  ``Poly(nvars)`` is the zero polynomial.  Likewise
``quadratic_form`` builds x^T Q x and ``canonical_space`` the space with the
canonical omega and the identity metric.  ``serialize_system`` writes a
system as the dict ``system_from_dict`` reads, and ``poly_records`` and
``poly_from_records`` turn a Poly into hamiltonian records and back: the
program itself only reads system files.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from slicecert import MomentumMap, Poly, SymplecticSpace, canonical_omega
from slicecert.cli import system_from_dict
from slicecert.linalg import nullspace

SUITE_FILE = Path(__file__).with_name("suite_systems.json")
# Two spin-1/2 blocks at p = (z, i sigma_y conj(z)), z = (0.5 - 0.25i,
# 0.375 + 0.5i), where J(p) = 0, with h the su(2) Casimir sum_i J_i^2: K is
# all of su(2), moves p, and fixes no direction of its orbit.
SU2_PAIR_FILE = Path(__file__).with_name("su2_pair.json")

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def realify(u):
    """Real 2k x 2k matrix of a complex k x k matrix in interleaved (x, y)
    coordinates with z_j = x_j + i y_j."""
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


# -- polynomial arithmetic ------------------------------------------------------


def poly_terms(a):
    """The polynomial a as a {exponents: coefficient} dict, in a's own term
    order, so sums and products accumulate in the order they always have."""
    return dict(a._terms)


def poly_records(a):
    """The polynomial a as system-file records {"exponents", "coeff"}, in
    monomial order."""
    return [{"exponents": list(exps), "coeff": coeff} for exps, coeff in sorted(a._terms.items())]


def poly_from_records(nvars, records):
    """The Poly of system-file records, read as ``system_from_dict`` reads a
    hamiltonian: records with equal exponents add up, in record order."""
    return Poly.from_terms(nvars, [rec["exponents"] for rec in records], [rec["coeff"] for rec in records])


def poly_constant(nvars, value):
    return Poly(nvars, {(0,) * nvars: value})


def poly_coordinate(nvars, index, coeff=1.0):
    """coeff * x_index."""
    exps = [0] * nvars
    exps[index] = 1
    return Poly(nvars, {tuple(exps): coeff})


def poly_add(a, b, scale=1.0):
    """a + scale * b for polynomials a and b."""
    if b.nvars != a.nvars:
        raise ValueError("polynomials over different variable counts")
    terms = poly_terms(a)
    for exps, coeff in poly_terms(b).items():
        terms[exps] = terms.get(exps, 0.0) + scale * coeff
    return Poly(a.nvars, terms)


def poly_mul(a, b):
    """a * b for a polynomial a and a polynomial or scalar b."""
    if not isinstance(b, Poly):
        return Poly(a.nvars, {e: c * float(b) for e, c in poly_terms(a).items()})
    if b.nvars != a.nvars:
        raise ValueError("polynomials over different variable counts")
    terms = {}
    for e1, c1 in poly_terms(a).items():
        for e2, c2 in poly_terms(b).items():
            key = tuple(x + y for x, y in zip(e1, e2))
            terms[key] = terms.get(key, 0.0) + c1 * c2
    return Poly(a.nvars, terms)


def poly_pow(a, exponent):
    """a ** exponent for a non-negative integer exponent."""
    out = poly_constant(a.nvars, 1.0)
    for _ in range(exponent):
        out = poly_mul(out, a)
    return out


def compose_linear(a, matrix):
    """Substitute x -> M y in the polynomial a, expanded in y."""
    m = np.asarray(matrix, dtype=float)
    if m.shape[0] != a.nvars:
        raise ValueError(f"matrix with {m.shape[0]} rows, expected {a.nvars}")
    k = m.shape[1]
    linear = [
        Poly(k, {tuple(int(c == j) for c in range(k)): m[i, j] for j in range(k) if m[i, j] != 0.0})
        for i in range(a.nvars)
    ]
    powers = {}

    def lin_pow(i, e):
        if (i, e) not in powers:
            powers[i, e] = poly_pow(linear[i], e)
        return powers[i, e]

    out = Poly(k)
    for exps, coeff in poly_terms(a).items():
        term = poly_constant(k, coeff)
        for i, e in enumerate(exps):
            if e:
                term = poly_mul(term, lin_pow(i, e))
        out = poly_add(out, term)
    return out


def canonical_space(dim):
    """R^dim with the canonical omega and the identity metric."""
    return SymplecticSpace(dim=dim, omega=canonical_omega(dim), metric=np.eye(dim))


def quadratic_form(matrix):
    """Polynomial x^T Q x for a square matrix Q (need not be symmetric)."""
    q = np.asarray(matrix, dtype=float)
    n = q.shape[0]
    terms = {}
    for i in range(n):
        for j in range(n):
            if q[i, j] == 0.0:
                continue
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0.0) + q[i, j]
    return Poly(n, terms)


def momentum_component(mm, i):
    """J_{e_i} of the momentum map mm as an exact polynomial."""
    return quadratic_form(0.5 * mm.component_hessians()[i])


def with_point(system, p):
    """The system with its base point moved to p."""
    return dataclasses.replace(system, point=system.space.check_point(p))


# -- example systems ----------------------------------------------------------


def example1_generator():
    return np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )


def example1_hamiltonian():
    return Poly(
        4,
        {
            (2, 0, 0, 0): 1.0,
            (0, 2, 0, 0): 1.0,
            (0, 0, 2, 0): -2.0,
            (0, 0, 0, 2): -2.0,
        },
    )


def su2_generators(blocks=1):
    """Realified generators -i sigma_a / 2 acting diagonally on C^2 x blocks;
    structure constants are the Levi-Civita epsilon."""
    return np.array(
        [realify(np.kron(np.eye(blocks), -0.5j * PAULI[a])) for a in range(3)]
    )


def spin_generators(j):
    """Realified generators -i J_a of the spin-j irrep of su(2) on C^(2j+1),
    in the basis |j>, |j-1>, ..., |-j> of J_z eigenvectors; their structure
    constants are the Levi-Civita epsilon, and spin 1/2 gives
    ``su2_generators()``."""
    m = np.arange(j, -j - 1.0, -1.0)
    raising = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    jx, jy, jz = (raising + raising.T) / 2.0, (raising - raising.T) / 2.0j, np.diag(m)
    return np.array([realify(-1.0j * a) for a in (jx, jy, jz)])


def torus_generators(weights):
    """One block-rotation generator per weight row."""
    w = np.asarray(weights, dtype=float)
    d, n = w.shape
    gens = np.zeros((d, 2 * n, 2 * n))
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    for i in range(d):
        for j in range(n):
            gens[i, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = w[i, j] * block
    return gens


# -- invariant polynomial bases -----------------------------------------------


def _cmul(a, b):
    ar, ai = a
    br, bi = b
    return (poly_add(poly_mul(ar, br), poly_mul(ai, bi), -1.0), poly_add(poly_mul(ar, bi), poly_mul(ai, br)))


def complex_monomial(nvars, a_exp, b_exp):
    """(Re, Im) of prod_j z_j^{a_j} zbar_j^{b_j} as real polynomials."""
    re = poly_constant(nvars, 1.0)
    im = Poly(nvars)
    for j, e in enumerate(a_exp):
        zj = (poly_coordinate(nvars, 2 * j), poly_coordinate(nvars, 2 * j + 1))
        for _ in range(int(e)):
            re, im = _cmul((re, im), zj)
    for j, e in enumerate(b_exp):
        zbar = (poly_coordinate(nvars, 2 * j), poly_coordinate(nvars, 2 * j + 1, coeff=-1.0))
        for _ in range(int(e)):
            re, im = _cmul((re, im), zbar)
    return re, im


def _multi_indices(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(n - 1, total - first):
            yield (first,) + rest


def torus_invariant_polys(weights, degrees=(2, 4), max_polys=18):
    """Exact basis of invariant polynomials of the torus action: all real and
    imaginary parts of weight-zero complex monomials of the given degrees."""
    w = np.asarray(weights, dtype=int)
    d, n = w.shape
    out = []
    for deg in degrees:
        for ta in range(deg + 1):
            tb = deg - ta
            for a in _multi_indices(n, ta):
                for b in _multi_indices(n, tb):
                    if a < b:
                        continue  # conjugate pair already covered
                    diff = np.array(a) - np.array(b)
                    if any(int(w[i] @ diff) != 0 for i in range(d)):
                        continue
                    re, im = complex_monomial(2 * n, a, b)
                    if poly_terms(re):
                        out.append(re)
                    if a != b and poly_terms(im):
                        out.append(im)
                    if len(out) >= max_polys:
                        return out
    return out


def hermitian_pairing(nvars, blocks, r, s):
    """(Re, Im) of <z_r, z_s> = sum_j conj(z_{r,j}) z_{s,j} on C^2 x blocks."""
    re = Poly(nvars)
    im = Poly(nvars)
    for j in range(2):
        xr = poly_coordinate(nvars, 2 * (2 * r + j))
        yr = poly_coordinate(nvars, 2 * (2 * r + j) + 1)
        xs = poly_coordinate(nvars, 2 * (2 * s + j))
        ys = poly_coordinate(nvars, 2 * (2 * s + j) + 1)
        re = poly_add(poly_add(re, poly_mul(xr, xs)), poly_mul(yr, ys))
        im = poly_add(poly_add(im, poly_mul(xr, ys)), poly_mul(yr, xs), -1.0)
    return re, im


def su2_invariant_polys(space, algebra, blocks):
    """Hermitian-pairing invariants plus the momentum Casimir."""
    nvars = space.dim
    quadratics = []
    for r in range(blocks):
        for s in range(r, blocks):
            re, im = hermitian_pairing(nvars, blocks, r, s)
            quadratics.append(re)
            if r != s:
                quadratics.append(im)
    out = list(quadratics)
    for i in range(len(quadratics)):
        for j in range(i, len(quadratics)):
            out.append(poly_mul(quadratics[i], quadratics[j]))
    mm = MomentumMap(space, algebra)
    casimir = Poly(nvars)
    for a in range(algebra.dim):
        j = momentum_component(mm, a)
        casimir = poly_add(casimir, poly_mul(j, j))
    out.append(casimir)
    return out


# -- relative-equilibrium construction ----------------------------------------


def solve_hamiltonian_at(space, algebra, basis_polys, p, rng, tries=50):
    """Pick (coefficients, velocity) so that p is a relative equilibrium of
    h = sum_a c_a B_a, by solving grad h(p) = grad J_xi(p) for (c, xi)."""
    mm = MomentumMap(space, algebra)
    cols = [b.gradient(p) for b in basis_polys]
    rows = mm.differential_rows(p)
    for i in range(algebra.dim):
        cols.append(-rows[i])
    mat = np.column_stack(cols)
    null = nullspace(mat)
    if null.shape[1] == 0:
        raise RuntimeError("no invariant Hamiltonian makes this point a relative equilibrium")
    count = len(basis_polys)
    for _ in range(tries):
        z = null @ rng.standard_normal(null.shape[1])
        c, xi = z[:count], z[count:]
        if np.linalg.norm(c) > 0.1 * np.linalg.norm(z):
            break
    scale = np.abs(c).max()
    if scale < 1e-12:
        raise RuntimeError("degenerate coefficient draw")
    c = c / scale
    xi = xi / scale
    h = Poly(space.dim)
    for ci, basis in zip(c, basis_polys):
        h = poly_add(h, poly_mul(basis, ci))
    return h, xi


def serialize_system(system):
    """Dict representation that round-trips through system_from_dict."""
    return {
        "dim": system.space.dim,
        "omega": system.space.omega.tolist(),
        "metric": system.space.metric.tolist(),
        "generators": system.algebra.generators.tolist(),
        "structureConstants": system.algebra.structure.tolist(),
        "hamiltonian": poly_records(system.hamiltonian),
        "point": system.point.tolist(),
        "algebraMetric": system.algebra_metric.tolist(),
    }


def _finish(space, gens, h, point, structure=None):
    """Run everything through the full validator so each random system is a
    genuinely valid system file."""
    data = {
        "dim": space.dim,
        "omega": space.omega.tolist(),
        "metric": space.metric.tolist(),
        "generators": np.asarray(gens).tolist(),
        "hamiltonian": poly_records(h),
        "point": np.asarray(point, dtype=float).tolist(),
    }
    if structure is not None:
        data["structureConstants"] = np.asarray(structure).tolist()
    return system_from_dict(data)


def _torus_system(rng, weights, conjugate, structured_support=None):
    w = np.asarray(weights, dtype=int)
    d, n = w.shape
    space = canonical_space(2 * n)
    gens = torus_generators(w)
    polys = torus_invariant_polys(w)
    if structured_support is not None:
        p = np.zeros(2 * n)
        for j in structured_support:
            p[2 * j : 2 * j + 2] = rng.standard_normal(2)
        p += 0.0
    else:
        p = rng.standard_normal(2 * n)
    if conjugate:
        rot = realify(random_unitary(rng, n))
        gens = np.array([rot @ g @ rot.T for g in gens])
        polys = [compose_linear(b, rot.T) for b in polys]
        p = rot @ p
    from slicecert.symmetry import LieAlgebraBasis

    algebra = LieAlgebraBasis.build(space, gens)
    h, _ = solve_hamiltonian_at(space, algebra, polys, p, rng)
    return _finish(space, gens, h, p)


def _su2_system(rng, blocks, at_origin):
    space = canonical_space(4 * blocks)
    gens = su2_generators(blocks)
    from slicecert.symmetry import LieAlgebraBasis

    algebra = LieAlgebraBasis.build(space, gens)
    polys = su2_invariant_polys(space, algebra, blocks)
    if at_origin:
        p = np.zeros(space.dim)
    else:
        p = rng.standard_normal(space.dim)
    h, _ = solve_hamiltonian_at(space, algebra, polys, p, rng)
    return _finish(space, gens, h, p)


def build_random_system(index):
    """Deterministic catalog of ten randomized valid systems."""
    rng = np.random.default_rng(1000 + index)
    if index == 0:
        return _torus_system(rng, [[1, -1]], conjugate=True)
    if index == 1:
        return _torus_system(rng, [[1, 2]], conjugate=False)
    if index == 2:
        return _torus_system(rng, [[1, -1, 0], [0, 1, 1]], conjugate=False, structured_support=(0,))
    if index == 3:
        return _torus_system(rng, [[1, 0, -1], [0, 2, 1]], conjugate=True)
    if index == 4:
        return _torus_system(rng, [[1, 0], [0, 1]], conjugate=False, structured_support=(0,))
    if index == 5:
        return _su2_system(rng, blocks=1, at_origin=True)
    if index == 6:
        return _su2_system(rng, blocks=2, at_origin=True)
    if index == 7:
        return _su2_system(rng, blocks=2, at_origin=False)
    if index == 8:
        return _torus_system(rng, [[2, -1]], conjugate=True)
    if index == 9:
        return _su2_system(rng, blocks=1, at_origin=False)
    raise IndexError(index)


_SUITE = None


def random_system_suite():
    """The ten frozen suite systems, loaded once per session."""
    global _SUITE
    if _SUITE is None:
        _SUITE = [system_from_dict(data) for data in json.loads(SUITE_FILE.read_text())]
    return _SUITE


def suite_data(index):
    """A fresh copy of the frozen suite system ``index`` as its JSON dict."""
    return json.loads(SUITE_FILE.read_text())[index]


def suite6_under_metric(seed):
    """suite6 under the metric A A^T + 8 I, A = default_rng(seed) 8 x 8
    normal: its slice form has |det| below 1e-9 for seeds 2..5, yet
    sigma_min / sigma_max ~0.4-0.5."""
    a = np.random.default_rng(seed).standard_normal((8, 8))
    return dict(suite_data(6), metric=(a @ a.T + 8.0 * np.eye(8)).tolist())


def with_scaled_omega(index, factor):
    """Suite system ``index`` with omega multiplied by ``factor``."""
    data = suite_data(index)
    return dict(data, omega=(factor * np.array(data["omega"])).tolist())


def with_scaled_hamiltonian(data, factor):
    """The system dict ``data`` with every hamiltonian coefficient multiplied
    by ``factor``."""
    return dict(data, hamiltonian=[dict(record, coeff=factor * record["coeff"]) for record in data["hamiltonian"]])


def with_scaled_generators(index, factor):
    """Suite system ``index`` with its generators and structure constants
    multiplied by ``factor``."""
    data = suite_data(index)
    return dict(data, generators=(factor * np.array(data["generators"])).tolist(),
                structureConstants=(factor * np.array(data["structureConstants"])).tolist())


def su2_pair_with_scaled_generators(factor):
    """The su(2) pair of SU2_PAIR_FILE with every generator multiplied by
    ``factor``."""
    data = json.loads(SU2_PAIR_FILE.read_text())
    return dict(data, generators=(factor * np.array(data["generators"])).tolist())


def non_closing_pair(factor):
    """A planar system whose generators, e and f of sl(2) = sp(2) times
    ``factor``, are Hamiltonian but bracket to factor^2 diag(1, -1), which
    leaves their span."""
    gens = factor * np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    return {"dim": 2, "generators": gens.tolist(), "hamiltonian": [{"exponents": [2, 0], "coeff": 1.0}],
            "point": [0.0, 0.0]}


def suite2_asymmetric_algebra_metric():
    """suite2 with 0.9 added to algebraMetric[0][1] and taken from [1][0]:
    positive definite in its symmetric part, but not symmetric."""
    data = suite_data(2)
    metric = np.array(data["algebraMetric"])
    metric[0, 1] += 0.9
    metric[1, 0] -= 0.9
    return dict(data, algebraMetric=metric.tolist())


if __name__ == "__main__":
    suite = [serialize_system(build_random_system(i)) for i in range(10)]
    SUITE_FILE.write_text(json.dumps(suite, indent=1) + "\n")
