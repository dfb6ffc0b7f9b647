"""Polynomial observables and the symplectic space container."""

import math

import numpy as np
import pytest

from slicecert import Poly, SymplecticSpace, canonical_omega
from slicecert.errors import DimensionMismatch, ValidationError

from reference import gathered_product_value
from systems import (
    canonical_space,
    compose_linear,
    example1_hamiltonian,
    poly_add,
    poly_constant,
    poly_mul,
    poly_terms,
    quadratic_form,
    random_system_suite,
)


def random_poly(rng, nvars, max_degree=4, terms=6):
    out = {}
    for _ in range(terms):
        exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, nvars))
        if sum(exps) > max_degree:
            continue
        out[exps] = float(rng.standard_normal())
    return Poly(nvars, out)


class TestEval:
    def test_example_hamiltonian_at_origin(self):
        h = example1_hamiltonian()
        assert h.value(np.zeros(4)) == 0.0

    def test_constant(self):
        one = poly_constant(4, 1.0)
        assert one.value(np.array([3.0, -1.0, 2.0, 5.0])) == 1.0

    def test_hand_evaluation(self):
        h = example1_hamiltonian()
        assert h.value(np.array([1.0, 0.0, 1.0, 0.0])) == pytest.approx(-1.0, abs=0.0)

    def test_batched_evaluation(self):
        h = example1_hamiltonian()
        pts = np.array([[0.0, 0, 0, 0], [1.0, 0, 1.0, 0]])
        np.testing.assert_allclose(h.value(pts), [0.0, -1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            example1_hamiltonian().value(np.zeros(3))


class TestGradient:
    def test_hand_differentiation(self):
        h = example1_hamiltonian()
        np.testing.assert_allclose(h.gradient(np.array([1.0, 0, 0, 0])), [2.0, 0, 0, 0])

    def test_zero_polynomial(self):
        z = Poly(4)
        np.testing.assert_array_equal(z.gradient(np.ones(4)), np.zeros(4))

    def test_product_rule(self):
        f = Poly(4, {(1, 1, 0, 0): 1.0})
        a, b = 1.7, -0.3
        np.testing.assert_allclose(f.gradient(np.array([a, b, 9.0, 9.0])), [b, a, 0, 0])

    def test_matches_central_differences(self, rng):
        step = 1e-5
        for _ in range(20):
            nvars = int(rng.integers(2, 7))
            f = random_poly(rng, nvars)
            x = rng.standard_normal(nvars)
            grad = f.gradient(x)
            fd = np.zeros(nvars)
            for i in range(nvars):
                e = np.zeros(nvars)
                e[i] = step
                fd[i] = (f.value(x + e) - f.value(x - e)) / (2 * step)
            assert np.all(np.abs(grad - fd) <= 1e-6 * (1.0 + np.abs(grad)))


class TestHessian:
    def test_example_hamiltonian(self, rng):
        h = example1_hamiltonian()
        expected = np.diag([2.0, 2.0, -4.0, -4.0])
        for _ in range(3):
            np.testing.assert_array_equal(h.hessian(rng.standard_normal(4)), expected)

    def test_linear_polynomial(self):
        f = Poly(4, {(1, 0, 0, 0): 3.0, (0, 0, 0, 1): -2.0})
        np.testing.assert_array_equal(f.hessian(np.ones(4)), np.zeros((4, 4)))

    def test_momentum_shape(self):
        j = Poly(4, {(2, 0, 0, 0): 0.5, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): -0.5, (0, 0, 0, 2): -0.5})
        np.testing.assert_array_equal(j.hessian(np.zeros(4)), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_exactly_symmetric(self, rng):
        for _ in range(10):
            f = random_poly(rng, 5)
            h = f.hessian(rng.standard_normal(5))
            np.testing.assert_array_equal(h, h.T)

    def test_quadratic_hessian_constant(self, rng):
        f = Poly(3, {(2, 0, 0): 1.5, (1, 1, 0): -2.0, (0, 0, 2): 0.25, (1, 0, 0): 3.0})
        base = f.hessian(np.zeros(3))
        for _ in range(10):
            dev = np.abs(f.hessian(rng.standard_normal(3) * 10) - base).max()
            assert dev == 0.0


def exact_derivatives(f, x):
    """Gradient and Hessian of ``f`` at ``x`` from its terms alone, each entry
    as (correctly rounded sum, sum of |term|)."""
    n = f.nvars
    x = [float(v) for v in x]
    grad = [[] for _ in range(n)]
    hess = [[[] for _ in range(n)] for _ in range(n)]
    for exps, coeff in poly_terms(f).items():
        for i in range(n):
            if not exps[i]:
                continue
            d1 = list(exps)
            d1[i] -= 1
            grad[i].append(coeff * exps[i] * math.prod(v**e for v, e in zip(x, d1)))
            for j in range(n):
                if d1[j]:
                    d2 = list(d1)
                    d2[j] -= 1
                    hess[i][j].append(coeff * exps[i] * d1[j] * math.prod(v**e for v, e in zip(x, d2)))

    def summed(terms):
        return math.fsum(terms), math.fsum(abs(t) for t in terms)

    return np.array([summed(t) for t in grad]), np.array([[summed(t) for t in row] for row in hess])


def assert_exact_derivatives(f, x):
    grad, hess = exact_derivatives(f, x)
    assert np.all(np.abs(f.gradient(x) - grad[:, 0]) <= 1e-13 * grad[:, 1])
    assert np.all(np.abs(f.hessian(x) - hess[..., 0]) <= 1e-13 * hess[..., 1])


class TestDerivativeTables:
    def test_random_polynomials_match_exact_reference(self, rng):
        for _ in range(60):
            nvars = int(rng.integers(1, 7))
            f = random_poly(rng, nvars, max_degree=4, terms=int(rng.integers(1, 16)))
            for _ in range(3):
                assert_exact_derivatives(f, rng.standard_normal(nvars))

    def test_suite_hamiltonians_match_exact_reference(self, rng):
        for system in random_system_suite():
            h = system.hamiltonian
            assert_exact_derivatives(h, system.point)
            for _ in range(3):
                assert_exact_derivatives(h, rng.standard_normal(h.nvars))

    def test_batch_equals_stacked_points(self, rng):
        polys = [s.hamiltonian for s in random_system_suite()]
        polys += [random_poly(rng, int(rng.integers(1, 7)), terms=12) for _ in range(20)]
        for f in polys:
            pts = rng.standard_normal((7, f.nvars))
            for method in (f.value, f.gradient, f.hessian):
                np.testing.assert_array_equal(method(pts), np.array([method(x) for x in pts]))
            grid = pts[:6].reshape(2, 3, f.nvars)
            np.testing.assert_array_equal(f.hessian(grid), f.hessian(pts[:6]).reshape(2, 3, f.nvars, f.nvars))

    def test_value_matches_gathered_product_reference(self, rng):
        polys = [s.hamiltonian for s in random_system_suite()]
        polys += [random_poly(rng, int(rng.integers(1, 7)), terms=12) for _ in range(20)] + [Poly(3)]
        for f in polys:
            for table in (f, *f._derivative_tables()[:2]):
                for shape in ((), (7,), (2, 3), (1500,)):
                    x = rng.standard_normal(shape + (f.nvars,))
                    np.testing.assert_array_equal(table.value(x), gathered_product_value(table, x))

    @pytest.mark.parametrize("degree", range(5))
    def test_large_batches_equal_stacked_points(self, rng, degree):
        # past a thousand points, where a batch kernel could block or reorder
        # its sums, each batch row still holds its point's bits
        for nvars in (3, 6):
            top = tuple([degree] + [0] * (nvars - 1))
            f = poly_add(random_poly(rng, nvars, max_degree=degree, terms=40), Poly(nvars, {top: 1.5}))
            assert f.degree() == degree
            pts = rng.standard_normal((1031, nvars))
            for method in (f.value, f.gradient, f.hessian):
                np.testing.assert_array_equal(method(pts), np.array([method(x) for x in pts]))

    @pytest.mark.parametrize("f", [Poly(3), poly_constant(3, 2.5)], ids=["zero", "constant"])
    def test_zero_and_constant_give_zero_derivatives(self, f):
        np.testing.assert_array_equal(f.gradient(np.ones(3)), np.zeros(3))
        np.testing.assert_array_equal(f.hessian(np.ones(3)), np.zeros((3, 3)))
        np.testing.assert_array_equal(f.gradient(np.ones((4, 3))), np.zeros((4, 3)))
        np.testing.assert_array_equal(f.hessian(np.ones((4, 3))), np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), ()])
    def test_wrong_last_axis_raises(self, shape):
        f = example1_hamiltonian()
        for method in (f.value, f.gradient, f.hessian):
            with pytest.raises(DimensionMismatch):
                method(np.ones(shape))


class TestAlgebra:
    def test_arithmetic_round_trip(self, rng):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        x = rng.standard_normal(3)
        assert poly_add(f, g).value(x) == pytest.approx(f.value(x) + g.value(x), rel=1e-12, abs=1e-12)
        assert poly_add(f, g, -1.0).value(x) == pytest.approx(f.value(x) - g.value(x), rel=1e-12, abs=1e-12)
        assert poly_mul(f, g).value(x) == pytest.approx(f.value(x) * g.value(x), rel=1e-10, abs=1e-10)
        assert poly_mul(f, 2.5).value(x) == pytest.approx(2.5 * f.value(x), rel=1e-12, abs=1e-12)

    def test_compose_linear(self, rng):
        f = random_poly(rng, 3)
        m = rng.standard_normal((3, 4))
        g = compose_linear(f, m)
        for _ in range(5):
            y = rng.standard_normal(4)
            assert g.value(y) == pytest.approx(f.value(m @ y), rel=1e-9, abs=1e-9)

    def test_quadratic_form(self, rng):
        q = rng.standard_normal((4, 4))
        f = quadratic_form(q)
        x = rng.standard_normal(4)
        assert f.value(x) == pytest.approx(float(x @ q @ x), rel=1e-12, abs=1e-12)

    def test_records_round_trip(self):
        h = example1_hamiltonian()
        back = Poly.from_records(4, h.to_records())
        assert back == h

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            Poly(2, {(-1, 0): 1.0})


class TestSymplecticSpace:
    def test_canonical_blocks(self):
        omega = canonical_omega(4)
        expected = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(omega, expected)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValidationError):
            canonical_space(3)

    def test_rejects_non_antisymmetric_omega(self):
        with pytest.raises(ValidationError):
            SymplecticSpace(dim=2, omega=np.eye(2), metric=np.eye(2))

    def test_rejects_indefinite_metric(self):
        with pytest.raises(ValidationError):
            SymplecticSpace(dim=2, omega=canonical_omega(2), metric=np.diag([1.0, -1.0]))

    def test_omega_inverse(self):
        space = canonical_space(4)
        np.testing.assert_allclose(space.omega_inverse() @ space.omega, np.eye(4), atol=1e-14)
