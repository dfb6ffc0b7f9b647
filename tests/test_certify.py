"""Velocity families, restricted Hessians, the search, and the baseline."""

from types import SimpleNamespace

import numpy as np
import pytest

from slicecert import (
    LieAlgebraBasis,
    Poly,
    certify,
    definiteness_search,
    orthogonal_velocity,
    restricted_hessian,
    slice_pencil,
    solve_velocities,
    witt_artin_frame,
)
from slicecert.certify import DEFINITENESS_TOL, VelocityFamily, _ascend_both_signs
from slicecert.errors import NotRelativeEquilibrium, PreconditionViolated
from slicecert.linalg import inertia
from slicecert.symmetry import Subalgebra, compactness_certificate, isotropy_algebra

from reference import _min_eig_supergradient, group_exp, sequential_ascend_both_signs
from systems import canonical_space, example1_generator, example1_hamiltonian, random_system_suite


@pytest.fixture(scope="module")
def parts():
    space = canonical_space(4)
    algebra = LieAlgebraBasis.build(space, example1_generator()[None, :, :])
    return space, algebra, example1_hamiltonian()


class TestSolveVelocities:
    def test_origin_full_family(self, parts):
        space, algebra, h = parts
        family = solve_velocities(h, witt_artin_frame(space, algebra, np.zeros(4)))
        np.testing.assert_array_equal(family.xi1, [0.0])
        assert family.dim == 1

    def test_unique_velocity(self, parts):
        space, algebra, h = parts
        family = solve_velocities(h, witt_artin_frame(space, algebra, np.array([1.0, 0, 0, 0])))
        np.testing.assert_allclose(family.xi1, [2.0], atol=1e-12)
        assert family.dim == 0

    def test_zero_hamiltonian(self, parts):
        space, algebra, _ = parts
        family = solve_velocities(Poly(4), witt_artin_frame(space, algebra, np.array([1.0, 0, 0, 0])))
        np.testing.assert_array_equal(family.xi1, [0.0])
        assert family.dim == isotropy_algebra(algebra, np.array([1.0, 0, 0, 0])).dim

    def test_rejects_non_equilibrium(self, parts):
        space, algebra, h = parts
        frame = witt_artin_frame(space, algebra, np.array([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(NotRelativeEquilibrium):
            solve_velocities(h, frame)

    def test_rejects_nan_residual(self, parts):
        space, algebra, _ = parts
        frame = witt_artin_frame(space, algebra, np.array([1.0, 0, 0, 0]))
        with pytest.raises(NotRelativeEquilibrium):
            solve_velocities(SimpleNamespace(gradient=lambda p: np.full(4, np.nan)), frame)

    def test_affine_family_members_are_velocities(self, rng):
        for system in random_system_suite():
            family = solve_velocities(
                system.hamiltonian, witt_artin_frame(system.space, system.algebra, system.point)
            )
            if family.dim == 0:
                continue
            grad = system.hamiltonian.gradient(system.point)
            from slicecert.certify import velocity_residual

            for _ in range(10):
                s = rng.uniform(-3, 3, family.dim)
                res = velocity_residual(
                    system.space, system.algebra, system.hamiltonian, system.point, family.member(s)
                )
                assert res <= 1e-9 * (1.0 + float(np.linalg.norm(grad)))

    def test_xi1_in_momentum_isotropy_and_normalizer(self):
        from slicecert import MomentumMap, momentum_isotropy_algebra, normalizer_algebra

        for system in random_system_suite():
            family = solve_velocities(
                system.hamiltonian, witt_artin_frame(system.space, system.algebra, system.point)
            )
            mm = MomentumMap(system.space, system.algebra)
            sub_k = momentum_isotropy_algebra(system.algebra, mm.value(system.point))
            sub_h = isotropy_algebra(system.algebra, system.point)
            sub_n = normalizer_algebra(system.algebra, sub_h, sub_k)
            assert sub_k.containment_residual(system.algebra, family.xi1) <= 1e-9
            assert sub_n.containment_residual(system.algebra, family.xi1) <= 1e-9


class TestRestrictedHessian:
    def test_family_sweep_at_origin(self, parts):
        space, algebra, h = parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        for xi in (0.0, 1.0, 3.0, 5.5):
            hm = restricted_hessian(space, algebra, h, np.zeros(4), np.array([xi]), frame)
            np.testing.assert_allclose(
                np.sort(np.diag(hm)), np.sort([2 - xi, 2 - xi, xi - 4, xi - 4]), atol=1e-12
            )

    def test_indefinite_at_zero_velocity(self, parts):
        space, algebra, h = parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        hm = restricted_hessian(space, algebra, h, np.zeros(4), np.array([0.0]), frame)
        assert inertia(hm, DEFINITENESS_TOL) == (2, 2, 0)

    def test_free_point(self, parts):
        space, algebra, h = parts
        p = np.array([1.0, 0, 0, 0])
        frame = witt_artin_frame(space, algebra, p)
        hm = restricted_hessian(space, algebra, h, p, np.array([2.0]), frame)
        np.testing.assert_allclose(hm, np.diag([-2.0, -2.0]), atol=1e-12)

    def test_rejects_non_velocity(self, parts):
        space, algebra, h = parts
        p = np.array([1.0, 0, 0, 0])
        frame = witt_artin_frame(space, algebra, p)
        with pytest.raises(PreconditionViolated):
            restricted_hessian(space, algebra, h, p, np.array([1.0]), frame)


class TestDefinitenessSearch:
    def test_example1_origin(self, parts):
        space, algebra, h = parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        pencil = slice_pencil(h, frame, solve_velocities(h, frame))
        cert = definiteness_search(pencil, rng=0)
        assert cert.verdict == "STABLE_NEG_DEF"
        assert abs(cert.xi_star[0] - 3.0) <= 1e-6
        assert abs(cert.margin - 1.0) <= 1e-6
        np.testing.assert_allclose(cert.spectrum, [-1.0, -1.0, -1.0, -1.0], atol=1e-6)
        assert inertia(pencil.h0, DEFINITENESS_TOL) == (2, 2, 0)
        assert not cert.boundary_hit
        assert compactness_certificate(algebra, space.metric)

    def test_refuses_no_seed(self, parts):
        # None would draw fresh entropy: the search is deterministic only given a seed
        space, algebra, h = parts
        frame = witt_artin_frame(space, algebra, np.zeros(4))
        pencil = slice_pencil(h, frame, solve_velocities(h, frame))
        with pytest.raises(TypeError, match="rng"):
            definiteness_search(pencil, None)

    def test_zero_dimensional_family_indefinite(self):
        space = canonical_space(2)
        algebra = LieAlgebraBasis.build(space, np.zeros((0, 2, 2)))
        h = Poly(2, {(1, 1): 1.0})
        frame = witt_artin_frame(space, algebra, np.zeros(2))
        family = solve_velocities(h, frame)
        cert = definiteness_search(slice_pencil(h, frame, family), rng=0)
        assert cert.verdict == "INCONCLUSIVE"
        assert family.dim == 0

    def test_unique_velocity_certificate(self, parts):
        space, algebra, h = parts
        p = np.array([1.0, 0, 0, 0])
        frame = witt_artin_frame(space, algebra, p)
        family = solve_velocities(h, frame)
        cert = definiteness_search(slice_pencil(h, frame, family), rng=0)
        assert cert.verdict == "STABLE_NEG_DEF"
        np.testing.assert_allclose(cert.xi_star, [2.0], atol=1e-12)
        assert abs(cert.margin - 2.0) <= 1e-12

    def test_indefinite_for_every_velocity(self):
        # weight-(1,1,0) circle action on R^6; the weight-zero block carries a
        # saddle term no velocity can cure, so the whole family is indefinite
        space = canonical_space(6)
        from systems import torus_generators

        algebra = LieAlgebraBasis.build(space, torus_generators([[1, 1, 0]]))
        h = Poly(
            6,
            {
                (2, 0, 0, 0, 0, 0): 1.0,
                (0, 2, 0, 0, 0, 0): 1.0,
                (0, 0, 2, 0, 0, 0): -1.0,
                (0, 0, 0, 2, 0, 0): -1.0,
                (0, 0, 0, 0, 1, 1): 1.0,
            },
        )
        frame = witt_artin_frame(space, algebra, np.zeros(6))
        family = solve_velocities(h, frame)
        assert family.dim == 1
        cert = definiteness_search(slice_pencil(h, frame, family), rng=0)
        assert cert.verdict == "INCONCLUSIVE"
        assert cert.boundary_hit is False

    def test_stable_verdict_implies_margin(self):
        for system in random_system_suite()[:6]:
            frame = witt_artin_frame(system.space, system.algebra, system.point)
            family = solve_velocities(system.hamiltonian, frame)
            cert = definiteness_search(slice_pencil(system.hamiltonian, frame, family), rng=1)
            if cert.stable and cert.spectrum.size:
                scale = max(1.0, float(np.abs(cert.spectrum).max()))
                assert cert.margin / scale > DEFINITENESS_TOL

    def test_verdict_equivariant_along_orbit(self, rng):
        system = random_system_suite()[4]
        frame = witt_artin_frame(system.space, system.algebra, system.point)
        family = solve_velocities(system.hamiltonian, frame)
        cert = definiteness_search(slice_pencil(system.hamiltonian, frame, family), rng=2)
        frame_k = frame.momentum_isotropy
        for _ in range(3):
            eta = frame_k.basis.T @ rng.standard_normal(frame_k.dim)
            t = float(rng.uniform(-2, 2))
            moved = group_exp(system.algebra, eta, t) @ system.point
            frame2 = witt_artin_frame(system.space, system.algebra, moved)
            fam2 = solve_velocities(system.hamiltonian, frame2)
            cert2 = definiteness_search(slice_pencil(system.hamiltonian, frame2, fam2), rng=2)
            assert cert2.verdict == cert.verdict


class TestOrthogonalVelocity:
    def test_origin_always_zero(self, parts, rng):
        space, algebra, h = parts
        family = solve_velocities(h, witt_artin_frame(space, algebra, np.zeros(4)))
        for _ in range(5):
            a = rng.standard_normal((1, 1))
            metric = a @ a.T + np.eye(1)
            np.testing.assert_allclose(orthogonal_velocity(family, metric), [0.0], atol=1e-12)

    def test_trivial_isotropy_returns_particular(self, parts):
        space, algebra, h = parts
        family = solve_velocities(h, witt_artin_frame(space, algebra, np.array([1.0, 0, 0, 0])))
        np.testing.assert_allclose(orthogonal_velocity(family, np.eye(1)), family.xi1)

    def test_particular_inside_isotropy_projects_to_zero(self, parts):
        space, algebra, _ = parts
        sub = Subalgebra.from_vectors(algebra, np.eye(1))
        family = VelocityFamily(xi1=np.array([5.0]), directions=sub, residual=0.0, gradient=np.zeros(4))
        np.testing.assert_allclose(orthogonal_velocity(family, np.eye(1)), [0.0], atol=1e-12)

    def test_baseline_dominated_by_search(self):
        # whenever the orthogonal velocity already certifies, the search must
        # do at least as well; the suite contains definite-baseline systems
        nontrivial = 0
        for system in random_system_suite():
            frame = witt_artin_frame(system.space, system.algebra, system.point)
            family = solve_velocities(system.hamiltonian, frame)
            if frame.dims[2] == 0:
                continue
            xi_perp = orthogonal_velocity(family, system.algebra_metric)
            h_perp = restricted_hessian(
                system.space, system.algebra, system.hamiltonian, system.point, xi_perp, frame
            )
            w = np.linalg.eigvalsh(h_perp)
            scale = max(1.0, float(np.abs(h_perp).max()))
            # definite iff H or -H is positive definite
            baseline_margin = max(w.min(), -w.max())
            if baseline_margin / scale <= DEFINITENESS_TOL:
                continue
            cert = definiteness_search(slice_pencil(system.hamiltonian, frame, family), rng=3)
            assert cert.stable
            assert cert.margin >= baseline_margin - 1e-6
            nontrivial += 1
        assert nontrivial >= 2


def _both_signs_as_sequential(h0, dirs, seed):
    """Run the lockstep ascent of both signs and its oracle, the
    restart-by-restart ascent on h0 and then on -h0 from one rng, at the
    search constants ``certify`` holds now; require the same s bits, value
    and boundary flag of each sign, and return the lockstep
    (s, value, boundary) of both signs."""
    out = _ascend_both_signs(h0, dirs, np.random.default_rng(seed))
    oracle = sequential_ascend_both_signs(h0, dirs, np.random.default_rng(seed), certify.SEARCH_RESTARTS,
                                          certify.SEARCH_BOX, certify.SEARCH_MAX_ITER)
    for got, want in zip(out, oracle):
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert got[2] == want[2]
    return out


@pytest.fixture
def small_search(monkeypatch):
    """5 restarts per sign, 300 supergradient steps each, in the box |s|_inf <= 100."""
    monkeypatch.setattr(certify, "SEARCH_RESTARTS", 5)
    monkeypatch.setattr(certify, "SEARCH_MAX_ITER", 300)
    monkeypatch.setattr(certify, "SEARCH_BOX", 100.0)


def _symmetric(rng, *shape):
    a = rng.standard_normal(shape)
    return a + np.swapaxes(a, -1, -2)


class TestAscentInternals:
    def test_boundary_hit_flagged_on_unbounded_family(self, small_search):
        # lambda_min(H(s)) = s grows without bound: the optimum sits on the box
        h0 = np.zeros((1, 1))
        dirs = [np.eye(1)]
        (s, val, boundary), _ = _both_signs_as_sequential(h0, dirs, 0)
        assert boundary
        assert abs(s[0] - 100.0) <= 1e-6
        assert abs(val - 100.0) <= 1e-6

    def test_interior_optimum_not_flagged(self, small_search):
        # lambda_min = -|s - 1| + 0: kink optimum at s = 1
        h0 = np.diag([1.0, -1.0])
        dirs = [np.diag([-1.0, 1.0])]
        (s, val, boundary), _ = _both_signs_as_sequential(h0, dirs, 0)
        assert not boundary
        assert abs(s[0] - 1.0) <= 1e-6
        assert abs(val) <= 1e-6


class TestLockstepAscent:
    """The restarts ascend together with stacked eigen-solves, and must
    return the bits of the restart-by-restart ascent."""

    KINK_H0 = np.diag([0.0, 0.0, 1.0])
    KINK_DIRS = np.array([np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 0.1, -1.0])])
    # the best lambda_min the averaged supergradient reaches on the kink
    # family, whose optimum is 1/21 at s = (1/21, 20/21)
    KINK_STALLS = {
        0: 0.0,
        1: 0.0,
        2: 0.018093961106016673,
        3: 0.0013973783562492071,
        4: 0.005105562397792946,
        5: 0.0,
        6: 0.0,
        7: 0.03880980936923541,
    }

    @pytest.mark.parametrize("seed", range(8))
    def test_kink_family_stalls_as_before(self, seed):
        (_, val, boundary), _ = _both_signs_as_sequential(self.KINK_H0, self.KINK_DIRS, seed)
        assert val == pytest.approx(self.KINK_STALLS[seed], rel=1e-12, abs=0.0)
        assert val < 1.0 / 21.0
        assert not boundary

    @pytest.mark.parametrize("r", [1, 2, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_pencils(self, r, m):
        for seed in range(3):
            rng = np.random.default_rng([r, m, seed])
            _both_signs_as_sequential(_symmetric(rng, r, r), list(_symmetric(rng, m, r, r)), seed)

    def test_clustered_pencil(self):
        # suite5's shape: H0 = -2I and trace-free D_k, so the averaged
        # supergradient vanishes at s = 0 and that start stops at once
        rng = np.random.default_rng(5)
        dirs = _symmetric(rng, 3, 4, 4)
        dirs -= np.trace(dirs, axis1=1, axis2=2)[:, None, None] / 4 * np.eye(4)
        (_, val, _), _ = _both_signs_as_sequential(-2.0 * np.eye(4), list(dirs), 0)
        assert val >= -2.0

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_iteration_cap(self, max_iter, monkeypatch):
        monkeypatch.setattr(certify, "SEARCH_MAX_ITER", max_iter)
        rng = np.random.default_rng(max_iter)
        _both_signs_as_sequential(_symmetric(rng, 3, 3), list(_symmetric(rng, 2, 3, 3)), 1)
        _both_signs_as_sequential(self.KINK_H0, self.KINK_DIRS, 2)

    def test_empty_family(self):
        h0 = np.diag([3.0, -1.0, 2.0])
        for (s, val, boundary) in _both_signs_as_sequential(h0, np.zeros((0, 3, 3)), 0):
            assert s.shape == (0,)
            assert not boundary
        assert _both_signs_as_sequential(h0, [], 0)[0][1] == -1.0


def _pencil_kinds(rng, r, m):
    """(h0, dirs, s) with 12 rows of s: a random pencil, a multiple of I
    (a cluster of r at s = 0) and, for even r, repeated blocks, whose every
    eigenvalue is at least double for all s (suite5 and suite6's shape)."""
    s = rng.uniform(-3.0, 3.0, size=(12, m))
    s[:3] = 0.0
    kinds = [(_symmetric(rng, r, r), _symmetric(rng, m, r, r)), (-2.0 * np.eye(r), _symmetric(rng, m, r, r))]
    if r % 2 == 0:
        block = np.eye(2)
        kinds.append((np.kron(_symmetric(rng, r // 2, r // 2), block),
                      np.array([np.kron(d, block) for d in _symmetric(rng, m, r // 2, r // 2)])))
    return [(h0, dirs, s) for h0, dirs in kinds]


class TestSupergradients:
    """The batched supergradients keep the bits of the one-matrix form in
    tests/reference.py, row by row, for both signs."""

    @staticmethod
    def _check(h0, dirs, s):
        hs = certify._combine(h0, dirs, s)
        for sign in (1.0, -1.0):
            w, u = np.linalg.eigh(sign * hs)
            for rows in (slice(None), slice(0, 1), slice(2, 5)):
                got = sign * certify._min_eig_supergradients(w[rows], u[rows], dirs)
                norms = np.sqrt(np.vecdot(got, got))  # the ascent's norm
                for h, g, norm in zip(sign * hs[rows], got, norms):
                    want = _min_eig_supergradient(h, sign * dirs)[1]
                    assert np.array_equal(g, want)
                    assert norm == np.linalg.norm(want)

    @pytest.mark.parametrize("r", range(1, 9))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_and_clustered_pencils(self, r, m):
        for h0, dirs, s in _pencil_kinds(np.random.default_rng([r, m]), r, m):
            self._check(h0, dirs, s)

    @pytest.mark.parametrize("index", [2, 4, 5, 6])
    def test_suite_pencils(self, index):
        # suite5's h0 is -2 I and suite6's has two eigenvalues of multiplicity 4
        system = random_system_suite()[index]
        frame = witt_artin_frame(system.space, system.algebra, system.point)
        pencil = slice_pencil(system.hamiltonian, frame, solve_velocities(system.hamiltonian, frame))
        s = np.random.default_rng(index).uniform(-3.0, 3.0, size=(12, len(pencil.directions)))
        s[:3] = 0.0
        self._check(pencil.h0, pencil.directions, s)


class TestConcavity:
    def test_midpoint_concavity_of_min_eigenvalue(self, rng):
        from slicecert import MomentumMap

        checked = 0
        for system in random_system_suite():
            frame = witt_artin_frame(system.space, system.algebra, system.point)
            family = solve_velocities(system.hamiltonian, frame)
            if family.dim == 0:
                continue
            if frame.dims[2] == 0:
                continue

            def hmat(s):
                return restricted_hessian(
                    system.space,
                    system.algebra,
                    system.hamiltonian,
                    system.point,
                    family.member(s),
                    frame,
                    check=False,
                )

            for _ in range(10):
                s1 = rng.uniform(-5, 5, family.dim)
                s2 = rng.uniform(-5, 5, family.dim)
                lm = np.linalg.eigvalsh(hmat(0.5 * (s1 + s2)))[0]
                l1 = np.linalg.eigvalsh(hmat(s1))[0]
                l2 = np.linalg.eigvalsh(hmat(s2))[0]
                assert lm >= 0.5 * l1 + 0.5 * l2 - 1e-10
                checked += 1
        assert checked >= 20
