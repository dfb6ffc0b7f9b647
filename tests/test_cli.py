"""System files, reports, and exit codes."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicecert
from slicecert import LieAlgebraBasis, MomentumMap, Poly, bundled_system, cli, load_system, symmetry
from slicecert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NOT_RELATIVE_EQUILIBRIUM,
    EXIT_STABLE,
    EXIT_VALIDATION,
    cmd_analyze,
    cmd_certify,
    cmd_probe,
    cmd_validate,
    main,
    system_from_dict,
)
from slicecert.errors import ParseError, ValidationError

from reference import count_calls
from systems import (
    SU2_PAIR_FILE,
    serialize_system,
    suite2_asymmetric_algebra_metric,
    suite6_under_metric,
    suite_data,
    with_point,
    with_scaled_generators,
    with_scaled_hamiltonian,
    with_scaled_omega,
)


# --help of slicecert and of each command at COLUMNS=80, option order included
HELP = {
    "": """\
usage: slicecert [-h] {validate,analyze,certify,probe} ...

Certify Lyapunov stability of relative equilibria in symmetric Hamiltonian
systems.

positional arguments:
  {validate,analyze,certify,probe}
    validate            load a system file and check every invariant
    analyze             momentum, isotropy, and slice dimensions at a point
    certify             search the velocity family for a definite restricted
                        Hessian
    probe               integrate trajectories near the point and track orbit
                        distance

options:
  -h, --help            show this help message and exit
""",
    "validate": """\
usage: slicecert validate [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    "analyze": """\
usage: slicecert analyze [-h] [--point POINT] file

positional arguments:
  file

options:
  -h, --help     show this help message and exit
  --point POINT  comma-separated coordinates overriding the system point
""",
    "certify": """\
usage: slicecert certify [-h] [--velocity VELOCITY] [--seed SEED] file

positional arguments:
  file

options:
  -h, --help           show this help message and exit
  --velocity VELOCITY  fixed velocity coordinates; disables the search
  --seed SEED
""",
    "probe": """\
usage: slicecert probe [-h] [--epsilon EPSILON] [--horizon HORIZON]
                       [--samples SAMPLES] [--dt DT]
                       [--escape-factor ESCAPE_FACTOR] [--csv CSV]
                       [--seed SEED]
                       file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --epsilon EPSILON
  --horizon HORIZON
  --samples SAMPLES
  --dt DT
  --escape-factor ESCAPE_FACTOR
  --csv CSV
  --seed SEED
""",
}


def example1_dict():
    return json.loads(bundled_system("example1").read_text())


def so2_plane_dict():
    """SO(2) rotating R^2, h = |x|^2 / 2, at p = (1, 0)."""
    return {
        "dim": 2,
        "generators": [[[0.0, -1.0], [1.0, 0.0]]],
        "hamiltonian": [
            {"exponents": [2, 0], "coeff": 0.5},
            {"exponents": [0, 2], "coeff": 0.5},
        ],
        "point": [1.0, 0.0],
    }


class TestLoad:
    def test_bundled_example1(self, example1):
        assert example1.space.dim == 4
        assert example1.algebra.dim == 1
        np.testing.assert_array_equal(example1.point, np.zeros(4))

    def test_bundled_saddle(self, saddle):
        assert saddle.space.dim == 2
        assert saddle.algebra.dim == 0

    def test_empty_generator_list_loads(self):
        data = {
            "dim": 2,
            "generators": [],
            "hamiltonian": [{"exponents": [2, 0], "coeff": 1.0}],
            "point": [0.0, 0.0],
        }
        system = system_from_dict(data)
        assert system.algebra.dim == 0

    def test_missing_field_is_parse_error(self):
        with pytest.raises(ParseError):
            system_from_dict({"dim": 2, "generators": []})

    def test_invalid_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_system(bad)

    def test_non_invariant_hamiltonian_named(self):
        # diag(1,-1,1,-1) is Hamiltonian for the canonical form, but the
        # bundled Hamiltonian is not invariant under the scaling it generates
        data = example1_dict()
        data["generators"] = [np.diag([1.0, -1.0, 1.0, -1.0]).tolist()]
        with pytest.raises(ValidationError, match="invariant"):
            system_from_dict(data)

    def test_non_hamiltonian_generator_named(self):
        data = example1_dict()
        # diag(1,0,0,0) pairs x1 with itself, so it cannot be in sp(4)
        data["generators"] = [np.diag([1.0, 0.0, 0.0, 0.0]).tolist()]
        with pytest.raises(ValidationError, match="Hamiltonian"):
            system_from_dict(data)

    def test_bracket_closure_named(self):
        data = example1_dict()
        block = [[0.0, -1.0], [1.0, 0.0]]
        a = np.zeros((4, 4))
        a[:2, :2] = block
        b = np.diag([1.0, -1.0, 0.0, 0.0])
        data["generators"] = [a.tolist(), b.tolist()]
        with pytest.raises(ValidationError, match="span"):
            system_from_dict(data)

    @pytest.mark.parametrize("name", ["example1", "saddle"])
    def test_round_trip(self, name):
        system = load_system(name)
        data = serialize_system(system)
        again = system_from_dict(json.loads(json.dumps(data)))
        np.testing.assert_array_equal(again.space.omega, system.space.omega)
        np.testing.assert_array_equal(again.space.metric, system.space.metric)
        np.testing.assert_array_equal(again.algebra.generators, system.algebra.generators)
        np.testing.assert_array_equal(again.algebra.structure, system.algebra.structure)
        np.testing.assert_array_equal(again.point, system.point)
        np.testing.assert_array_equal(again.algebra_metric, system.algebra_metric)
        assert again.hamiltonian == system.hamiltonian


class TestAnalyze:
    def test_origin(self, example1):
        report, code = cmd_analyze(example1)
        assert code == 0
        np.testing.assert_array_equal(report["mu"], [0.0])
        assert report["dimIsotropy"] == 1
        assert report["dimMomentumIsotropy"] == 1
        assert report["dimNormalizer"] == 1
        assert report["wittArtinDims"] == [0, 0, 4, 0]
        assert report["compactnessVerified"]

    def test_point_override(self, example1):
        report, _ = cmd_analyze(example1, point=np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(report["mu"], [0.5])
        assert report["dimIsotropy"] == 0
        assert report["wittArtinDims"] == [1, 0, 2, 1]

    def test_frame_bases_reported(self, example1):
        report, _ = cmd_analyze(example1, point=np.array([1.0, 0, 0, 0]))
        bases = report["wittArtinBases"]
        assert np.asarray(bases["t0"]).shape == (4, 1)
        assert np.asarray(bases["n"]).shape == (4, 2)
        assert np.asarray(bases["n0"]).shape == (4, 1)

    def test_trivial_group(self, saddle):
        report, _ = cmd_analyze(saddle)
        assert report["dimIsotropy"] == 0
        assert report["wittArtinDims"] == [0, 0, 2, 0]


class TestCertify:
    def test_example1_stable(self, example1):
        report, code = cmd_certify(example1)
        assert code == EXIT_STABLE
        assert report["verdict"] == "STABLE_NEG_DEF"
        assert abs(report["xiStar"][0] - 3.0) <= 1e-6
        assert report["inertiaAtXiPerp"] == [2, 2, 0]
        np.testing.assert_allclose(report["xiPerp"], [0.0], atol=1e-12)
        assert "INCONCLUSIVE does not assert instability" in report["note"]

    def test_search_disabled(self, example1):
        report, code = cmd_certify(example1, velocity=np.array([0.0]))
        assert code == EXIT_INCONCLUSIVE
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["searchDisabled"]

    def test_velocity_inside_window(self, example1):
        report, code = cmd_certify(example1, velocity=np.array([3.0]))
        assert code == EXIT_STABLE
        assert report["verdict"] == "STABLE_NEG_DEF"

    def test_velocity_on_empty_slice_matches_search(self):
        # the slice is zero-dimensional, so the restriction is vacuously
        # definite at the unique velocity xi = 1
        system = system_from_dict(so2_plane_dict())
        assert cmd_analyze(system)[0]["wittArtinDims"] == [1, 0, 0, 1]
        searched, search_code = cmd_certify(system)
        fixed, code = cmd_certify(system, velocity=np.array([1.0]))
        assert (searched["verdict"], search_code) == ("STABLE_POS_DEF", EXIT_STABLE)
        assert (fixed["verdict"], code) == ("STABLE_POS_DEF", EXIT_STABLE)
        assert fixed["searchDisabled"] and not searched["searchDisabled"]

    def test_velocity_off_family_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "so2.json"
        path.write_text(json.dumps(so2_plane_dict()))
        for velocity in ("2", "nan", "inf"):
            code = main(["certify", str(path), "--velocity", velocity])
            out = json.loads(capsys.readouterr().out)
            assert code == EXIT_NOT_RELATIVE_EQUILIBRIUM, velocity
            assert out["type"] == "PreconditionViolated"

    def test_saddle_inconclusive(self, saddle):
        report, code = cmd_certify(saddle)
        assert code == EXIT_INCONCLUSIVE
        assert report["verdict"] == "INCONCLUSIVE"

    def test_deterministic_given_seed(self, example1):
        r1, _ = cmd_certify(example1, seed=5)
        r2, _ = cmd_certify(example1, seed=5)
        np.testing.assert_array_equal(r1["xiStar"], r2["xiStar"])
        np.testing.assert_array_equal(r1["spectrum"], r2["spectrum"])

    def test_unverified_compactness_is_stamped_not_fatal(self):
        # a metric for which the rotation generator is not skew: the verdict
        # is still computed, but the hypothesis stamp is false
        data = example1_dict()
        data["metric"] = np.diag([1.0, 2.0, 1.0, 2.0]).tolist()
        system = system_from_dict(data)
        report, code = cmd_certify(system)
        assert code == EXIT_STABLE
        assert report["verdict"] == "STABLE_NEG_DEF"
        assert report["compactnessVerified"] is False

    @pytest.mark.parametrize("index,factor", [(0, 1e8), (3, 1e8), (8, 1e6), (5, 1e-12), (6, 1e12)])
    def test_compactness_stamp_does_not_depend_on_scale(self, index, factor):
        # skewness is judged against |A_i| |metric|: suite0 and suite3 x 1e8
        # and suite8 x 1e6 used to be stamped not compact
        report, code = cmd_validate(system_from_dict(with_scaled_generators(index, factor)))
        assert (code, report["compactnessVerified"]) == (0, True)

    def test_small_hyperbolic_generator_is_not_stamped_compact(self):
        # diag(1, -1) x 1e-11 is far from skew relative to its own size; an
        # absolute 1e-10 used to stamp it compact
        data = {"dim": 2, "generators": [[[1e-11, 0.0], [0.0, -1e-11]]],
                "hamiltonian": [{"exponents": [1, 1], "coeff": 1.0}], "point": [0.0, 0.0]}
        report, code = cmd_validate(system_from_dict(data))
        assert (code, report["compactnessVerified"]) == (0, False)


class TestInputValidation:
    def test_velocity_of_wrong_length(self, capsys):
        code = main(["certify", "example1", "--velocity", "1,2"])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, "DimensionMismatch")

    def test_non_finite_point_flag(self, capsys):
        code = main(["analyze", "example1", "--point", "nan,0,0,0"])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, "ValidationError")

    @pytest.mark.parametrize(
        "path",
        [
            ("omega", 0, 1),
            ("metric", 2, 2),
            ("generators", 0, 1, 0),
            ("structureConstants", 0, 0, 0),
            ("hamiltonian", 0, "coeff"),
            ("point", 0),
            ("algebraMetric", 0, 0),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_system_entry(self, path, value, tmp_path, capsys):
        data = serialize_system(load_system("example1"))
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        system_file = tmp_path / "system.json"
        system_file.write_text(json.dumps(data))
        code = main(["validate", str(system_file)])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, "ValidationError")
        assert "non-finite" in out["error"]

    @pytest.mark.parametrize(
        "path, value",
        [
            (("dim",), float("nan")),
            (("generators", 0, 1), [1.0, 0.0]),  # a ragged row
            (("hamiltonian", 0, "coeff"), "abc"),
            (("point",), "abc"),
            (("hamiltonian",), {"exponents": [2, 0, 0, 0], "coeff": 1.0}),
            # each of these read as x0^2 when exponents were truncated to int
            (("hamiltonian", 0, "exponents"), [2.5, 0, 0, 0]),
            (("hamiltonian", 0, "exponents"), [2, 0, 0, False]),
            (("hamiltonian", 0, "exponents"), ["2", 0, 0, 0]),
        ],
        ids=["dim-nan", "ragged-generators", "string-coeff", "string-point", "hamiltonian-object",
             "fractional-exponent", "boolean-exponent", "string-exponent"],
    )
    def test_malformed_system_entry(self, path, value, tmp_path, capsys):
        data = example1_dict()
        entry = data
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        system_file = tmp_path / "system.json"
        system_file.write_text(json.dumps(data))
        code = main(["validate", str(system_file)])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, "ParseError")

    @pytest.mark.parametrize("content", [b'\xff\xfe{"dim": 2}', b"3", b"null"],
                             ids=["not-utf8", "number", "null"])
    def test_malformed_system_file(self, content, tmp_path, capsys):
        system_file = tmp_path / "system.json"
        system_file.write_bytes(content)
        code = main(["validate", str(system_file)])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, "ParseError")
        assert out["error"]

    def test_whole_float_exponents_are_accepted(self, tmp_path, capsys):
        data = example1_dict()
        data["hamiltonian"][0]["exponents"] = [2.0, 0.0, 0, 0]
        system_file = tmp_path / "system.json"
        system_file.write_text(json.dumps(data))
        code = main(["validate", str(system_file)])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["hamiltonianDegree"]) == (0, 2)
        assert load_system(system_file).hamiltonian == load_system("example1").hamiltonian

    @pytest.mark.parametrize(
        "change, message",
        [
            ("asymmetric", "algebraMetric is not symmetric"),
            ("indefinite", "algebraMetric is not positive definite"),
            ("wrong-shape", "algebraMetric must be 2x2"),
        ],
    )
    def test_bad_algebra_metric(self, change, message, tmp_path, capsys):
        # suite2's algebraMetric is [[4, -2], [-2, 4]]; a skewed, an indefinite
        # or a 3 x 3 one must be refused, not used for xiPerp
        data = suite2_asymmetric_algebra_metric() if change == "asymmetric" else suite_data(2)
        if change == "indefinite":
            data["algebraMetric"] = [[1.0, 2.0], [2.0, 1.0]]
        elif change == "wrong-shape":
            data["algebraMetric"] = np.eye(3).tolist()
        system_file = tmp_path / "system.json"
        system_file.write_text(json.dumps(data))
        code = main(["certify", str(system_file)])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, "ValidationError")
        assert out["error"].startswith(message)

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_slice_form_nondegeneracy_does_not_depend_on_the_metric_scale(self, seed, tmp_path, capsys):
        # under these metrics suite6's slice form has |det| ~5e-10-8e-10 but
        # sigma_min / sigma_max ~0.4-0.5: it certifies as under the identity
        system_file = tmp_path / "system.json"
        system_file.write_text(json.dumps(suite6_under_metric(seed)))
        code = main(["certify", str(system_file)])
        assert (code, json.loads(capsys.readouterr().out)["verdict"]) == (EXIT_STABLE, "STABLE_POS_DEF")

    def test_small_omega_is_valid(self, tmp_path, capsys):
        system_file = tmp_path / "system.json"
        system_file.write_text(json.dumps(with_scaled_omega(6, 0.01)))
        code = main(["validate", str(system_file)])
        assert (code, json.loads(capsys.readouterr().out)["valid"]) == (0, True)

    @pytest.mark.parametrize("factor", [1e-8, 1e5, 1e6])
    def test_scaled_hamiltonian_is_valid(self, factor):
        # invariance is judged relative to |grad h| |A_i x|: against the old
        # absolute bound of 1e-9, h x 1e5 was refused for 7 of the 10 suite
        # systems and h x 1e6 for all of them
        for index in range(10):
            system_from_dict(with_scaled_hamiltonian(suite_data(index), factor))

    @pytest.mark.parametrize("factor", [1e-12, 1e-8, 1.0, 1e6])
    def test_non_invariant_hamiltonian_refused_at_every_scale(self, factor):
        # example1's h is not invariant under the scaling diag(1, -1, 1, -1);
        # against the old absolute bound, h x 1e-12 passed
        data = example1_dict()
        data["generators"] = [np.diag([1.0, -1.0, 1.0, -1.0]).tolist()]
        with pytest.raises(ValidationError, match="invariant"):
            system_from_dict(with_scaled_hamiltonian(data, factor))

    @pytest.mark.parametrize("factor", [1e6, 1e7])
    def test_large_omega_is_analyzed(self, factor, tmp_path, capsys):
        # T0's isotropy is judged against max |omega|: against the old
        # absolute bound of 1e-10, suite3 failed at omega x 1e6 and 6 of the
        # 10 suite systems at omega x 1e7
        system_file = tmp_path / "system.json"
        for index in range(10):
            system_file.write_text(json.dumps(with_scaled_omega(index, factor)))
            assert main(["analyze", str(system_file)]) == 0, capsys.readouterr().out
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["probe", "example1", "--horizon", "0.05", "--csv", "/nonexistent-dir/x.csv"], "ParseError"),
            (["probe", "example1", "--horizon", "1e300", "--dt", "1e-300"], "ValidationError"),
            (["probe", "example1", "--horizon", "0.05", "--seed", "-1"], "ValidationError"),
            (["certify", "example1", "--seed", "-1"], "ValidationError"),
            (["probe", "example1", "--horizon", "1e20", "--dt", "1"], "ValidationError"),
            (["probe", "example1", "--horizon", "1e9", "--dt", "1e-3"], "ValidationError"),
        ],
        ids=["unwritable-csv", "overflowing-steps", "probe-negative-seed", "certify-negative-seed",
             "unallocatable-trajectory", "oversized-trajectory"],
    )
    def test_bad_command_argument(self, argv, kind, capsys):
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, kind)


class TestPointObjectsBuiltOnce:
    @pytest.mark.parametrize("system_name, point", [
        ("example1", None), ("example1", [1.0, 0.0, 0.0, 0.0]), ("saddle", None),
    ])
    def test_certify(self, monkeypatch, system_name, point):
        system = load_system(system_name)
        if point is not None:
            system = with_point(system, np.array(point))
        maps = count_calls(monkeypatch, MomentumMap, "__init__")
        isotropy = count_calls(monkeypatch, symmetry, "isotropy_algebra")
        cmd_certify(system)
        assert (len(maps), len(isotropy)) == (1, 1)

    @pytest.mark.parametrize("system_name, point", [
        ("example1", None), ("example1", [1.0, 0.0, 0.0, 0.0]), ("saddle", None),
    ])
    @pytest.mark.parametrize("velocity", [None, "xiStar", "xiPerp"])
    def test_certify_evaluates_each_derivative_once(self, monkeypatch, system_name, point, velocity):
        system = load_system(system_name)
        if point is not None:
            system = with_point(system, np.array(point))
        if velocity is not None:
            velocity = cmd_certify(system)[0][velocity]
        hessians = count_calls(monkeypatch, Poly, "hessian")
        gradients = count_calls(monkeypatch, Poly, "gradient")
        cmd_certify(system, velocity=velocity)
        assert (len(hessians), len(gradients)) == (1, 1)

    def test_probe_builds_one_momentum_map(self, monkeypatch, example1):
        maps = count_calls(monkeypatch, MomentumMap, "__init__")
        cmd_probe(example1, horizon=0.05, samples=2)
        assert len(maps) == 1

    def test_probe_finds_k_generators_once(self, monkeypatch, example1):
        # the circle K moves p = (1, 0, 0, 0), so every checkpoint searches its orbit
        system = with_point(example1, np.array([1.0, 0.0, 0.0, 0.0]))
        dim_k = slicecert.witt_artin_frame(system.space, system.algebra, system.point).momentum_isotropy.dim
        matrices = count_calls(monkeypatch, LieAlgebraBasis, "matrix")
        report, _ = cmd_probe(system, horizon=0.05, samples=2)
        assert report["maxOrbitDistance"] > 0.0
        assert 1 <= dim_k and len(matrices) <= dim_k


class TestProbeCommand:
    def test_report_fields(self, saddle):
        report, code = cmd_probe(saddle, epsilon=1e-3, horizon=20.0, samples=4, seed=1)
        assert code == 0
        assert report["escaped"] is True
        assert report["samples"] == 4

    def test_csv_dump(self, saddle, tmp_path):
        out = tmp_path / "traj.csv"
        cmd_probe(saddle, epsilon=1e-3, horizon=2.0, samples=2, seed=1, csv_path=str(out))
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["sample", "t"]
        assert "h" in header and "orbitDistance" in header
        assert len(lines) > 2

    def test_overflowing_probe_reports_escape(self, capsys):
        # saddle's trajectories overflow near step 71 669: the distance and
        # energy drift are not finite, print as null, and read as escape;
        # an overflow warning that leaks is an error under pytest
        code = main(["probe", "saddle", "--horizon", "800", "--samples", "2"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 0
        assert report["escaped"] is True and report["solverFailures"] == 0
        assert report["maxOrbitDistance"] is None and report["energyDrift"] is None
        assert "maxOrbitDistance=null energyDrift=null" in captured.err

    def test_non_abelian_probe_stays_near_the_orbit(self, capsys):
        # At the su(2) pair's point h is the Casimir, so p is an equilibrium
        # and J = 0 along it.  Over the default horizon one sample stays
        # within epsilon of the orbit; multi-start Nelder-Mead over scipy's
        # expm reads 5.98188778871404e-4 on this probe.
        code = main(["probe", str(SU2_PAIR_FILE), "--samples", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["solverFailures"] == 0 and report["escaped"] is False
        assert report["maxOrbitDistance"] <= 5.98188778871404e-4 * (1 + 1e-9)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
    def test_probe_memory_does_not_grow_with_the_horizon(self):
        # 1000 and 1 000 000 steps; a whole-trajectory array would be 128 MB
        assert abs(_probe_peak_rss_kb(4, "1e4") - _probe_peak_rss_kb(4, "10")) < 16 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
    def test_probe_memory_does_not_grow_with_the_samples(self):
        # at the default horizon, 256 and 1024 samples step in chunks of the
        # same size; all 1024 at once would take ~0.6 GB more
        assert abs(_probe_peak_rss_kb(1024, "100") - _probe_peak_rss_kb(256, "100")) < 64 * 1024


def _probe_peak_rss_kb(samples, horizon):
    """Peak RSS in KB of a fresh interpreter that probes example1."""
    code = (
        "import resource, sys\n"
        "from slicecert.cli import main\n"
        f"code = main(['probe', 'example1', '--samples', '{samples}', '--horizon', '{horizon}'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert isinstance(json.loads(result.stdout), dict)  # stdout holds the JSON report
    return int(result.stderr.split()[-1])


class TestMainExitCodes:
    def test_stable_is_zero(self, capsys):
        code = main(["certify", str(bundled_system("example1"))])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_STABLE
        assert out["verdict"] == "STABLE_NEG_DEF"

    def test_bundled_name_resolution(self, capsys):
        code = main(["validate", "example1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["valid"]

    def test_parser_is_built_once(self, monkeypatch, capsys):
        # count the top-level parsers built, not the subparsers
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            if kwargs.get("prog") == "slicecert":
                built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        assert main(["validate", "example1"]) == 0
        assert main(["validate", "saddle"]) == 0
        capsys.readouterr()
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "example1", "--velocity", "abc"],
            ["probe", "example1", "--samples", "x"],
            ["frobnicate", "example1"],
            ["certify"],
            [],
        ],
        ids=["bad-velocity", "bad-samples", "unknown-command", "missing-file", "no-command"],
    )
    def test_usage_error_is_four(self, argv, capsys):
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        assert (code, out["type"]) == (EXIT_VALIDATION, "ParseError")
        assert out["error"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0
        assert "--velocity" in capsys.readouterr().out

    def test_inconclusive_is_two(self, capsys):
        code = main(["certify", "saddle"])
        assert code == EXIT_INCONCLUSIVE
        capsys.readouterr()

    def test_not_relative_equilibrium_is_three(self, tmp_path, capsys):
        data = example1_dict()
        data["point"] = [1.0, 1.0, 1.0, 1.0]
        path = tmp_path / "offeq.json"
        path.write_text(json.dumps(data))
        code = main(["certify", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_NOT_RELATIVE_EQUILIBRIUM
        assert out["type"] == "NotRelativeEquilibrium"

    def test_validation_failure_is_four(self, tmp_path, capsys):
        data = example1_dict()
        data["generators"] = [np.diag([1.0, -1.0, 1.0, -1.0]).tolist()]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code = main(["validate", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_VALIDATION
        assert out["type"] == "ValidationError"

    def test_analyze_with_point_flag(self, capsys):
        code = main(["analyze", "example1", "--point", "1,0,0,0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["wittArtinDims"] == [1, 0, 2, 1]

    def test_validate_report(self, example1):
        report, code = cmd_validate(example1)
        assert code == 0
        assert report["valid"] and report["numGenerators"] == 1


def _moved_example1(tmp_path):
    """example1 at (1, 0, 0, 0), where its circle K moves p, as a file in tmp_path."""
    data = example1_dict()
    data["point"] = [1.0, 0.0, 0.0, 0.0]
    path = tmp_path / "example1_moved.json"
    path.write_text(json.dumps(data))
    return path


def _child_env(**extra):
    """The parent environment plus ``extra``, importing the slicecert under test."""
    env = dict(os.environ, **extra)
    root = str(Path(slicecert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _console_script(name):
    """The ``module:function`` target of console script ``name`` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


class TestOptionDefaults:
    """Each option's default is written once, in its command function, and
    main passes on only the flags given."""

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (["certify", "example1"], ["--seed", "42"]),
            (["probe", "example1", "--horizon", "0.05"],
             ["--epsilon", "1e-3", "--samples", "16", "--dt", "0.01", "--escape-factor", "100", "--seed", "42"]),
            (["probe", "example1", "--samples", "2"], ["--horizon", "100"]),
        ],
        ids=["certify", "probe", "probe-horizon"],
    )
    def test_flags_at_their_defaults_change_nothing(self, argv, defaults, capsys):
        code = main(argv)
        bare = capsys.readouterr()
        assert (main(argv + defaults), *capsys.readouterr()) == (code, *bare)

    @pytest.mark.parametrize("command", list(HELP))
    def test_help_is_unchanged(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main([*command.split(), "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == HELP[command]


class TestEnvironment:
    def test_console_entry_point(self):
        # Run the declared target the way pip's generated wrapper does.
        module, attr = _console_script("slicecert").split(":")
        code = (
            "import sys\n"
            f"from {module} import {attr}\n"
            "sys.argv[0] = 'slicecert'\n"
            f"sys.exit({attr}())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "certify", "example1"],
            env=_child_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_STABLE, result.stderr
        assert json.loads(result.stdout)["verdict"] == "STABLE_NEG_DEF"

    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "slicecert", "certify", "example1"],
            env=_child_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_STABLE, result.stderr
        assert json.loads(result.stdout)["verdict"] == "STABLE_NEG_DEF"

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "example1"],
            ["probe", "example1", "--horizon", "0.05", "--samples", "1"],
            ["probe", "MOVED", "--horizon", "0.05", "--samples", "3"],
            ["probe", str(SU2_PAIR_FILE), "--horizon", "0.05", "--samples", "3"],
        ],
    )
    def test_scipy_optimize_is_not_imported(self, argv, tmp_path):
        # No command loads any scipy module, nor numpy.ma, which np.unique
        # on an integer array imports at 0.6-2 MB of peak RSS.  example1's base point is
        # K-fixed; at MOVED = (1, 0, 0, 0) its circle K moves p, and at the
        # su(2) pair's point K is all of su(2): both take the grid-started
        # Newton search.
        argv = [str(_moved_example1(tmp_path)) if arg == "MOVED" else arg for arg in argv]
        code = (
            "import contextlib, io, sys\n"
            "from slicecert.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [str(EXIT_STABLE), "[]"]

    def test_every_command_runs_with_scipy_blocked(self, tmp_path, capsys):
        # sys.modules["scipy"] = None makes any import of scipy fail; each
        # command must still give the report and exit code it gives here.
        # One more run, made only with scipy blocked, is the default probe
        # (16 samples, horizon 100) at the su(2) pair's point, where K is
        # all of su(2): no sample may escape or fail its solve.
        argvs = [
            [command, path] + extra
            for path in ("example1", str(_moved_example1(tmp_path)), str(SU2_PAIR_FILE))
            for command, extra in (("validate", []), ("analyze", []), ("certify", []),
                                   ("probe", ["--horizon", "0.5", "--samples", "2"]))
        ]
        expected = []
        for argv in argvs:
            code = main(argv)
            expected.append([code, json.loads(capsys.readouterr().out)])
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from slicecert.cli import main\n"
            "runs = []\n"
            f"for argv in {argvs + [['probe', str(SU2_PAIR_FILE)]]!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(argv)\n"
            "    runs.append([code, json.loads(out.getvalue())])\n"
            "print(json.dumps(runs))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        *runs, (probe_code, default_probe) = json.loads(result.stdout)
        assert runs == expected
        assert [code for code, _ in expected] == [0, 0, EXIT_STABLE, 0, 0, 0, EXIT_STABLE, 0,
                                                  0, 0, EXIT_INCONCLUSIVE, 0]
        assert (probe_code, default_probe["samples"], default_probe["horizon"]) == (0, 16, 100.0)
        assert default_probe["escaped"] is False and default_probe["solverFailures"] == 0

    def test_import_loads_no_scipy_linalg(self):
        code = "import sys, slicecert\nprint(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
        result = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_every_export_resolves(self):
        missing = [name for name in slicecert.__all__ if not hasattr(slicecert, name)]
        assert missing == []

    @pytest.mark.skipif(
        shutil.which("slicecert") is None, reason="slicecert console script not installed"
    )
    def test_installed_console_script(self):
        result = subprocess.run(
            ["slicecert", "certify", "example1"], capture_output=True, text=True
        )
        assert result.returncode == EXIT_STABLE, result.stderr
        assert json.loads(result.stdout)["verdict"] == "STABLE_NEG_DEF"
