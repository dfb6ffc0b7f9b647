"""Tests of the benchmark itself.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

A tiny smoke run of each mode checks that every metric named in
BENCHMARK.json is printed with its unit; the tamper tests show that the
output checks count a doctored report as failed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SCRATCH = run.WORK / f"selftest-{os.getpid()}"


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def certify_report(sc, path):
    code, stdout, _ = run.call_main(sc.cli.main, ["certify", str(path)])
    return code, stdout


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sc = run.import_program()
        SCRATCH.mkdir(parents=True, exist_ok=True)
        systems = [("example1", inputs.EXAMPLE1), ("saddle", inputs.SADDLE),
                   ("circle", inputs.probe_orbit_systems(3, circle=1, torus=0)[0][1])]
        cls.paths, _ = inputs.write_systems(systems, SCRATCH)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_manifest_matches_the_runner(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]}, run.PER_LAYER)

    def test_smoke_prints_every_metric(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = bench("--workload", "certify_catalog", "--seed", "1", "--seconds", "0.1", "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], done.stdout)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in manifest[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
            for name, unit in expected.items():
                self.assertIn(f"{name}: ", done.stdout)
            self.assertIn("input_fingerprint", done.stdout)

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = bench("--workload", "probe_flow", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare, script=bare / "perfbench" / "run.py")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)

    def test_inputs_are_seeded_and_program_free(self):
        a = inputs.write_systems(inputs.certify_catalog(5), SCRATCH / "a")[1]
        b = inputs.write_systems(inputs.certify_catalog(5), SCRATCH / "b")[1]
        c = inputs.write_systems(inputs.certify_catalog(6), SCRATCH / "c")[1]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        probe = ("import sys; sys.path.insert(0, 'perfbench'); import inputs; "
                 "inputs.certify_catalog(1); print('slicecert' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(done.stdout.strip(), "False")

    def test_genuine_reports_pass(self):
        checker = checks.CertifyChecker(self.sc)
        for name in ("example1", "saddle", "circle"):
            code, stdout = certify_report(self.sc, self.paths[name])
            self.assertEqual(checker.check(name, self.paths[name], code, stdout), [], name)

    def test_flipped_verdict_fails(self):
        code, stdout = certify_report(self.sc, self.paths["example1"])
        report = json.loads(stdout)
        report["verdict"] = "STABLE_POS_DEF"
        causes = checks.CertifyChecker(self.sc).check("example1", self.paths["example1"], code, json.dumps(report))
        self.assertTrue(any("rebuilt restricted Hessian" in c for c in causes), causes)

        code, stdout = certify_report(self.sc, self.paths["saddle"])
        report = json.loads(stdout)
        report["verdict"] = "STABLE_POS_DEF"
        self.assertTrue(checks.CertifyChecker(self.sc).check("saddle", self.paths["saddle"], code, json.dumps(report)))

    def test_xi_star_off_the_family_fails(self):
        code, stdout = certify_report(self.sc, self.paths["circle"])
        report = json.loads(stdout)
        self.assertIn(report["verdict"], checks.STABLE)
        report["xiStar"] = [v + 0.5 for v in report["xiStar"]]
        causes = checks.CertifyChecker(self.sc).check("circle", self.paths["circle"], code, json.dumps(report))
        self.assertTrue(any("off the velocity family" in c for c in causes), causes)

    def test_error_report_fails_with_its_cause(self):
        bad = dict(inputs.EXAMPLE1, hamiltonian=[{"exponents": [1, 0, 0, 0], "coeff": 1.0}])
        paths, _ = inputs.write_systems([("bad", bad)], SCRATCH / "bad")
        code, stdout = certify_report(self.sc, paths["bad"])
        causes = checks.CertifyChecker(self.sc).check("bad", paths["bad"], code, stdout)
        self.assertTrue(causes and causes[0].startswith(f"exit code {code}: "), causes)
        self.assertTrue(checks.check_probe(code, stdout, stable=False))

    def test_changed_verdict_on_repeat_fails(self):
        checker = checks.CertifyChecker(self.sc)
        code, stdout = certify_report(self.sc, self.paths["saddle"])
        self.assertEqual(checker.check("x", self.paths["saddle"], code, stdout), [])
        report = json.loads(stdout)
        report["verdict"] = "STABLE_NEG_DEF"
        self.assertTrue(any("differs" in c for c in checker.check("x", self.paths["saddle"], 0, json.dumps(report))))

    def test_probe_checks_bite(self):
        good = {"solverFailures": 0, "energyDrift": 1e-15, "momentumDrift": 1e-16,
                "maxOrbitDistance": 1e-3, "escaped": False}
        self.assertEqual(checks.check_probe(0, json.dumps(good), stable=True), [])
        for key, value in (("solverFailures", 1), ("energyDrift", 1e-3), ("escaped", True)):
            self.assertTrue(checks.check_probe(0, json.dumps(dict(good, **{key: value})), stable=True), key)
        self.assertTrue(checks.check_probe(2, json.dumps(good), stable=True))

        csv_path = SCRATCH / "rows.csv"
        csv_path.write_text("sample,t,x1,x2,h,orbitDistance\n0,0.0,0.3,0.4,0.1,0.5\n0,0.1,0.3,0.4,0.1,0.6\n")
        xs, causes = checks.check_csv(csv_path, [0.0, 0.0])
        self.assertEqual(len(xs), 2)
        self.assertEqual(len(causes), 1)

    def test_tracer_restores_originals(self):
        sc = self.sc
        before = (sc.cli.load_system, sc.certify.restricted_hessian, sc.phase_space.Poly.__dict__["value"],
                  sc.symmetry.LieAlgebraBasis.__dict__["build"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sc.cli.load_system, before[0])
            tracer.run_op(0, lambda: run.call_main(sc.cli.main, ["certify", str(self.paths["example1"])]))
        finally:
            tracer.uninstall()
        after = (sc.cli.load_system, sc.certify.restricted_hessian, sc.phase_space.Poly.__dict__["value"],
                 sc.symmetry.LieAlgebraBasis.__dict__["build"])
        self.assertTrue(all(a is b for a, b in zip(before, after)))
        table = tracing.SpanTable(tracer.spans())
        self.assertEqual(table.count("certify.definiteness_search"), 1)
        self.assertGreater(table.count("phase_space.value"), 0)
        self.assertEqual(tracer.absent, [])
        # every span lies inside its parent
        has_parent = table.parent >= 0
        parent_end = table.start[table.parent[has_parent]] + table.dur[table.parent[has_parent]]
        self.assertTrue(np.all(table.start[has_parent] + table.dur[has_parent] <= parent_end))
        self.assertTrue(np.all(table.self_time >= -1e-9))

    def test_tail_percentile(self):
        self.assertEqual(run.tail(list(range(100))), (89, 90.0))
        self.assertEqual(run.tail([3.0, 1.0]), (3.0, 100.0))


if __name__ == "__main__":
    unittest.main()
