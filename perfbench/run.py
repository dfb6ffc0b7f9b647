"""slicecert benchmark: closed-loop workloads through the CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each op is one in-process ``slicecert.cli.main([...])`` call on
a system file this benchmark generated from ``--seed``, with stdout and
stderr captured.  One client, one process, BLAS pinned to one thread.  Ops
run in whole passes over the workload's op list until the next pass would
overrun ``--seconds``, so every run times the same mix.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Every
op's output is checked outside the timed interval (see checks.py).
"""

import os

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10
PROBE_COMMON = ["--dt", "0.01", "--epsilon", "0.001", "--seed", "42"]

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.load_ms": "ms",
    "cli.load_frac": "frac",
    "symmetry.build_ms": "ms",
    "symmetry.isotropy_calls": "count",
    "momentum.invariance_ms": "ms",
    "momentum.map_builds": "count",
    "linalg.orthonormalize_ms": "ms",
    "linalg.orthonormalize_calls": "count",
    "linalg.nullspace_calls": "count",
    "witt_artin.frame_frac": "frac",
    "witt_artin.frame_calls": "count",
    "certify.search_frac": "frac",
    "certify.solve_frac": "frac",
    "certify.restricted_hessian_calls": "count",
    "phase_space.grad_calls": "count",
    "phase_space.grad_us": "us",
    "phase_space.hess_calls": "count",
    "phase_space.hess_us": "us",
    "phase_space.value_calls": "count",
    "phase_space.frac": "frac",
    "dynamics.integrate_frac": "frac",
    "dynamics.probe_self_frac": "frac",
    "dynamics.orbit_evals": "count",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


# -- workloads ------------------------------------------------------------------


def plan(workload, seed):
    """(system name, system dict, argv after the file) for one pass.

    certify_catalog: every catalogue system once.  probe_flow: 3 quadratic
    (linear LU path) and 7 quartic (Newton path) systems, sized so both paths
    take about the same share; the median op is quartic, the tail linear.
    probe_orbit: 5 circle-orbit and 2 torus-orbit systems at a horizon of 5
    steps, so every step is an orbit-distance checkpoint; the median op has
    1-dim K, the tail 2-dim K.
    """
    if workload == "certify_catalog":
        return [(name, data, []) for name, data in inputs.certify_catalog(seed)]
    if workload == "probe_flow":
        out = []
        for name, data in inputs.probe_flow_systems(seed, quadratic=3, quartic=7):
            horizon = "300" if name.startswith("pair") else "1.8"
            out.append((name, data, ["--horizon", horizon, "--samples", "1"] + PROBE_COMMON))
        return out
    if workload == "probe_orbit":
        return [(name, data, ["--horizon", "0.05", "--samples", "1"] + PROBE_COMMON)
                for name, data in inputs.probe_orbit_systems(seed, circle=5, torus=2)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("certify_catalog", "probe_flow", "probe_orbit")


def probe_steps(argv):
    """Integrator steps one probe op takes: samples * ceil(horizon / dt)."""
    opts = dict(zip(argv[0::2], argv[1::2]))
    steps = max(1, math.ceil(float(opts["--horizon"]) / float(opts["--dt"])))
    return steps * int(opts["--samples"])


# -- running ops ----------------------------------------------------------------


class Op:
    __slots__ = ("index", "name", "kind", "argv", "seconds", "code", "stdout",
                 "error", "traced", "csv_rows", "causes")

    def __init__(self, index, name, kind, argv, traced):
        self.index, self.name, self.kind, self.argv, self.traced = index, name, kind, argv, traced
        self.seconds = 0.0
        self.code = None
        self.stdout = self.error = ""
        self.csv_rows = 0
        self.causes = []


def call_main(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def run_pass(main, items, paths, ops, tracer=None, csv_path=None, points=None, checkpoints=None):
    """Run one pass; return its wall time.  Outputs are kept for checking,
    and a traced probe's CSV checkpoints are checked right after the op."""
    t_pass = time.perf_counter()
    for name, kind, argv in items:
        argv = [kind, str(paths[name])] + argv
        if tracer is not None and kind == "probe":
            argv = argv + ["--csv", str(csv_path)]
        op = Op(len(ops), name, kind, argv, traced=tracer is not None)
        ops.append(op)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op.code, op.stdout, _ = call_main(main, argv)
            else:
                op.code, op.stdout, _ = tracer.run_op(op.index, lambda: call_main(main, argv))
        except Exception as exc:  # an op that raises counts as failed, with its cause
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        if tracer is not None and kind == "probe" and not op.error and op.code == 0:
            xs, causes = checks.check_csv(csv_path, points[name])
            op.csv_rows = len(xs)
            op.causes.extend(causes)
            checkpoints.setdefault(name, xs)
    return time.perf_counter() - t_pass


def measure_setup():
    """Median seconds of a cold ``import slicecert`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import slicecert; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values), values


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND ops
    beyond it; with too few ops, the maximum and percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# -- metrics --------------------------------------------------------------------


def layer_metrics(table, traced_ops, reports, orbit_eval_ms, overhead):
    """Per-layer metrics over the traced ops, plus figures for the log."""
    n = max(1, len(traced_ops))
    op_time = table.op_time()
    frac = (lambda t: t / op_time) if op_time > 0 else (lambda t: 0.0)
    per_op_ms = lambda name: 1e3 * table.total(name) / n  # noqa: E731

    def mean_us(name):
        calls = table.count(name)
        return 1e6 * table.total(name) / calls if calls else 0.0

    probe_ops = [op for op in traced_ops if op.kind == "probe"]
    steps = sum(probe_steps(op.argv[2:]) for op in probe_ops)
    poly_or_integrate = lambda s: s.startswith("phase_space.") or s == "dynamics.integrate"  # noqa: E731
    metrics = {
        "cli.load_ms": per_op_ms("cli.load_system"),
        "cli.load_frac": frac(table.total("cli.load_system")),
        "symmetry.build_ms": per_op_ms("symmetry.build"),
        "symmetry.isotropy_calls": table.count("symmetry.isotropy_algebra") / n,
        "momentum.invariance_ms": per_op_ms("momentum.invariance_residual"),
        "momentum.map_builds": table.count("momentum.map_init") / n,
        "linalg.orthonormalize_ms": per_op_ms("linalg.orthonormalize"),
        "linalg.orthonormalize_calls": table.count("linalg.orthonormalize") / n,
        "linalg.nullspace_calls": table.count("linalg.nullspace") / n,
        "witt_artin.frame_frac": frac(table.total("witt_artin.frame")),
        "witt_artin.frame_calls": table.count("witt_artin.frame") / n,
        "certify.search_frac": frac(table.total("certify.definiteness_search")),
        "certify.solve_frac": frac(table.total("certify.solve_velocities")),
        "certify.restricted_hessian_calls": table.count("certify.restricted_hessian") / n,
        "phase_space.grad_calls": table.count("phase_space.gradient") / n,
        "phase_space.grad_us": mean_us("phase_space.gradient"),
        "phase_space.hess_calls": table.count("phase_space.hessian") / n,
        "phase_space.hess_us": mean_us("phase_space.hessian"),
        "phase_space.value_calls": table.count("phase_space.value") / n,
        "phase_space.frac": frac(table.layer_entry_time("phase_space")),
        "dynamics.integrate_frac": frac(table.total("dynamics.integrate")),
        "dynamics.probe_self_frac": frac(table.exclusive_of("dynamics.stability_probe", poly_or_integrate)),
        "dynamics.orbit_evals": sum(op.csv_rows for op in probe_ops) / n,
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": frac(table.unattributed()),
    }
    extra = {
        "certify.search_ms": per_op_ms("certify.definiteness_search"),
        "certify.solve_ms": per_op_ms("certify.solve_velocities"),
        "witt_artin.frame_ms": per_op_ms("witt_artin.frame"),
        "dynamics.integrate_ms": per_op_ms("dynamics.integrate"),
        "dynamics.step_us": 1e6 * table.total("dynamics.integrate") / steps if steps else None,
        "dynamics.orbit_eval_ms": orbit_eval_ms,
        "trace.unattributed_ms": 1e3 * table.unattributed() / n,
    }
    for layer in tracing.LAYERS:
        extra[f"{layer}.self_ms"] = 1e3 * table.layer_self(layer) / n
    by_dim = {}
    for op in traced_ops:
        dim = reports.get(op.index, {}).get("familyDim")
        if dim is not None:
            by_dim.setdefault(dim, []).append(op.index)
    for dim, ids in sorted(by_dim.items()):
        t = table.op_time(ids)
        extra[f"certify.search_frac[familyDim={dim}]"] = (
            table.total("certify.definiteness_search", ids) / t if t else 0.0)
    return metrics, extra


def time_orbit_distance(sc, systems, csv_rows_by_system, limit=8):
    """Median ms of the public orbit_distance(..., starts=4) on this
    workload's own checkpoints."""
    times = []
    for name, rows in csv_rows_by_system.items():
        system = systems[name]
        mm = sc.MomentumMap(system.space, system.algebra)
        sub_k = sc.momentum_isotropy_algebra(system.algebra, mm.value(system.point))
        for x in rows[:max(1, limit // len(csv_rows_by_system))]:
            t0 = time.perf_counter()
            sc.orbit_distance(system.space, system.algebra, x, system.point, sub_k,
                              starts=4, rng=np.random.default_rng(0))
            times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times) if times else None


# -- main -------------------------------------------------------------------------


def facts(args, fingerprint, n_inputs):
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        "inputs": n_inputs,
        "input_fingerprint": fingerprint,
        "clients": 1,
        "loop": "closed",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import slicecert from this checkout's src/, never from elsewhere."""
    if not (SRC / "slicecert" / "__init__.py").is_file():
        raise SystemExit(f"error: no slicecert sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import slicecert
    import slicecert.cli

    if Path(slicecert.__file__).resolve().parent != (SRC / "slicecert").resolve():
        raise SystemExit(f"error: imported slicecert from {slicecert.__file__}, not {SRC}")
    return slicecert


def main(argv=None):
    args = parse_args(argv)
    sc = import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, sc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def calibration_ms():
    """Time of a fixed pure-Python loop, a yardstick for how fast the machine
    runs at that moment; printed with the facts, never a metric."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return 1e3 * (time.perf_counter() - t0)


def certify_probe_inputs(sc, paths):
    """Which probe inputs certify STABLE; escape is a failure only there."""
    stable = {}
    for name in paths:
        code, stdout, _ = call_main(sc.cli.main, ["certify", str(paths[name])])
        report, _ = checks.parse_report(stdout)
        stable[name] = code == 0 and (report or {}).get("verdict") in checks.STABLE
    return stable


def timed_loop(sc, args, items, paths, points, csv_path):
    """Whole passes until the next one would overrun --seconds.  With
    tracing, odd passes are traced and even ones are not."""
    ops, pass_times, checkpoints = [], [], {}
    tracer = tracing.Tracer() if args.trace else None
    needed = 2 if args.trace else 1
    while True:
        traced_pass = tracer is not None and len(pass_times) % 2 == 1
        if traced_pass:
            tracer.install()
        try:
            pass_times.append(run_pass(sc.cli.main, items, paths, ops, tracer if traced_pass else None,
                                       csv_path, points, checkpoints))
        finally:
            if traced_pass:
                tracer.uninstall()
        if len(pass_times) >= needed and sum(pass_times) + pass_times[-1] > args.seconds:
            return ops, pass_times, tracer, checkpoints


def check_ops(ops, certifier, paths, stable):
    for op in ops:
        if op.error:
            op.causes.append(op.error)
        elif op.kind == "certify":
            op.causes.extend(certifier.check(op.name, paths[op.name], op.code, op.stdout))
        else:
            op.causes.extend(checks.check_probe(op.code, op.stdout, stable[op.name]))
    return [op for op in ops if op.causes]


def end_to_end_metrics(ops, pass_times, width, setup, log):
    times = [op.seconds for op in ops]
    tail_s, pct = tail(times)
    rates = [sum(not op.causes for op in ops[k * width:(k + 1) * width]) / t
             for k, t in enumerate(pass_times)]
    passed = sum(not op.causes for op in ops)
    log(f"ops_per_s is the median over {len(rates)} passes of passed ops per second; "
        f"over the whole loop it is {passed / sum(pass_times):.6g}")
    log(f"op_p50_ms over {len(ops)} ops; op_tail_ms is p{pct:.2f} over {len(ops)} ops "
        f"({TAIL_BEYOND} beyond)")
    return {
        "setup_s": setup,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_metrics(sc, args, ops, tracer, checkpoints, certifier, paths, log):
    untraced = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    base = sum(op.seconds for op in untraced) / len(untraced)
    overhead = (sum(op.seconds for op in traced) / len(traced) - base) / base
    spans = tracer.spans()
    tracer.save(WORK / f"spans-{args.workload}.npz")
    table = tracing.SpanTable(spans)
    reports = {op.index: checks.parse_report(op.stdout)[0] or {} for op in traced}
    systems = {name: certifier.system(paths[name]) for name in checkpoints}
    orbit_ms = time_orbit_distance(sc, systems, checkpoints)
    metrics, extra = layer_metrics(table, traced, reports, orbit_ms, overhead)
    log("spans:", len(spans["start"]), "absent targets:", ",".join(tracer.absent) or "none",
        "traced ops:", len(traced), "untraced ops:", len(untraced))
    for key, value in extra.items():
        log(f"{key}: {'absent' if value is None else f'{value:.6g}'}")
    return metrics


def run(args, sc, workdir):
    log = lambda *parts: print(*parts, flush=True)  # noqa: E731
    entries = plan(args.workload, args.seed)
    paths, fingerprint = inputs.write_systems([(name, data) for name, data, _ in entries], workdir)
    kind = "certify" if args.workload == "certify_catalog" else "probe"
    items = [(name, kind, extra) for name, _, extra in entries]
    points = {name: data["point"] for name, data, _ in entries}
    log("facts:", json.dumps(facts(args, fingerprint, len(entries))))
    log(f"calibration_ms at start: {calibration_ms():.2f}")

    stable = {}
    if kind == "probe":
        stable = certify_probe_inputs(sc, paths)
        log("probe inputs certified STABLE:", sum(stable.values()), "of", len(stable))
    setup = None
    if not args.trace:
        setup, setup_values = measure_setup()
        log("setup_s values:", " ".join(f"{v:.4f}" for v in setup_values))

    warm = []
    run_pass(sc.cli.main, items, paths, warm)  # lazy imports finish before timing
    ops, pass_times, tracer, checkpoints = timed_loop(sc, args, items, paths, points, workdir / "probe.csv")
    log(f"calibration_ms at end: {calibration_ms():.2f}")

    certifier = checks.CertifyChecker(sc)
    warm_failed = check_ops(warm, certifier, paths, stable)
    failed = check_ops(ops, certifier, paths, stable)
    for label, op in [("warm-up op", op) for op in warm_failed] + [("op", op) for op in failed]:
        log(f"FAILED {label} {op.index} {' '.join(op.argv[:2])}: {'; '.join(op.causes)}")
    log(f"passes: {len(pass_times)} ops: {len(ops)} failed: {len(failed)} "
        f"fail_frac: {len(failed) / len(ops):.6f} timed_s: {sum(pass_times):.3f}")
    by_name = {}
    for op in ops:
        by_name.setdefault(op.name, []).append(1e3 * op.seconds)
    log("median ms by input:", " ".join(f"{k}={statistics.median(v):.1f}" for k, v in by_name.items()))
    if kind == "certify":
        certified = sum(1 for op in ops if not op.causes
                        and (checks.parse_report(op.stdout)[0] or {}).get("verdict") in checks.STABLE)
        log(f"certified_frac: {certified / len(ops):.6f} ({certified} of {len(ops)} ops)")

    if args.trace:
        metrics = trace_metrics(sc, args, ops, tracer, checkpoints, certifier, paths, log)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(ops, pass_times, len(items), setup, log)
        units = END_TO_END
    for key, value in metrics.items():
        log(f"{key}: {value:.6g} {units[key]}")
    result = {
        "correct": not failed and not warm_failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": float(value), "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
