"""Output checks for one benchmark op, run outside the timed interval.

Each check returns a list of failure causes; an empty list means the op
passed.  STABLE certificates are re-verified through slicecert's public
functions on a frame rebuilt with a random slice complement, so a report
that claims the wrong sign, or a velocity off the family, fails.
"""

import csv
import json
import math

import numpy as np

EXIT_STABLE = 0
EXIT_INCONCLUSIVE = 2
STABLE = ("STABLE_POS_DEF", "STABLE_NEG_DEF")
INCONCLUSIVE = "INCONCLUSIVE"

# Probe drifts allowed on the benchmark's inputs, whose Hamiltonians have
# largest coefficient 1 and whose points have norm of order 1.  Implicit
# midpoint keeps both near rounding over the short horizons used here.
ENERGY_DRIFT_BOUND = 1e-8
MOMENTUM_DRIFT_BOUND = 1e-8
# Slack on |x - p| when comparing a CSV row's orbit distance with it.
ORBIT_SLACK = 1e-12


def _error(code, report):
    """Cause for a run that printed an error object instead of a report."""
    return f"exit code {code}: {report.get('type')}: {report.get('error')}"


def parse_report(stdout):
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not one JSON report ({exc})"
    if not isinstance(report, dict):
        return None, "stdout is not a JSON object"
    return report, None


def _definite_sign(inertia_triple):
    """'POS', 'NEG' or None; an empty slice counts as definite (vacuous)."""
    n_plus, n_minus, n_zero = (int(v) for v in inertia_triple)
    if n_zero or (n_plus and n_minus):
        return None
    return "NEG" if n_minus else "POS"


class CertifyChecker:
    """Checks certify reports; re-verification is cached per distinct report."""

    def __init__(self, slicecert_module):
        self.sc = slicecert_module
        self.systems = {}
        self.verdicts = {}
        self._verified = {}

    def system(self, path):
        key = str(path)
        if key not in self.systems:
            self.systems[key] = self.sc.load_system(key)
        return self.systems[key]

    def check(self, name, path, code, stdout):
        report, err = parse_report(stdout)
        if err:
            return [err]
        if "error" in report:
            return [_error(code, report)]
        verdict = report.get("verdict")
        if verdict not in STABLE + (INCONCLUSIVE,):
            return [f"unexpected verdict {verdict!r}"]
        causes = []
        expected_code = EXIT_STABLE if verdict in STABLE else EXIT_INCONCLUSIVE
        if code != expected_code:
            causes.append(f"exit code {code} with verdict {verdict}")
        first = self.verdicts.setdefault(str(path), verdict)
        if verdict != first:
            causes.append(f"verdict {verdict} differs from {first} on the same input")
        if name == "example1":
            xi = report.get("xiStar") or [math.nan]
            if verdict != "STABLE_NEG_DEF" or not 2.0 < float(xi[0]) < 4.0:
                causes.append(f"example1 must be STABLE_NEG_DEF with xiStar in (2, 4), got {verdict} at {xi}")
        if name == "saddle" and verdict != INCONCLUSIVE:
            causes.append(f"saddle must be INCONCLUSIVE, got {verdict}")
        if stdout not in self._verified:
            self._verified[stdout] = self.verify(path, report)
        return causes + self._verified[stdout]

    def verify(self, path, report):
        """Independent re-check of one report against its system."""
        sc = self.sc
        system = self.system(path)
        space, algebra, h, p = system.space, system.algebra, system.hamiltonian, system.point
        verdict = report["verdict"]
        if verdict == INCONCLUSIVE:
            sign = _definite_sign(report.get("inertiaAtXiPerp", (0, 0, 1)))
            if sign is not None:
                return [f"INCONCLUSIVE although the Hessian at xiPerp is definite ({sign})"]
            return []
        xi = np.asarray(report.get("xiStar"), dtype=float)
        if xi.shape != (algebra.dim,) or not np.all(np.isfinite(xi)):
            return [f"xiStar {report.get('xiStar')} is not a finite algebra vector"]
        residual = sc.velocity_residual(space, algebra, h, p, xi)
        bound = sc.certify.VELOCITY_TOL * (1.0 + float(np.linalg.norm(h.gradient(p))))
        if residual > bound:
            return [f"xiStar is off the velocity family (residual {residual:.3e} > {bound:.3e})"]
        frame = sc.witt_artin_frame(space, algebra, p, rng=np.random.default_rng(12345))
        try:
            hm = sc.restricted_hessian(space, algebra, h, p, xi, frame, check=True)
        except sc.errors.SliceCertError as exc:
            return [f"restricted_hessian rejected xiStar: {exc}"]
        if hm.size == 0:
            return []
        w = np.linalg.eigvalsh(hm)
        cutoff = sc.DEFINITENESS_TOL * max(1.0, float(np.abs(hm).max()))
        claimed_pos = verdict == "STABLE_POS_DEF"
        ok = bool(np.all(w > cutoff)) if claimed_pos else bool(np.all(w < -cutoff))
        if not ok:
            return [f"{verdict} but the rebuilt restricted Hessian has eigenvalues "
                    f"in [{w[0]:.3e}, {w[-1]:.3e}]"]
        return []


def check_probe(code, stdout, stable):
    """Exit code, solver failures, finite bounded drifts, no escape when
    the input is STABLE-certified."""
    report, err = parse_report(stdout)
    if err:
        return [f"exit code {code}; {err}"]
    if "error" in report:
        return [_error(code, report)]
    causes = [] if code == 0 else [f"probe exit code {code}"]
    if report.get("solverFailures") != 0:
        causes.append(f"solverFailures = {report.get('solverFailures')}")
    for key, bound in (("energyDrift", ENERGY_DRIFT_BOUND), ("momentumDrift", MOMENTUM_DRIFT_BOUND)):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) or abs(value) > bound:
            causes.append(f"{key} = {value} outside [0, {bound:g}]")
    dist = report.get("maxOrbitDistance")
    if not isinstance(dist, (int, float)) or not math.isfinite(dist):
        causes.append(f"maxOrbitDistance = {dist} is not finite")
    if stable and report.get("escaped") is not False:
        causes.append("escaped on a STABLE-certified input")
    return causes


def check_csv(path, point):
    """(checkpoints, causes): every row's orbit distance is at most |x - p|,
    because the identity is always one of the optimizer's starts.  The
    benchmark's systems use the default identity metric."""
    point = np.asarray(point, dtype=float)
    n = len(point)
    xs, causes = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[-1] != "orbitDistance":
            return [], ["CSV has no orbitDistance column"]
        for row in reader:
            x = np.array([float(v) for v in row[2:2 + n]])
            xs.append(x)
            dist = float(row[-1])
            bound = float(np.linalg.norm(x - point))
            if not dist <= bound * (1.0 + ORBIT_SLACK) + ORBIT_SLACK:
                causes.append(f"CSV row {len(xs)}: orbitDistance {dist:.6e} > |x - p| = {bound:.6e}")
    if not xs:
        causes.append("CSV has no rows")
    return xs, causes
