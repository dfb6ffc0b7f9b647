"""System files, pipeline orchestration, and the command-line interface.

Systems are UTF-8 JSON with fields dim, omega (optional), metric (optional),
generators, structureConstants (optional), hamiltonian (monomial records),
point, algebraMetric (optional).  Reports are JSON on stdout with a short
human summary on stderr.  Exit codes: 0 = STABLE certificate (or a
non-certify command that succeeded), 2 = INCONCLUSIVE, 3 = not a relative
equilibrium (or a rejected --velocity), 4 = validation or parse failure,
command-line usage errors included.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .certify import (
    DEFINITENESS_TOL,
    definiteness_search,
    orthogonal_velocity,
    slice_pencil,
    solve_velocities,
    velocity_certificate,
)
from .errors import (
    DimensionMismatch,
    NotRelativeEquilibrium,
    ParseError,
    PreconditionViolated,
    SliceCertError,
    ValidationError,
)
from .linalg import inertia
from .momentum import invariance_residual
from .phase_space import Poly, SymplecticSpace, canonical_omega
from .symmetry import LieAlgebraBasis, compactness_certificate, normalizer_algebra
from .witt_artin import witt_artin_frame
from .dynamics import stability_probe

INVARIANCE_TOL = 1e-9

EXIT_STABLE = 0
EXIT_INCONCLUSIVE = 2
EXIT_NOT_RELATIVE_EQUILIBRIUM = 3
EXIT_VALIDATION = 4

CERTIFICATE_NOTE = (
    "Definiteness of the restricted Hessian is a sufficient condition; "
    "INCONCLUSIVE does not assert instability."
)


@dataclass(frozen=True)
class SystemDefinition:
    """A fully validated system: space, symmetry, Hamiltonian, base point."""

    space: SymplecticSpace
    algebra: LieAlgebraBasis
    hamiltonian: Poly
    point: np.ndarray
    algebra_metric: np.ndarray


def bundled_system(name):
    """Path to a system file shipped with the package (e.g. 'example1')."""
    ref = resources.files("slicecert").joinpath("systems", f"{name}.json")
    with resources.as_file(ref) as path:
        return Path(path)


def _floats(key, values):
    """Field ``key`` of a system file as a float array; anything that is not
    a rectangular array of numbers raises ParseError."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key} is not a numeric array: {exc}") from exc


def _finite(key, values):
    """Field ``key`` of a system file as a float array; non-finite entries
    raise ValidationError."""
    values = _floats(key, values)
    if not np.isfinite(values).all():
        raise ValidationError(f"{key} has a non-finite entry")
    return values


def _dimension(value):
    """The ``dim`` field as an int; anything but a whole number raises
    ParseError."""
    whole = (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value) and value == int(value)
    )
    if not whole:
        raise ParseError(f"dim must be a whole number, got {value!r}")
    return int(value)


def _records(value):
    """The ``hamiltonian`` field: a list of {"exponents", "coeff"} objects."""
    if not isinstance(value, list) or not all(
        isinstance(rec, dict) and "exponents" in rec and "coeff" in rec for rec in value
    ):
        raise ParseError('hamiltonian must be a list of {"exponents": [...], "coeff": c} records')
    return value


def system_from_dict(data):
    """Build and validate a SystemDefinition from parsed JSON data."""
    for key in ("dim", "generators", "hamiltonian", "point"):
        if key not in data:
            raise ParseError(f"missing required field '{key}'")
    dim = _dimension(data["dim"])
    omega = _finite("omega", data["omega"]) if data.get("omega") is not None else canonical_omega(dim)
    metric = _finite("metric", data["metric"]) if data.get("metric") is not None else np.eye(dim)
    space = SymplecticSpace(dim=dim, omega=omega, metric=metric)

    structure = data.get("structureConstants")
    if structure is not None:
        structure = _finite("structureConstants", structure)
    algebra = LieAlgebraBasis.build(space, _finite("generators", data["generators"]), structure=structure)

    records = _records(data["hamiltonian"])
    _finite("hamiltonian coefficients", [rec["coeff"] for rec in records])
    hamiltonian = Poly.from_records(dim, records)
    point = space.check_point(_floats("point", data["point"]))

    if data.get("algebraMetric") is not None:
        algebra_metric = _finite("algebraMetric", data["algebraMetric"])
        if algebra_metric.size == 0:
            algebra_metric = np.zeros((0, 0))
        if algebra_metric.shape != (algebra.dim, algebra.dim):
            raise ValidationError(
                f"algebraMetric must be {algebra.dim}x{algebra.dim}, got {algebra_metric.shape}"
            )
        if algebra.dim and np.linalg.eigvalsh(0.5 * (algebra_metric + algebra_metric.T)).min() <= 0:
            raise ValidationError("algebraMetric is not positive definite")
    else:
        algebra_metric = algebra.gram()

    residual = invariance_residual(space, algebra, hamiltonian)
    if residual > INVARIANCE_TOL:
        raise ValidationError(
            f"hamiltonian is not invariant under the group action (residual {residual:.3e})"
        )
    return SystemDefinition(
        space=space,
        algebra=algebra,
        hamiltonian=hamiltonian,
        point=point,
        algebra_metric=algebra_metric,
    )


def load_system(path):
    """Load, parse, and validate a system file; bundled names are resolved."""
    p = Path(path)
    if not p.exists() and p.suffix == "" and "/" not in str(path):
        candidate = bundled_system(str(path))
        if candidate.exists():
            p = candidate
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read '{path}': {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in '{path}': {exc}") from exc
    return system_from_dict(data)


def serialize_system(system):
    """Dict representation that round-trips through system_from_dict."""
    return {
        "dim": system.space.dim,
        "omega": system.space.omega.tolist(),
        "metric": system.space.metric.tolist(),
        "generators": system.algebra.generators.tolist(),
        "structureConstants": system.algebra.structure.tolist(),
        "hamiltonian": system.hamiltonian.to_records(),
        "point": system.point.tolist(),
        "algebraMetric": system.algebra_metric.tolist(),
    }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# -- commands ---------------------------------------------------------------


def cmd_validate(system):
    report = {
        "valid": True,
        "dim": system.space.dim,
        "numGenerators": system.algebra.dim,
        "hamiltonianDegree": system.hamiltonian.degree(),
        "compactnessVerified": compactness_certificate(system.algebra, system.space.metric),
    }
    return report, 0


def cmd_analyze(system, point=None):
    p = system.space.check_point(point) if point is not None else system.point
    algebra = system.algebra
    frame = witt_artin_frame(system.space, algebra, p)
    report = {
        "point": p,
        "mu": frame.mu,
        "dimAlgebra": algebra.dim,
        "dimIsotropy": frame.isotropy.dim,
        "dimMomentumIsotropy": frame.momentum_isotropy.dim,
        "dimNormalizer": normalizer_algebra(algebra, frame.isotropy, frame.momentum_isotropy).dim,
        "wittArtinDims": list(frame.dims),
        "wittArtinBases": {
            "t0": frame.basis_t0,
            "t": frame.basis_t,
            "n": frame.basis_n,
            "n0": frame.basis_n0,
        },
        "compactnessVerified": compactness_certificate(algebra, system.space.metric),
    }
    return report, 0


def _seeded_rng(seed):
    """numpy's generator for a command's ``--seed``, which must be >= 0."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def cmd_certify(system, velocity=None, seed=42):
    rng = _seeded_rng(seed)
    frame = witt_artin_frame(system.space, system.algebra, system.point)
    family = solve_velocities(system.hamiltonian, frame)
    pencil = slice_pencil(system.hamiltonian, frame, family)
    xi_perp = orthogonal_velocity(family, system.algebra_metric)
    if velocity is None:
        cert = definiteness_search(pencil, rng=rng)
    else:
        cert = velocity_certificate(pencil, velocity)
    report = {
        "verdict": cert.verdict,
        "xiStar": cert.xi_star,
        "spectrum": cert.spectrum,
        "margin": cert.margin,
        "inertiaAtXi1": list(inertia(pencil.h0, DEFINITENESS_TOL)),
        "boundaryHit": cert.boundary_hit,
        "searchDisabled": velocity is not None,
        "xiPerp": xi_perp,
        "inertiaAtXiPerp": list(inertia(pencil.at(xi_perp), DEFINITENESS_TOL)),
        "compactnessVerified": compactness_certificate(system.algebra, system.space.metric),
        "velocityResidual": family.residual,
        "familyDim": family.dim,
        "note": CERTIFICATE_NOTE,
    }
    return report, (EXIT_STABLE if cert.stable else EXIT_INCONCLUSIVE)


def cmd_probe(system, epsilon=1e-3, horizon=100.0, samples=16, dt=1e-2,
              escape_factor=100.0, seed=42, csv_path=None):
    report = stability_probe(
        system.space,
        system.algebra,
        system.hamiltonian,
        system.point,
        epsilon=epsilon,
        horizon=horizon,
        samples=samples,
        dt=dt,
        escape_factor=escape_factor,
        rng=_seeded_rng(seed),
        csv_path=csv_path,
    )
    out = {
        "epsilon": report.epsilon,
        "horizon": report.horizon,
        "samples": report.samples,
        "maxOrbitDistance": report.max_orbit_distance,
        "energyDrift": report.energy_drift,
        "momentumDrift": report.momentum_drift,
        "escaped": report.escaped,
        "solverFailures": report.solver_failures,
        "dt": report.dt,
        "escapeFactor": report.escape_factor,
    }
    return out, 0


# -- argument parsing ---------------------------------------------------------


def _parse_vector(text):
    return np.array([float(part) for part in text.split(",")])


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParseError (exit 4), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="slicecert",
        description="Certify Lyapunov stability of relative equilibria in "
        "symmetric Hamiltonian systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="load a system file and check every invariant")
    p_val.add_argument("file")

    p_ana = sub.add_parser("analyze", help="momentum, isotropy, and slice dimensions at a point")
    p_ana.add_argument("file")
    p_ana.add_argument("--point", type=_parse_vector, default=None,
                       help="comma-separated coordinates overriding the system point")

    p_cert = sub.add_parser("certify", help="search the velocity family for a definite restricted Hessian")
    p_cert.add_argument("file")
    p_cert.add_argument("--velocity", type=_parse_vector, default=None,
                        help="fixed velocity coordinates; disables the search")
    p_cert.add_argument("--seed", type=int, default=42)

    p_probe = sub.add_parser("probe", help="integrate trajectories near the point and track orbit distance")
    p_probe.add_argument("file")
    p_probe.add_argument("--epsilon", type=float, default=1e-3)
    p_probe.add_argument("--horizon", type=float, default=100.0)
    p_probe.add_argument("--samples", type=int, default=16)
    p_probe.add_argument("--dt", type=float, default=1e-2)
    p_probe.add_argument("--escape-factor", type=float, default=100.0)
    p_probe.add_argument("--csv", default=None)
    p_probe.add_argument("--seed", type=int, default=42)

    return parser


def _summary(command, report):
    if command == "certify":
        return (
            f"verdict={report['verdict']} margin={report['margin']} "
            f"xiStar={report['xiStar']} compact={report['compactnessVerified']}"
        )
    if command == "probe":
        return (
            f"escaped={report['escaped']} maxOrbitDistance={report['maxOrbitDistance']:.3e} "
            f"energyDrift={report['energyDrift']:.3e} momentumDrift={report['momentumDrift']:.3e}"
        )
    if command == "analyze":
        return (
            f"dims(h,k,n)={report['dimIsotropy']},{report['dimMomentumIsotropy']},"
            f"{report['dimNormalizer']} wittArtin={report['wittArtinDims']}"
        )
    return f"valid={report.get('valid')}"


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        system = load_system(args.file)
        if args.command == "validate":
            report, code = cmd_validate(system)
        elif args.command == "analyze":
            report, code = cmd_analyze(system, point=args.point)
        elif args.command == "certify":
            report, code = cmd_certify(system, velocity=args.velocity, seed=args.seed)
        else:
            report, code = cmd_probe(
                system,
                epsilon=args.epsilon,
                horizon=args.horizon,
                samples=args.samples,
                dt=args.dt,
                escape_factor=args.escape_factor,
                seed=args.seed,
                csv_path=args.csv,
            )
    except SliceCertError as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (NotRelativeEquilibrium, PreconditionViolated)):
            return EXIT_NOT_RELATIVE_EQUILIBRIUM
        if isinstance(exc, (ParseError, ValidationError, DimensionMismatch)):
            return EXIT_VALIDATION
        return 1

    if report.get("boundaryHit"):
        print(
            "warning: search optimum on the box boundary; the family may have "
            "an unbounded improving direction",
            file=sys.stderr,
        )
    print(json.dumps(_jsonable(report), indent=2))
    print(_summary(args.command, _jsonable(report)), file=sys.stderr)
    return code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
