"""Golden reports: certify, analyze and a short probe on every fixture.

``golden_reports.json`` holds the JSON reports and exit codes of
``cmd_certify``, ``cmd_analyze`` and ``cmd_probe(horizon=0.05, samples=2)``
over ``example1``, ``saddle`` and the ten suite systems, and those of
``cmd_certify`` with ``--velocity`` set to the searched ``xiStar`` and to
``xiPerp``.  A refactor must reproduce them: verdicts, strings, booleans,
integers, exit codes and key order exactly, floats to 1e-12.  Rewrite the
file (``python tests/test_golden.py``) only for a change that is meant to
alter a report, and say so in CHANGES.md.
"""

import json
import math
from pathlib import Path

import pytest

from slicecert import load_system
from slicecert.cli import _jsonable, cmd_analyze, cmd_certify, cmd_probe

from systems import random_system_suite

GOLDEN = Path(__file__).with_name("golden_reports.json")
FLOAT_TOL = 1e-12


def _record(report, code):
    return {"exitCode": code, "report": json.loads(json.dumps(_jsonable(report)))}


def _certify_at_velocities(system):
    """certify --velocity at the searched xiStar and at xiPerp, one record each."""
    searched, _ = cmd_certify(system)
    return {key: _record(*cmd_certify(system, velocity=searched[key])) for key in ("xiStar", "xiPerp")}


COMMANDS = {
    "certify": lambda system: _record(*cmd_certify(system)),
    "analyze": lambda system: _record(*cmd_analyze(system)),
    "probe": lambda system: _record(*cmd_probe(system, horizon=0.05, samples=2)),
    "certifyVelocity": _certify_at_velocities,
}


def _systems():
    named = {"example1": load_system("example1"), "saddle": load_system("saddle")}
    named.update({f"suite{i}": s for i, s in enumerate(random_system_suite())})
    return named


def _mismatch(expected, actual, path="$"):
    """First difference between two JSON values as a message, or None."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
            return None
        return f"{path}: {actual!r} != {expected!r}"
    if type(expected) is not type(actual):
        return f"{path}: type {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return f"{path}: keys {list(actual)} != {list(expected)}"
        for key in expected:
            msg = _mismatch(expected[key], actual[key], f"{path}.{key}")
            if msg:
                return msg
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            msg = _mismatch(e, a, f"{path}[{i}]")
            if msg:
                return msg
        return None
    return None if expected == actual else f"{path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def systems():
    return _systems()


CASES = [
    (name, command)
    for name in ["example1", "saddle"] + [f"suite{i}" for i in range(10)]
    for command in COMMANDS
]


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_report_matches_golden(golden, systems, name, command):
    msg = _mismatch(golden[name][command], COMMANDS[command](systems[name]))
    assert msg is None, msg


def test_golden_covers_every_case(golden):
    assert sorted((n, c) for n in golden for c in golden[n]) == sorted(CASES)


def test_mismatch_is_strict_on_types_order_and_floats():
    assert _mismatch({"a": 1, "b": 2.0}, {"a": 1, "b": 2.0 + 1e-13}) is None
    assert _mismatch({"a": 1, "b": 2.0}, {"b": 2.0, "a": 1})
    assert _mismatch({"a": 1}, {"a": 1.0})
    assert _mismatch([1.0], [1.0 + 1e-9])
    assert _mismatch({"v": "STABLE_POS_DEF"}, {"v": "INCONCLUSIVE"})
    assert _mismatch([True], [1])


if __name__ == "__main__":
    reports = {
        name: {command: run(system) for command, run in COMMANDS.items()}
        for name, system in _systems().items()
    }
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n")
