"""The lockstep search and the one-pass frame against their oracles on the
benchmark's certify catalog, seed 1.

CI's "Search smoke" and "Frame smoke" steps make the same two comparisons,
with the same agreement rules, for catalog seeds 1-3.  The catalog systems
are written by ``perfbench/inputs.py``, which is only imported.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from slicecert import certify, cli, load_system

import reference

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def catalog_paths(tmp_path_factory):
    paths, _ = inputs.write_systems(inputs.certify_catalog(SEED), tmp_path_factory.mktemp("catalog"))
    return [str(path) for path in paths.values()]


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def test_lockstep_search_gives_the_sequential_bits(catalog_paths, monkeypatch):
    # certify at the default seed and at --seed 3: stdout, stderr and exit
    # codes must agree exactly
    argvs = [["certify", path, *extra] for path in catalog_paths for extra in ([], ["--seed", "3"])]
    shipped = [_run(argv) for argv in argvs]
    monkeypatch.setattr(certify, "_ascend_lambda_min", lambda h0, dirs, rng: reference.sequential_ascend_lambda_min(
        h0, dirs, rng, certify.SEARCH_RESTARTS, certify.SEARCH_BOX, certify.SEARCH_MAX_ITER))
    sequential = [_run(argv) for argv in argvs]
    assert [argv for argv, a, b in zip(argvs, shipped, sequential) if a != b] == []


def _close(a, b):
    return a == b or np.allclose(a, b, rtol=1e-12, atol=1e-12)


def _projectors_agree(path, mine, theirs):
    metric = load_system(path).space.metric
    for key in mine:
        a, b = np.array(mine[key], dtype=float), np.array(theirs[key], dtype=float)
        if a.shape != b.shape or not _close((a @ a.T @ metric).tolist(), (b @ b.T @ metric).tolist()):
            return False
    return True


def _agree(path, a, b):
    """Every report field exactly, except certify's spectrum and margin to
    1e-12, and analyze's wittArtinBases by their metric projectors B B^T M."""
    loose = {"spectrum", "margin", "wittArtinBases"}
    if {k: v for k, v in a.items() if k not in loose} != {k: v for k, v in b.items() if k not in loose}:
        return False
    if "wittArtinBases" in a and not _projectors_agree(path, a["wittArtinBases"], b["wittArtinBases"]):
        return False
    return all(_close(a[k], b[k]) for k in ("spectrum", "margin") if k in a)


def test_one_pass_frame_spans_the_reference_frame(catalog_paths, monkeypatch):
    argvs = [argv for path in catalog_paths
             for argv in (["analyze", path], ["certify", path], ["certify", path, "--seed", "3"])]
    shipped = [_run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "witt_artin_frame", reference.reference_witt_artin_frame)
    oracle = [_run(argv) for argv in argvs]
    bad = [argv for argv, a, b in zip(argvs, shipped, oracle)
           if a[0] != b[0] or not _agree(argv[1], json.loads(a[1]), json.loads(b[1]))]
    assert bad == []
