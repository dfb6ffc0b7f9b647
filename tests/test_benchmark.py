"""The benchmark's own tests, ``perfbench/selftest.py``, as one Tier-1 test.

pytest collects only ``tests/``, so this runs the self-test in a fresh
interpreter, as ``python3 perfbench/selftest.py`` does.  It guards the
tracer contract: every function the tracer wraps by name must still exist
and be reached (certify reaches the wrapped Poly.value, among others), and
every metric named in BENCHMARK.json must be printed with its unit.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
