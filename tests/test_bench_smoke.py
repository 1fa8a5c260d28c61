"""The benchmark's traced runs still install their hooks and check their outputs.

`perfbench/run.py --trace 1` wraps library functions it looks up by name
(`identity.trace_poly_symbolic`, `poly.divisors`, ...); a rename in the
library breaks it without failing any other test.  One traced run per
in-process workload, with no timed budget beyond its minimum rounds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["identity-sweep", "reduce-search", "numeric-crosscheck"])
def test_traced_run_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
