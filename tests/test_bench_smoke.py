"""The benchmark's traced runs still install their hooks and check their outputs.

`perfbench/run.py --trace 1` wraps library functions it looks up by name
(`identity.trace_poly_symbolic`, `poly.divisors`, ...); a rename in the
library breaks it without failing any other test.  One traced run per
in-process workload, with no timed budget beyond its minimum rounds, from a
copy of `src/` and `perfbench/` so that the working tree's `perfbench/out/`
is left as it was.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _listing(directory: Path) -> dict:
    """File names and modification times under `directory` ({} if absent)."""
    if not directory.is_dir():
        return {}
    return {str(p.relative_to(directory)): p.stat().st_mtime_ns for p in directory.rglob("*")}


@pytest.mark.parametrize("workload", ["identity-sweep", "reduce-search", "numeric-crosscheck"])
def test_traced_run_is_correct(workload, tmp_path):
    out_dir = ROOT / "perfbench" / "out"
    before = _listing(out_dir)
    skip = shutil.ignore_patterns("__pycache__", "out")
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert _listing(out_dir) == before
