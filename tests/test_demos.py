"""Each demo script runs to completion against the sources in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Lines a demo must print, beyond running to completion.
EXPECTED_LINES = {
    "identity_tour": [
        "both sides have degree 8 = 2p - 2 in Z",
        "agree coefficient-by-coefficient: True",
    ],
}


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
    for line in EXPECTED_LINES.get(demo.stem, ()):
        assert line in child.stdout
