"""Every demo script runs to completion and prints its committed output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "demos"


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN / f"{demo.stem}.out"
    assert proc.stdout == golden.read_text(), (
        f"demos/{demo.name} prints other than tests/data/demos/{golden.name}; "
        "if the new output is intended, regenerate the file with "
        f"`PYTHONPATH=src python demos/{demo.name} > tests/data/demos/{golden.name}` "
        "and explain the change in CHANGES.md"
    )
