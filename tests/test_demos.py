"""Every demo script runs to completion and prints its recorded stdout.

The recorded files live in ``tests/fixtures/demos/``, one ``<demo>.out`` per
script.  A change that moves a printed digit must re-record the file and say
why the new digits are right.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "demos"


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in FIXTURES.glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (FIXTURES / f"{demo.stem}.out").read_bytes()
