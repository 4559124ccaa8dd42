"""Each demo script runs to completion against the package under src/,
prints no failed report, and prints byte for byte the stdout that
``tests/golden/demos.json`` keeps for it. To re-record after an intended
change to a demo's output, run the golden recorder,

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos.json"


def run_demo(demo):
    """One run of the demo script, in its own process, on the package
    under src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def demo_record(demo, run):
    """The record that ``demos.json`` keeps of one run."""
    return {"demo": demo.name, "exit": run.returncode, "stdout": run.stdout}


@functools.cache
def recorded():
    return {record["demo"]: record for record in json.loads(GOLDEN.read_text())}


def test_there_are_demos():
    assert DEMOS


def test_golden_covers_every_demo():
    assert list(recorded()) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    run = run_demo(demo)
    assert run.returncode == 0, run.stderr
    # a failed VerificationReport summary reads "FAIL (...)"
    assert "FAIL" not in run.stdout, run.stdout
    assert demo_record(demo, run) == recorded()[demo.name]
