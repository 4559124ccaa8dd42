"""Golden CLI outputs, replayed byte for byte.

Each file in ``tests/golden/`` holds the exit code and the exact output of
a list of ``dethodge`` invocations, in text and JSON form:

* ``hodge_ideal.json``: ``hodge-ideal`` for n = 1..6 and k = 0..7, and
  with ``--box 4`` at n = 3, 4;
* ``verify.json``: the ``equivalence``, ``weights``, ``qidentity`` and
  ``decomposition`` suites, ``oracle`` at the default seed and at seed 7,
  and ``decomposition --m 4 --n 2``;
* ``weights_table.json``: square and (n+2)-by-n spaces for n = 1..5;
* ``decompose.json``: both routes, every p, on six spaces;
* ``hilbert.json``: every descriptor kind, with ``--box`` only for the
  sets that hold weights with negative entries;
* ``filtration.json``: ``--weight``, ``--box``, both, and the default;
* ``oracle_check.json``: three (n, p) cases at the default seed and at 7;
* ``usage.json``: every ``--help``, argparse's usage errors and the
  ``ValueError`` refusals that exit 2;
* ``demos.json``: the exit code and stdout of each script in ``demos/``,
  run in its own process and replayed by ``tests/test_demos.py``.

The first two files keep stdout only; the others keep stderr as well.
Usage and help text is argparse's, formatted for an 80-column terminal
(``COLUMNS=80`` is set while recording and replaying) by the Python that
recorded it (3.11); another Python version may word it differently.

A change that alters any of them fails here. To re-record after an
intended output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dethodge
from dethodge.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FORMATS = ("text", "json")
COLUMNS = "80"
SUBCOMMANDS = (
    "hodge-ideal",
    "filtration",
    "weights-table",
    "decompose",
    "hilbert",
    "oracle-check",
    "verify",
)


def hodge_ideal_cases() -> list[list[str]]:
    cases = []
    for n in range(1, 7):
        for k in range(8):
            boxes = ([], ["--box", "4"]) if n in (3, 4) else ([],)
            for box in boxes:
                for fmt in FORMATS:
                    cases.append(
                        ["hodge-ideal", "--n", str(n), "--k", str(k), *box, "--format", fmt]
                    )
    return cases


def verify_cases() -> list[list[str]]:
    runs = [[suite] for suite in ("equivalence", "weights", "qidentity", "decomposition")]
    runs += [["oracle"], ["oracle", "--seed", "7"], ["decomposition", "--m", "4", "--n", "2"]]
    return [["verify", *run, "--format", fmt] for run in runs for fmt in FORMATS]


def weights_table_cases() -> list[list[str]]:
    spaces = [(n, n) for n in range(1, 6)] + [(n + 2, n) for n in range(1, 6)]
    return [
        ["weights-table", "--m", str(m), "--n", str(n), "--format", fmt]
        for m, n in spaces
        for fmt in FORMATS
    ]


def decompose_cases() -> list[list[str]]:
    return [
        ["decompose", "--m", str(m), "--n", str(n), "--p", str(p), *route, "--format", fmt]
        for m, n in ((1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 2))
        for p in range(n + 1)
        for route in ([], ["--solve"])
        for fmt in FORMATS
    ]


def hilbert_cases() -> list[list[str]]:
    runs = [
        ["Ik(n=2,k=3)", "--dmax", "8"],
        ["Ik(n=3,k=2)", "--dmax", "6"],
        ["Jpd(n=3,p=2,d=2)", "--dmax", "6"],
        ["Jpd(2,1,3)", "--dmax", "5"],
        ["FkSdet(n=2,k=1)", "--dmax", "4", "--box", "4"],
        ["Wp(2,2,1)", "--dmax", "4", "--box", "4"],
        ["Wp(m=3,n=3,p=2)", "--dmax", "3", "--box", "3"],
        ["Wpd(2,2,1,1)", "--dmax", "4", "--box", "4"],
        ["Ukp(2,1,1)", "--dmax", "4", "--box", "4"],
        ["Empty(2,2,0)", "--dmax", "2", "--box", "2"],
    ]
    return [["hilbert", "--set", *run, "--format", fmt] for run in runs for fmt in FORMATS]


def filtration_cases() -> list[list[str]]:
    runs = [
        ["--n", "2", "--k", "2", "--weight", "0,-3"],
        ["--n", "2", "--k", "2", "--weight", "0,-4"],
        ["--n", "3", "--k", "1", "--weight", "1,0,-2"],
        ["--n", "3", "--k", "0", "--weight", "(0,0,-1)"],
        ["--n", "2", "--k", "1", "--box", "3"],
        ["--n", "3", "--k", "2", "--box", "2"],
        ["--n", "2", "--k", "2", "--weight", "0,-3", "--box", "3"],
    ]
    runs += [["--n", str(n), "--k", "0"] for n in range(1, 6)]
    return [["filtration", *run, "--format", fmt] for run in runs for fmt in FORMATS]


def oracle_check_cases() -> list[list[str]]:
    runs = [
        ["--n", "2", "--p", "1"],
        ["--n", "2", "--p", "2"],
        ["--n", "3", "--p", "2", "--dmax", "3", "--lmax", "4"],
    ]
    return [
        ["oracle-check", *run, *seed, "--format", fmt]
        for seed in ([], ["--seed", "7"])
        for run in runs
        for fmt in FORMATS
    ]


def usage_cases() -> list[list[str]]:
    return [
        ["--help"],
        *([command, "--help"] for command in SUBCOMMANDS),
        [],
        ["nonsense"],
        ["verify", "nonsense"],
        ["hodge-ideal", "--n", "3"],
        ["hodge-ideal", "--n", "3", "--k", "-1"],
        ["filtration", "--n", "2", "--k", "1", "--weight=a"],
        ["decompose", "--m", "3", "--n", "2", "--p", "1", "--solve", "--closed"],
        ["oracle-check", "--n", "2", "--p", "1", "--dmax", "0"],
        # ValueError refusals, printed by main with exit code 2.
        ["weights-table", "--m", "2", "--n", "3"],
        ["hilbert", "--set", "Wp(3,2,5)", "--box", "2"],
        ["hilbert", "--set", "Wp(2,2,1)"],
        ["oracle-check", "--n", "2", "--p", "5"],
        ["verify", "weights", "--m", "2", "--n", "2"],
    ]


GOLDEN = {
    "hodge_ideal.json": hodge_ideal_cases,
    "verify.json": verify_cases,
    "weights_table.json": weights_table_cases,
    "decompose.json": decompose_cases,
    "hilbert.json": hilbert_cases,
    "filtration.json": filtration_cases,
    "oracle_check.json": oracle_check_cases,
    "usage.json": usage_cases,
}
# Recorded before stderr was kept.
STDOUT_ONLY = {"hodge_ideal.json", "verify.json"}


def invoke(argv: list[str], name: str) -> dict:
    """The record of one in-process ``main(argv)`` call, in the shape that
    golden file ``name`` keeps."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    record = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if name not in STDOUT_ONLY:
        record["stderr"] = err.getvalue()
    return record


@functools.cache
def recorded(name: str) -> dict[str, dict]:
    records = json.loads((GOLDEN_DIR / name).read_text())
    return {" ".join(record["argv"]): record for record in records}


@pytest.fixture(autouse=True)
def _fixed_terminal_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


def test_golden_covers_every_case():
    for name, cases in GOLDEN.items():
        assert list(recorded(name)) == [" ".join(argv) for argv in cases()], name


@pytest.mark.parametrize("argv", hodge_ideal_cases(), ids=" ".join)
def test_hodge_ideal_output_is_unchanged(argv):
    assert invoke(argv, "hodge_ideal.json") == recorded("hodge_ideal.json")[" ".join(argv)]


@pytest.mark.parametrize("argv", verify_cases(), ids=" ".join)
def test_verify_output_is_unchanged(argv):
    assert invoke(argv, "verify.json") == recorded("verify.json")[" ".join(argv)]


SUBCOMMAND_CASES = [
    (name, argv)
    for name in GOLDEN
    if name not in ("hodge_ideal.json", "verify.json")
    for argv in GOLDEN[name]()
]


@pytest.mark.parametrize(
    "name,argv", SUBCOMMAND_CASES, ids=[" ".join(argv) or "(none)" for _, argv in SUBCOMMAND_CASES]
)
def test_subcommand_output_is_unchanged(name, argv):
    assert invoke(argv, name) == recorded(name)[" ".join(argv)]


def test_one_process_replays_every_golden_in_shuffled_order():
    # Every golden call, usage errors and refusals included, in one fixed
    # shuffled order within this one process: no call may leave state that
    # changes the output of a later one.
    cases = [(name, argv) for name, make in GOLDEN.items() for argv in make()]
    random.Random(20201).shuffle(cases)
    for name, argv in cases:
        assert invoke(argv, name) == recorded(name)[" ".join(argv)], argv


def test_python_m_dethodge_prints_the_golden_help():
    # A one-shot process prints what the in-process, reused parser printed.
    src = str(Path(dethodge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, COLUMNS=COLUMNS, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-m", "dethodge", "--help"],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    golden = recorded("usage.json")["--help"]
    assert (run.returncode, run.stdout, run.stderr) == (
        golden["exit"], golden["stdout"], golden["stderr"]
    )


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    for name, cases in GOLDEN.items():
        records = [json.dumps(invoke(argv, name)) for argv in cases()]
        (GOLDEN_DIR / name).write_text("[\n" + ",\n".join(records) + "\n]\n")
        print(f"wrote {GOLDEN_DIR / name}")
    from test_demos import DEMOS, GOLDEN as DEMO_GOLDEN, demo_record, run_demo

    records = [json.dumps(demo_record(demo, run_demo(demo))) for demo in DEMOS]
    DEMO_GOLDEN.write_text("[\n" + ",\n".join(records) + "\n]\n")
    print(f"wrote {DEMO_GOLDEN}")
