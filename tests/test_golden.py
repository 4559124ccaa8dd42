"""Golden CLI outputs, replayed byte for byte.

Each file in ``tests/golden/`` holds the exit code and the exact stdout of
a list of ``dethodge`` invocations, in text and JSON form:

* ``hodge_ideal.json``: ``hodge-ideal`` for n = 1..6 and k = 0..7, and
  with ``--box 4`` at n = 3, 4;
* ``verify.json``: the ``equivalence``, ``weights``, ``qidentity`` and
  ``decomposition`` suites, ``oracle`` at the default seed and at seed 7,
  and ``decomposition --m 4 --n 2``.

A change that alters any of them fails here. To re-record after an
intended output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from dethodge.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FORMATS = ("text", "json")


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


GOLDEN = {"hodge_ideal.json": hodge_ideal_cases, "verify.json": verify_cases}


def invoke(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@functools.cache
def recorded(name: str) -> dict[str, dict]:
    records = json.loads((GOLDEN_DIR / name).read_text())
    return {" ".join(record["argv"]): record for record in records}


def test_golden_covers_every_case():
    for name, cases in GOLDEN.items():
        assert list(recorded(name)) == [" ".join(argv) for argv in cases()], name


@pytest.mark.parametrize("argv", hodge_ideal_cases(), ids=" ".join)
def test_hodge_ideal_output_is_unchanged(argv):
    assert invoke(argv) == recorded("hodge_ideal.json")[" ".join(argv)]


@pytest.mark.parametrize("argv", verify_cases(), ids=" ".join)
def test_verify_output_is_unchanged(argv):
    assert invoke(argv) == recorded("verify.json")[" ".join(argv)]


if __name__ == "__main__":
    for name, cases in GOLDEN.items():
        records = [json.dumps(invoke(argv)) for argv in cases()]
        (GOLDEN_DIR / name).write_text("[\n" + ",\n".join(records) + "\n]\n")
        print(f"wrote {GOLDEN_DIR / name}")
