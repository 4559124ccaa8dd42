"""Golden CLI outputs, replayed byte for byte.

``tests/golden/hodge_ideal.json`` holds the exit code and the exact stdout
of ``dethodge hodge-ideal`` in text and JSON form for n = 1..6 and
k = 0..7, and with ``--box 4`` at n = 3, 4. A change that alters any of
them fails here. To re-record after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from dethodge.cli import main

GOLDEN = Path(__file__).parent / "golden" / "hodge_ideal.json"


def hodge_ideal_cases() -> list[list[str]]:
    cases = []
    for n in range(1, 7):
        for k in range(8):
            boxes = ([], ["--box", "4"]) if n in (3, 4) else ([],)
            for box in boxes:
                for fmt in ("text", "json"):
                    cases.append(
                        ["hodge-ideal", "--n", str(n), "--k", str(k), *box, "--format", fmt]
                    )
    return cases


def invoke(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@functools.cache
def recorded() -> dict[str, dict]:
    return {" ".join(record["argv"]): record for record in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert list(recorded()) == [" ".join(argv) for argv in hodge_ideal_cases()]


@pytest.mark.parametrize("argv", hodge_ideal_cases(), ids=" ".join)
def test_hodge_ideal_output_is_unchanged(argv):
    assert invoke(argv) == recorded()[" ".join(argv)]


if __name__ == "__main__":
    records = [json.dumps(invoke(argv)) for argv in hodge_ideal_cases()]
    GOLDEN.write_text("[\n" + ",\n".join(records) + "\n]\n")
    print(f"wrote {GOLDEN}")
