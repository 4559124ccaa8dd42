import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dethodge
from dethodge import cli, suites
from dethodge.cli import build_parser, main
from dethodge.matrixspace import MatrixSpace
from dethodge.oracle import RankConstrainedSampler


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == "detl-hodge/1"
    return code, payload


def test_hodge_ideal_text(capsys):
    code, out = run(capsys, "hodge-ideal", "--n", "3", "--k", "2")
    assert code == 0
    assert "p=1: e=1" in out and "p=2: e=1" in out
    assert "I_2 = J_2" in out
    assert "(1,1)" in out


def test_hodge_ideal_unit(capsys):
    code, out = run(capsys, "hodge-ideal", "--n", "2", "--k", "0")
    assert code == 0
    assert "unit ideal" in out


def test_hodge_ideal_json(capsys):
    code, payload = run_json(capsys, "hodge-ideal", "--n", "3", "--k", "3")
    assert code == 0
    assert payload["exponents"] == [{"p": 1, "e": 3}, {"p": 2, "e": 2}]
    assert payload["unit_ideal"] is False
    assert payload["minimal_generators"] == [[1, 1, 1], [2, 2, 0]]


def test_hodge_ideal_large_case(capsys):
    # comb(cap+n, n) = 4.3e13 candidates for a scan; the direct build is instant
    code, payload = run_json(capsys, "hodge-ideal", "--n", "12", "--k", "12")
    assert code == 0
    assert len(payload["minimal_generators"]) == 15
    assert payload["unit_ideal"] is False


def test_hodge_ideal_beyond_the_recursion_limit(capsys):
    # n = 1200 is deeper than the interpreter's default limit of 1000 frames
    code, payload = run_json(capsys, "hodge-ideal", "--n", "1200", "--k", "0")
    assert code == 0
    assert payload["unit_ideal"] is True
    assert payload["minimal_generators"] == [[0] * 1200]
    code, out = run(capsys, "hodge-ideal", "--n", "1200", "--k", "0")
    assert code == 0
    assert "minimal generator weights: ()" in out


@pytest.mark.parametrize(
    "argv,field,expected",
    [
        (["hodge-ideal", "--n", "1200", "--k", "0", "--box", "0"], "members", [[0] * 1200]),
        (["filtration", "--n", "1200", "--k", "0", "--box", "0"], "members", [[0] * 1200]),
        (
            ["hilbert", "--set", "Ik(n=1200,k=0)", "--dmax", "1"],
            "values",
            [{"d": 0, "dim": 1}, {"d": 1, "dim": 1200 * 1200}],
        ),
    ],
)
def test_enumerations_beyond_the_recursion_limit(capsys, argv, field, expected):
    # 1200 entries are more than the interpreter's default 1000 frames
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload[field] == expected
    code, out = run(capsys, *argv)
    assert code == 0
    assert "Traceback" not in out


def test_hodge_ideal_box_members(capsys):
    code, payload = run_json(capsys, "hodge-ideal", "--n", "2", "--k", "2", "--box", "2")
    assert code == 0
    assert [1, 0] in payload["members"]
    assert [0, 0] not in payload["members"]


def test_filtration_weight(capsys):
    code, payload = run_json(
        capsys, "filtration", "--n", "2", "--k", "2", "--weight", "0,-4"
    )
    assert code == 0
    assert payload["p"] == 1
    assert payload["member"] is False
    code, payload = run_json(
        capsys, "filtration", "--n", "2", "--k", "2", "--weight", "0,-3"
    )
    assert payload["member"] is True


def test_a_weight_keeps_every_parenthesis_but_one_pair(capsys):
    # "(0,-3)" and "0,-3" are the same weight; one pair of parentheses,
    # both or neither, is all that is stripped, and each entry is an
    # optionally signed run of the digits 0-9.
    for text in ("(0,-3)", "0,-3", "( 0, -3 )", "+0,-3"):
        code, payload = run_json(capsys, "filtration", "--n", "2", "--k", "1", "--weight", text)
        assert code == 0 and payload["weight"] == [0, -3]
    for text in (")0,(-3(", "((0,-3))", "(0,(-3)", "0),-3", "(0,-3", "0,-3)", "0,-3_0", "0,-\u0663", "(a)"):
        with pytest.raises(SystemExit) as err:
            main(["filtration", "--n", "2", "--k", "1", "--weight", text])
        assert err.value.code == 2, text
        assert f"cannot parse weight {text!r}" in capsys.readouterr().err


def run_into_a_closed_pipe(code):
    """Exit code and stderr of `python -c code`, whose stdout is a pipe
    that its reader closed before reading a byte."""
    src = str(Path(dethodge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-c", code], stdout=write_end, stderr=subprocess.PIPE,
            env=env, timeout=60, check=False,
        )
    finally:
        os.close(write_end)
    return run.returncode, run.stderr.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--n", "2", "--p", "1", "--format", "json"],
        ["decompose", "--m", "40", "--n", "20", "--p", "10", "--format", "json"],
        ["--help"],
    ],
)
def test_a_closed_stdout_ends_the_output(argv):
    code = f"import sys; from dethodge.cli import main; sys.exit(main({argv!r}))"
    assert run_into_a_closed_pipe(code) == (0, "")


def test_a_failed_verify_keeps_its_exit_code_on_a_closed_stdout():
    code = (
        "import sys; from dethodge import cli, suites\n"
        "from dethodge.reporting import VerificationReport\n"
        "report = VerificationReport('forced', {})\n"
        "report.checks = 1\n"
        "report.add_failure(check='forced')\n"
        "suites.run = lambda *args: [report]\n"
        "sys.exit(cli.main(['verify', 'weights']))\n"
    )
    assert run_into_a_closed_pipe(code) == (1, "")


def test_filtration_default_generation_level(capsys):
    code, payload = run_json(capsys, "filtration", "--n", "5", "--k", "0")
    assert code == 0
    assert payload["generation_level"] == 10


def test_weights_table_square_default(capsys):
    code, out = run(capsys, "weights-table")
    assert code == 0
    lines = [line.split() for line in out.splitlines() if line and line[0].isspace()]
    rows = {int(cells[0]): cells for cells in lines if cells[0].isdigit()}
    # p=2 row: weight 4 twist 0; p=0 row: weight 6 twist -3
    assert rows[2][3] == "4" and rows[2][4] == "0"
    assert rows[0][3] == "6" and rows[0][4] == "-3"


def test_weights_table_rectangular_json(capsys):
    code, payload = run_json(capsys, "weights-table", "--m", "3", "--n", "2")
    assert code == 0
    by_p = {row["p"]: row for row in payload["rows"]}
    assert [by_p[p]["weight"] for p in (2, 1, 0)] == [6, 8, 10]
    assert [by_p[p]["twist"] for p in (2, 1, 0)] == [0, -2, -5]
    assert by_p[2]["degree"] is None
    assert by_p[1]["degree"] == 2
    assert by_p[0]["degree"] == 3


def test_weights_table_json_round_trip(capsys):
    code, payload = run_json(capsys, "weights-table", "--m", "4", "--n", "2")
    assert code == 0
    assert json.loads(json.dumps(payload)) == payload


def test_decompose_text(capsys):
    code, out = run(capsys, "decompose", "--m", "3", "--n", "2", "--p", "2")
    assert code == 0
    assert "i=2: 1" in out and "i=1: 1" in out


def test_decompose_routes_agree(capsys):
    code1, closed = run_json(capsys, "decompose", "--m", "5", "--n", "3", "--p", "2")
    code2, solved = run_json(
        capsys, "decompose", "--m", "5", "--n", "3", "--p", "2", "--solve"
    )
    assert code1 == code2 == 0
    assert closed["entries"] == solved["entries"]
    assert closed["route"] == "closed" and solved["route"] == "solver"


def test_decompose_json_poly_format(capsys):
    code, payload = run_json(capsys, "decompose", "--m", "3", "--n", "2", "--p", "1")
    assert code == 0
    entries = {row["i"]: row["poly"] for row in payload["entries"]}
    assert entries[1] == {"-1": 1, "1": 1}


@pytest.mark.parametrize("m,n,p", [(40, 20, 7), (40, 20, 20), (400, 10, 10)])
@pytest.mark.parametrize("route", [[], ["--solve"]])
def test_decompose_json_is_what_json_dumps_writes(capsys, m, n, p, route):
    # Beyond the golden files' m <= 6: the text equals json.dumps of its own
    # parse, byte for byte, and holds the table.
    code, out = run(capsys, "decompose", "--m", str(m), "--n", str(n), "--p", str(p), *route,
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload) + "\n"
    table = dethodge.pushforward_DpY(MatrixSpace(m, n), p)
    assert [row["i"] for row in payload["entries"]] == sorted(table.entries)
    for row in payload["entries"]:
        poly = table.entries[row["i"]]
        assert row["poly"] == {str(e): v for e, v in poly.items()}


def test_hilbert_ideal(capsys):
    code, payload = run_json(capsys, "hilbert", "--set", "Ik(n=2,k=3)", "--dmax", "4")
    assert code == 0
    dims = {row["d"]: row["dim"] for row in payload["values"]}
    assert dims[1] == 0  # below the generation degree of I_3 = m^2
    assert dims[2] == 10
    assert dims[3] == 20
    assert payload["truncated"] is False


def test_hilbert_stratum_set_needs_box(capsys):
    code = main(["hilbert", "--set", "Wp(2,2,1)", "--dmax", "2"])
    capsys.readouterr()
    assert code == 2
    code, payload = run_json(
        capsys, "hilbert", "--set", "Wp(2,2,2)", "--dmax", "3", "--box", "6"
    )
    assert code == 0
    assert payload["truncated"] is True
    assert payload["box"] == 6


@pytest.mark.parametrize("descriptor", ["Ik(n=2,k=1)", "Jpd(n=3,p=2,d=2)"])
def test_hilbert_refuses_box_on_a_set_of_partitions(capsys, descriptor):
    code = main(["hilbert", "--set", descriptor, "--box", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--box does not apply to {descriptor}" in captured.err


def test_hilbert_bad_descriptor(capsys):
    code = main(["hilbert", "--set", "Bogus(1,2)"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "descriptor,reason",
    [
        ("Ik(n=2,k=3,x=1)", "once, not 'x'"),
        ("Wp(m=3,n=2,p=1,d=4)", "once, not 'd'"),
        ("Wp(3,2,5)", "p=5 outside 0..2"),
        ("Wpd(3,2,1)", "takes 4 arguments (m,n,p,d)"),
        ("Ukp(2,p=1,k=0)", "mixes positional and keyword"),
    ],
)
def test_hilbert_rejects_a_bad_descriptor_with_its_reason(capsys, descriptor, reason):
    code = main(["hilbert", "--set", descriptor, "--box", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert reason in captured.err


@pytest.mark.parametrize("lone", [["--m", "2"], ["--n", "2"]])
def test_verify_with_only_one_of_m_and_n_is_a_usage_error(capsys, lone):
    code = main(["verify", "decomposition", *lone])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--m and --n" in captured.err


@pytest.mark.parametrize("suite", ["all", "equivalence", "oracle", "qidentity", "weights"])
def test_verify_refuses_m_and_n_outside_the_decomposition_suite(capsys, suite):
    code = main(["verify", suite, "--m", "2", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"only to the decomposition suite, not to {suite!r}" in captured.err


def test_oracle_check(capsys):
    code, payload = run_json(
        capsys,
        "oracle-check",
        "--n", "2", "--p", "1", "--dmax", "2",
        "--trials", "4", "--seed", "99", "--lmax", "4",
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["seed"] == 99
    report = payload["reports"][0]
    assert report["seed"] == 99
    assert all(v["agrees"] for v in report["details"])


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--p", "5"], "--p"),
        (["--p", "0"], "--p"),
        (["--p", "1", "--trials", "0"], "--trials"),
        (["--p", "1", "--trials", "-3"], "--trials"),
    ],
)
def test_oracle_check_refuses_p_and_trials_before_any_work(capsys, monkeypatch, argv, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("oracle work started before the arguments were checked")

    # The command's one call into the library, and what that call samples with.
    monkeypatch.setattr(suites, "oracle_check", no_work)
    monkeypatch.setattr(suites, "RankConstrainedSampler", no_work)
    monkeypatch.setattr(suites, "dcep_cross_validation_upto", no_work)
    try:
        code = main(["oracle-check", "--n", "2", *argv])
    except SystemExit as exit_:
        code = exit_.code
    assert code == 2
    assert flag in capsys.readouterr().err


def test_oracle_check_reports_what_verify_oracle_reports(capsys):
    # Both commands run suites.oracle_check; at the suite's sizes they
    # must give the same reports for every (n, p).
    code, suite = run_json(capsys, "verify", "oracle", "--seed", "7")
    assert code == 0
    for n, p in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        code, payload = run_json(
            capsys,
            "oracle-check", "--n", str(n), "--p", str(p), "--lmax", "6",
            "--dmax", "4", "--trials", "8", "--seed", "7",
        )
        assert code == 0
        expected = [
            r for r in suite["reports"] if (r["params"]["n"], r["params"]["p"]) == (n, p)
        ]
        assert len(expected) == 4
        assert payload["reports"] == expected


@pytest.fixture
def sampler_bounds(monkeypatch):
    """Rebind the oracle grid's sampler class to one that records the entry
    bound B of each sampler the grid builds; returns the record."""
    bounds = []

    class Recording(RankConstrainedSampler):
        def __init__(self, space, rank, bound=7, seed=0, key=()):
            bounds.append(bound)
            super().__init__(space, rank, bound, seed, key)

    monkeypatch.setattr(suites, "RankConstrainedSampler", Recording)
    return bounds


@pytest.mark.parametrize(
    "argv,bound", [((), 7), (("--lmax", "3"), 7), (("--lmax", "9"), 9)]
)
def test_oracle_check_entry_bound_is_max_of_7_and_lmax(capsys, sampler_bounds, argv, bound):
    code, payload = run_json(capsys, "oracle-check", "--n", "2", "--p", "1", *argv)
    assert code == 0 and payload["ok"]
    assert sampler_bounds == [bound]


def test_verify_oracle_entry_bound_is_7(capsys, sampler_bounds):
    # The suite runs the grid at lmax 6 for every (n, p) with n = 2, 3.
    code, payload = run_json(capsys, "verify", "oracle")
    assert code == 0 and payload["ok"]
    assert sampler_bounds == [7] * 5


def test_verify_qidentity(capsys):
    code, out = run(capsys, "verify", "qidentity")
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_decomposition_single_space(capsys):
    code, out = run(capsys, "verify", "decomposition", "--m", "5", "--n", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_weights_json(capsys):
    code, payload = run_json(capsys, "verify", "weights")
    assert code == 0
    assert payload["ok"] is True
    assert all(rep["ok"] for rep in payload["reports"])


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["hodge-ideal", "--n", "3", "--k", "-1"])
    assert err.value.code == 2
    capsys.readouterr()


def test_invalid_space_exits_2(capsys):
    code = main(["weights-table", "--m", "2", "--n", "3"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "seed_args,expected",
    [
        ([], 1729),
        (["--seed", "1729"], 1729),
        (["--seed", "-4"], -4),
        (["--seed", "3:0"], "3:0"),
        (["--seed", "007"], "007"),
    ],
)
def test_seed_is_reported_as_a_number_when_numeric(capsys, seed_args, expected):
    for argv in (
        ["verify", "decomposition", "--m", "2", "--n", "1"],
        ["oracle-check", "--n", "2", "--p", "2", "--dmax", "1", "--lmax", "2"],
    ):
        code, payload = run_json(capsys, *argv, *seed_args)
        assert code == 0
        assert payload["seed"] == expected and type(payload["seed"]) is type(expected)


def test_numeric_seed_keeps_the_sampler_stream():
    # Only seeds whose text is str(int(text)) become ints, and the sampler
    # seeds its generator from f"{seed}", so its stream does not change.
    space = MatrixSpace(2, 2)
    by_int = RankConstrainedSampler(space, 1, 7, 99)
    by_text = RankConstrainedSampler(space, 1, 7, "99")
    assert [by_int.sample() for _ in range(5)] == [by_text.sample() for _ in range(5)]
    assert by_int.reseeded("x").sample() == by_text.reseeded("x").sample()


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# Every golden CLI call; demos.json keeps the demo scripts' output instead.
GOLDEN_ARGV = [
    record["argv"]
    for path in sorted(GOLDEN_DIR.glob("*.json"))
    if path.name != "demos.json"
    for record in json.loads(path.read_text())
    if record["exit"] == 0 and "--help" not in record["argv"]
]  # help exits 0 too, but only argparse prints it
DECOMPOSE = ["decompose", "--m", "3", "--n", "2", "--p", "1"]


def invoke(argv, entry=main):
    """(exit code, stdout, stderr) of one in-process ``entry(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def test_every_golden_request_is_read_from_the_table():
    assert len(GOLDEN_ARGV) > 250
    for argv in GOLDEN_ARGV:
        assert cli._read(argv) is not None, argv


def test_main_builds_its_parser_once_per_process(monkeypatch):
    made = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # A fresh import of the module, restored to the shared one afterwards.
    monkeypatch.delitem(sys.modules, "dethodge.cli")
    monkeypatch.setattr(dethodge, "cli", cli)
    fresh = importlib.import_module("dethodge.cli")
    assert fresh is not cli

    builds = []
    real_build = fresh.build_parser
    monkeypatch.setattr(fresh, "build_parser", lambda: builds.append(1) or real_build())
    for argv in GOLDEN_ARGV:
        assert invoke(argv, fresh.main)[0] == 0, argv
    assert made == [] and builds == []

    assert invoke(["verify", "nonsense"], fresh.main)[0] == 2
    assert builds == [1]
    one_parser = len(made)
    assert one_parser == 1 + len(fresh._COMMANDS)  # the top level and each subcommand
    for argv in (["--help"], ["decompose", "--help"], [*DECOMPOSE, "--sol"], *GOLDEN_ARGV[:20]):
        invoke(argv, fresh.main)
    assert builds == [1] and len(made) == one_parser


def test_a_rebound_command_takes_effect_on_the_next_call(capsys, monkeypatch):
    argv = ["decompose", "--m", "2", "--n", "1", "--p", "1"]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_decompose", lambda args: seen.append(args.p) or 7)
    assert main(argv) == 7
    assert seen == [1]
    monkeypatch.undo()
    assert main(argv) == 0
    assert seen == [1]
    capsys.readouterr()


def test_build_parser_returns_a_new_parser_on_each_call():
    first, second = build_parser(), build_parser()
    assert first is not second
    assert first.format_help() == second.format_help()


# -- one reading per request ---------------------------------------------------

USAGE_GOLDEN = json.loads((GOLDEN_DIR / "usage.json").read_text())
# The requests the table reads: the refusals main prints, and well-formed
# requests in each token form.
READ_CALLS = [record["argv"] for record in USAGE_GOLDEN if record["stderr"].startswith("error: ")] + [
    DECOMPOSE,
    [*DECOMPOSE, "--format=json", "--solve"],
    ["verify", "--seed", "-3", "decomposition", "--m=2", "--n", "1"],
    ["filtration", "--weight=0,-3", "--n", "2", "--k", "2", "--format", "json"],
    ["hilbert", "--set", "Ik(n=2,k=3)", "--dmax", "3"],
    ["weights-table"],
]
PARITY_CALLS = [r["argv"] for r in USAGE_GOLDEN if r["argv"] not in READ_CALLS] + READ_CALLS + [
    [*DECOMPOSE, "--bogus"],  # an unknown option after the subcommand
    [*DECOMPOSE, "extra"],  # a stray positional
    [*DECOMPOSE, "--sol"],  # an abbreviated option
    [*DECOMPOSE, "--m", "4"],  # a repeated option
    [*DECOMPOSE, "--solve=1"],  # a value on a flag
    [*DECOMPOSE, "--"],
    ["decompose", "--m", "3", "--n", "2", "--", "--p", "1"],
    ["decompose", "--m", "3", "--n", "2", "--p", "-x"],  # a value that is an option
    ["verify", "--", "nonsense"],
    ["verify", "decomposition", "weights"],  # a second positional
    [],
    ["-h"],
    ["-h", "decompose"],
    ["--format", "json", "decompose"],
    ["bogus", "--m", "3"],
]


@pytest.mark.parametrize("argv", PARITY_CALLS, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_request_reads_the_same_through_the_table_and_argparse(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert (cli._read(argv) is not None) == (argv in READ_CALLS)
    direct = invoke(argv)
    # With the table reading nothing, every request goes through argparse.
    parser = cli._shared_parser()
    full, real_parse = [], parser.parse_args
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    monkeypatch.setattr(parser, "parse_args", lambda argv: full.append(argv) or real_parse(argv))
    assert direct == invoke(argv)
    assert full == [argv]


def test_a_well_formed_request_skips_the_full_parser(monkeypatch):
    def refuse():
        raise AssertionError("the full parser was used")

    monkeypatch.setattr(cli, "_shared_parser", refuse)
    assert invoke([*DECOMPOSE, "--solve", "--format", "json"])[0] == 0
    with pytest.raises(AssertionError):
        invoke([*DECOMPOSE, "--bogus"])


# -- argparse is the oracle of the table reader -------------------------------

REFERENCE = build_parser()
VALUES = [
    "0", "1", "3", "12", "007", "-1", "-0", "-12", "-.5", "-1.5", "1.5", "x", "", " 2", "2 ",
    "-x", "- 1", "-1 ", "0,-3", "(1,0)", "1,a", "text", "json", "Ik(n=2,k=3)", "Wp(2,2,1)",
    *sorted(suites.SUITES), "all", "nonsense",
]
ODD_TOKENS = [
    "-h", "--help", "--", "-", "--sol", "--form", "--se", "--d", "-n", "--bogus", "--solve=1",
    "--closed=", "--n=", "--format=", "--m=-2", "--k=-1", "--help=1", "decompose",
]
# Values each argument converts and accepts, by its type or its name.
GOOD_VALUES = {
    int: st.integers(-3, 9).map(str),
    cli._nonneg: st.integers(0, 9).map(str),
    cli._positive: st.integers(1, 9).map(str),
    cli._seed: st.sampled_from(["1729", "-4", "007", "3:0", "x"]),
    cli._parse_weight: st.sampled_from(["0,-3", "(1,0)", "-1,-2", "2"]),
    "--set": st.sampled_from(["Ik(n=2,k=3)", "Wp(2,2,1)", "", "-1"]),
    "--format": st.sampled_from(["text", "json"]),
    "suite": st.sampled_from([*sorted(suites.SUITES), "all"]),
}


@st.composite
def requests(draw):
    """A subcommand and each of its arguments, in any order, left out if
    optional, or given as ``--name value`` or ``--name=value`` (a flag
    alone, the positional as its value) with a value that converts. At most
    one argument goes wrong: left out, given twice or abbreviated, or given
    a value from the alphabet; or an odd token lands anywhere."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus", "-h"]))
    spec = cli._COMMANDS.get(command, cli._COMMANDS["decompose"])
    options = draw(st.permutations(spec.options))
    wrong = draw(st.integers(-1, len(options)))  # len(options): an odd token
    argv = [command]
    for i, option in enumerate(options):
        wild = i == wrong
        forms = ["pair", "eq"]
        if wild or option.default is not cli._REQUIRED:
            forms.append("")
        if wild:
            forms += ["twice", "abbreviated"]
        form = draw(st.sampled_from(forms))
        name = option.name[:-1] if form == "abbreviated" else option.name
        good = GOOD_VALUES.get(option.name, GOOD_VALUES.get(option.type))
        value = st.one_of(good, st.sampled_from(VALUES)) if wild and form != "twice" else good
        for _ in range({"": 0, "twice": 2}.get(form, 1)):
            if name[0] != "-":
                argv.append(draw(value))
            elif option.type is None:
                argv.append(name)
            elif form == "eq":
                argv.append(f"{name}={draw(value)}")
            else:
                argv += [name, draw(value)]
    if wrong == len(options):
        at = draw(st.integers(0, len(argv)))
        argv.insert(at, draw(st.sampled_from(ODD_TOKENS + VALUES)))
    return argv


ARGV = st.one_of(st.sampled_from(GOLDEN_ARGV + PARITY_CALLS), requests())


@settings(max_examples=1000)
@given(ARGV)
def test_argparse_is_the_oracle_of_the_table_reader(argv):
    args = cli._read(argv)
    if args is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                reference = REFERENCE.parse_args(argv)
            except SystemExit:
                pytest.fail(f"the table read {argv}, which argparse refuses")
        assert vars(args) == vars(reference), argv


# -- a request fuzzer built from the option table -----------------------------

# The descriptor arguments the README lists for `hilbert --set`.
README_KINDS = {
    "Ik": ("n", "k"),
    "Jpd": ("n", "p", "d"),
    "FkSdet": ("n", "k"),
    "Wp": ("m", "n", "p"),
    "Wpd": ("m", "n", "p", "d"),
    "Ukp": ("n", "p", "k"),
    "Empty": ("m", "n", "p"),
}


def integer_in_grammar(text):
    """An optionally signed run of the digits 0-9, spaces around it
    allowed."""
    body = text.strip()
    if body[:1] in ("+", "-"):
        body = body[1:]
    return body != "" and all(c in "0123456789" for c in body)


def weight_in_grammar(text):
    """Comma-separated integers, optionally inside one pair of
    parentheses."""
    if len(text) >= 2 and text[0] == "(" and text[-1] == ")":
        text = text[1:-1]
    return all(integer_in_grammar(entry) for entry in text.split(","))


def descriptor_in_grammar(text):
    """A kind's name and all of its arguments in parentheses, either every
    one positional, in order, or every one as a keyword, in any order;
    spaces around the name, the parentheses and each key or value
    allowed."""
    name, paren, rest = text.strip().partition("(")
    args = README_KINDS.get(name.strip())
    if args is None or not paren or not rest.endswith(")"):
        return False
    pieces = rest[:-1].split(",")
    if all("=" not in piece for piece in pieces):
        return len(pieces) == len(args) and all(map(integer_in_grammar, pieces))
    keys = []
    for piece in pieces:
        key, eq, value = piece.partition("=")
        if not eq or not integer_in_grammar(value):
            return False
        keys.append(key.strip())
    return sorted(keys) == sorted(args)


def test_the_reference_grammar_examples():
    for text in ("0,-3", "(0,-3)", "2", " 1, +2 ", "(-0)"):
        assert weight_in_grammar(text), text
    for text in (")0,(-3(", "(0,-3", "0,-3)", "((0,-3))", "", "()", "1_0", "٣", "1,,2", "1.5"):
        assert not weight_in_grammar(text), text
    for text in ("Ik(n=2,k=3)", " Ik ( k = 3 , n=2 ) ", "Wp(3,2,1)", "Empty(2,2,0)"):
        assert descriptor_in_grammar(text), text
    for text in ("Ik(n=2)", "Ik(n=2,k=3,k=3)", "Ik(n=2,3)", "Wp(3,2)", "Ik(n=1_0,k=3)", "ik(2,3)",
                 "Ik(n=2,k=3", "Ik((n=2,k=3))", "Ik(n=2,k=3)x", "Ik(m=2,k=3)"):
        assert not descriptor_in_grammar(text), text


# Small values, mostly ones a request accepts; edge values (-1, 0) and
# malformed text are rarer. At most one other argument of a request is
# drawn from the malformed alphabet; a weight or a descriptor is broken
# half the time.
SMALL = st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(-1, 4)).map(str)
MALFORMED = st.sampled_from(
    ["", " ", "x", "1.5", "1_0", "٣", "+2", " 3", "-0", "007", "2,1", "1e1", "(1", "2)", "(", ")"]
)


@st.composite
def weights(draw, size):
    """A weight's text: mostly `size` entries, else 1 to 4, mostly weakly
    decreasing, with or without one pair of parentheses; half the time
    broken, with one entry malformed or the parentheses unbalanced,
    doubled or misplaced."""
    length = draw(st.sampled_from([size, size, size, 1, 2, 3, 4]))
    entries = draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
    if draw(st.integers(0, 3)):
        entries.sort(reverse=True)
    entries = [str(x) for x in entries]
    left, right = draw(st.sampled_from([("", ""), ("(", ")")]))
    fault = draw(st.integers(0, 5))
    if fault == 0:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(MALFORMED)
    elif fault == 1:
        left, right = draw(st.sampled_from([("(", ""), ("", ")")]))
    elif fault == 2:
        left, right = draw(st.sampled_from([("((", "))"), (")", "("), (" (", ")"), ("(", ") ")]))
    return left + ",".join(entries) + right


@st.composite
def descriptors(draw):
    """A descriptor of a kind the README lists, with small values (m, n
    and p mostly in range), its arguments all positional or all keywords
    in any order; half the time broken, with a name no kind has, an
    argument missing, repeated or unknown, a malformed value, positional
    and keyword arguments mixed, or broken parentheses."""
    name = draw(st.sampled_from(sorted(README_KINDS)))
    n = draw(st.integers(1, 3))
    given = {"n": n, "m": n + draw(st.integers(0, 1)), "p": draw(st.integers(0, n))}
    keywords = [draw(st.booleans())] * len(README_KINDS[name])
    args = list(draw(st.permutations(README_KINDS[name])) if keywords[0] else README_KINDS[name])
    values = [str(given[arg]) if arg in given else draw(SMALL) for arg in args]
    left, right = "(", ")"
    if draw(st.booleans()):
        fault = draw(st.integers(0, 5))
        at = draw(st.integers(0, len(args) - 1))
        if fault == 0:
            name = draw(st.sampled_from(["Ix", "ik", "", "I k"]))
        elif fault == 1:
            del args[at], values[at], keywords[at]
        elif fault == 2:
            args.append(draw(st.sampled_from([args[at], "x"])))
            values.append("1")
            keywords.append(keywords[0])
        elif fault == 3:
            values[at] = draw(MALFORMED)
        elif fault == 4:
            keywords[at] = not keywords[at]
        else:
            left, right = draw(st.sampled_from([("(", ""), ("((", "))"), (" ( ", " ) "), ("[", "]")]))
    space = draw(st.sampled_from(["", " "]))
    body = ",".join(
        f"{space}{key}{space}={value}" if keyword else value
        for key, value, keyword in zip(args, values, keywords)
    )
    return f"{name}{left}{body}{right}"


def fuzz_values(option, wild, size):
    """The strategy for one option's value: by its name, else by its type.
    `--n` is mostly the request's `size`, the length of its weight. Walk
    sizes stay small, since no work budget refuses a large one."""
    if option.name == "--weight":
        return weights(size)
    if option.name == "--set":
        return descriptors()
    if wild:
        return MALFORMED
    if option.name in ("--dmax", "--box"):
        return st.integers(-1, 8).map(str)
    if option.name == "--format":
        return st.sampled_from(["text", "json"])
    if option.name == "suite":
        return st.sampled_from([*sorted(suites.SUITES), "all"])
    if option.type is cli._seed:
        return st.sampled_from(["1729", "-4", "007", "3:0", "x"])
    if option.name == "--n":
        return st.one_of(st.just(str(size)), st.just(str(size)), SMALL)
    return SMALL


@st.composite
def fuzzed_requests(draw):
    """A subcommand, then each of its arguments in any order, each given
    once (a required one almost always, an optional one half the time),
    as ``--name value`` or ``--name=value``; at most one value wild."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    options = draw(st.permutations(command.options))
    wild = draw(st.integers(0, 4 * len(options)))  # mostly no wild value
    size = draw(st.integers(1, 4))
    argv = [name]
    for i, option in enumerate(options):
        # A required argument, a weight and a descriptor are almost always
        # given, any other argument half the time.
        given = option.default is cli._REQUIRED or option.name == "--weight"
        if draw(st.integers(0, 19)) >= (19 if given else 10):
            continue
        if option.type is None:
            argv.append(option.name)
            continue
        value = draw(fuzz_values(option, i == wild, size))
        if option.name == command.positional:
            argv.append(value)
        elif draw(st.booleans()):
            argv.append(f"{option.name}={value}")
        else:
            argv += [option.name, value]
    return argv


def given_value(argv, name):
    """The text given to the option `name` in argv, or None."""
    for i, token in enumerate(argv):
        if token == name and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith(name + "="):
            return token[len(name) + 1:]
    return None


@settings(max_examples=400)
@given(fuzzed_requests())
def test_no_request_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        weight = given_value(argv, "--weight")
        assert weight is None or weight_in_grammar(weight), argv
        descriptor = given_value(argv, "--set")
        assert descriptor is None or descriptor_in_grammar(descriptor), argv
