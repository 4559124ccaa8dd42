import argparse
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

import dethodge
from dethodge import cli
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
    import dethodge.suites as suites

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
    import dethodge.suites as suites

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


MIXED_CALLS = [
    ["weights-table", "--m", "3", "--n", "2"],
    ["hodge-ideal", "--n", "3", "--k", "2", "--format", "json"],
    ["decompose", "--m", "3", "--n", "2", "--p", "1", "--solve"],
    ["verify", "nonsense"],
    ["hilbert", "--set", "Ik(n=2,k=3)", "--dmax", "3"],
]


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    made = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # A fresh import of the module, restored to the shared one afterwards.
    monkeypatch.delitem(sys.modules, "dethodge.cli")
    monkeypatch.setattr(dethodge, "cli", cli)
    fresh = importlib.import_module("dethodge.cli")
    assert fresh is not cli
    assert made == []

    builds = []
    real_build = fresh.build_parser
    monkeypatch.setattr(fresh, "build_parser", lambda: builds.append(1) or real_build())
    for i in range(20):
        argv = MIXED_CALLS[i % len(MIXED_CALLS)]
        try:
            code = fresh.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == (2 if argv == ["verify", "nonsense"] else 0), argv
    capsys.readouterr()
    assert builds == [1]


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


# -- one parse per request ----------------------------------------------------

USAGE_GOLDEN = Path(__file__).resolve().parent / "golden" / "usage.json"
DECOMPOSE = ["decompose", "--m", "3", "--n", "2", "--p", "1"]
PARITY_CALLS = [record["argv"] for record in json.loads(USAGE_GOLDEN.read_text())] + [
    [*DECOMPOSE, "--bogus"],  # an unknown option after the subcommand
    [*DECOMPOSE, "extra"],  # a stray positional
    [*DECOMPOSE, "--sol"],  # an abbreviated option
    [*DECOMPOSE, "--format=json"],
    [*DECOMPOSE, "--"],
    ["decompose", "--m", "3", "--n", "2", "--", "--p", "1"],
    ["verify", "--", "nonsense"],
    [],
    ["-h"],
    ["-h", "decompose"],
    ["--format", "json", "decompose"],
    ["bogus", "--m", "3"],
    ["weights-table"],
]


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process ``main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARITY_CALLS, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_request_reads_the_same_through_its_subcommand_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    direct = invoke(argv)
    # With no subcommand parser to find, every request goes through the full parser.
    monkeypatch.setattr(cli._shared_parser(), "subcommands", {})
    assert direct == invoke(argv)


def test_a_well_formed_request_skips_the_full_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full parser was used")

    monkeypatch.setattr(cli._shared_parser(), "parse_args", refuse)
    assert invoke([*DECOMPOSE, "--solve", "--format", "json"])[0] == 0
    with pytest.raises(AssertionError):
        invoke([*DECOMPOSE, "--bogus"])
