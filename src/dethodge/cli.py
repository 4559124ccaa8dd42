"""Command line front end: argument parsing and rendering only. Each
``cmd_*`` calls the library (the verification suites and the oracle grid
of `suites`, the weight ledger `mhmweights.weight_ledger`, ...), builds
its JSON fields and its text lines, and hands both to one render step.

Every subcommand's arguments live in one table, `_COMMANDS`. A
well-formed request is read straight from it; argparse, whose parser
`build_parser` makes from the same table, reads every other argv and is
the only source of help and error text.

Exit codes: 0 on success, 1 when a verification suite finds
counterexamples, 2 on usage errors. All randomized suites run with a
fixed documented default seed unless --seed is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Callable, NamedTuple

from . import suites
from .characters import hilbert_series
from .hodgeideals import hodge_ideal_exponents, in_Fk_Sdet, minimal_generators
from .matrixspace import MatrixSpace
from .mhmweights import generation_level_Sdet, weight_ledger
from .qseries import pushforward_DpY
from .repsets import WeightSet, _read_int, classify, parse_weight_set
from .weights import strip_zeros

SCHEMA = "detl-hodge/1"
DEFAULT_SEED = 1729


def _emit(args, fields: dict, lines: list[str], ok: bool = True) -> int:
    """Print the command's JSON payload or its text lines, as --format
    asks, and return its exit code."""
    if args.format == "json":
        _write(json.dumps({"schema": SCHEMA, "command": args.command, **fields}))
    else:
        _write("\n".join(lines))
    return 0 if ok else 1


def _write(text: str) -> None:
    """Print `text` and flush it. A reader that has closed stdout ends the
    output: stdout is pointed at os.devnull, so nothing written later, the
    interpreter's flush at exit included, can raise."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parse_weight(text: str) -> tuple[int, ...]:
    """A weight as "0,-3" or "(0,-3)": comma-separated integers, optionally
    inside one pair of parentheses, which are stripped only together."""
    inner = text[1:-1] if text[:1] == "(" and text[-1:] == ")" else text
    try:
        return tuple(map(_read_int, inner.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse weight {text!r}") from None


def _fmt_weight(lam) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def cmd_hodge_ideal(args) -> int:
    space = MatrixSpace(args.n, args.n)
    exponents = hodge_ideal_exponents(args.k, space)
    unit = all(e <= 0 for e in exponents)
    minimal = minimal_generators(args.k, space)
    fields = {
        "n": args.n,
        "k": args.k,
        "exponents": [{"p": p, "e": e} for p, e in enumerate(exponents, start=1)],
        "unit_ideal": unit,
        "minimal_generators": [list(mu) for mu in minimal],
    }
    lines = [f"Hodge ideal I_{args.k} of the determinant on {space} matrices"]
    if exponents:
        lines.append("symbolic-power exponents by minor size p:")
        lines.extend(f"  p={p}: e={e}" for p, e in enumerate(exponents, start=1))
    if unit:
        lines.append("unit ideal (every exponent is <= 0)")
    elif args.k == 2:
        lines.append(f"note: I_2 = J_{args.n - 1}, the ideal of {args.n - 1}x{args.n - 1} minors")
    lines.append(
        "minimal generator weights: "
        + ", ".join(_fmt_weight(strip_zeros(mu)) for mu in minimal)
    )
    if args.box is not None:
        members = WeightSet(space, "HodgeIdeal", param=args.k).members(args.box)
        fields["members"] = [list(mu) for mu in members]
        lines.append(f"members with entries in [0, {args.box}]:")
        lines.extend(f"  {_fmt_weight(mu)}" for mu in members)
    return _emit(args, fields, lines)


def cmd_filtration(args) -> int:
    space = MatrixSpace(args.n, args.n)
    fields: dict = {"n": args.n, "k": args.k}
    lines = [f"Hodge filtration level k={args.k} on {space} matrices"]
    if args.weight is not None:
        p = classify(args.weight, space)
        member = in_Fk_Sdet(args.weight, args.k, space)
        fields.update(weight=list(args.weight), p=p, member=member)
        lines.append(f"weight {_fmt_weight(args.weight)}: stratum p={p}, member={member}")
    if args.box is not None:
        members = WeightSet(space, "FkSdet", param=args.k).members(args.box)
        fields["members"] = [list(lam) for lam in members]
        lines.append(f"members with entries in [-{args.box}, {args.box}]:")
        lines.extend(f"  {_fmt_weight(lam)}" for lam in members)
    if args.weight is None and args.box is None:
        gen = generation_level_Sdet(space)
        fields["generation_level"] = gen
        lines.append(f"generation level: {gen}")
    return _emit(args, fields, lines)


def cmd_weights_table(args) -> int:
    space = MatrixSpace(args.m, args.n)
    rows = weight_ledger(space)
    last = "layer" if space.is_square else "degree"
    lines = [
        f"weight ledger for {space} matrices",
        f"{'p':>3} {'d_p':>5} {'c_p':>5} {'weight':>7} {'twist':>6} {'start':>6} {last:>7}",
    ]
    for row in rows:
        tail = "-" if row[last] is None else row[last]
        lines.append(
            f"{row['p']:>3} {row['dim']:>5} {row['codim']:>5} "
            f"{row['weight']:>7} {row['twist']:>6} {row['start_level']:>6} {tail:>7}"
        )
    return _emit(args, {"m": args.m, "n": args.n, "rows": rows}, lines)


def cmd_decompose(args) -> int:
    space = MatrixSpace(args.m, args.n)
    route = "solver" if args.solve else "closed"
    table = pushforward_DpY(space, args.p, route=route)
    if args.format == "json":
        # The table's JSON text is written straight from its coefficients;
        # its fields follow the payload's, as json.dumps would write them.
        head = json.dumps({"schema": SCHEMA, "command": args.command, "route": route})
        _write(f"{head[:-1]}, {table.to_json()[1:]}")
        return 0
    lines = [
        f"pushforward multiplicities for the rank-{args.p} simple module "
        f"on {space} matrices ({route} form)"
    ]
    lines.extend(f"  {line}" for line in table.lines())
    return _emit(args, {}, lines)


def cmd_hilbert(args) -> int:
    weight_set = parse_weight_set(args.set)
    dims = hilbert_series(weight_set, args.dmax, box=args.box)
    values = [{"d": d, "dim": dim} for d, dim in enumerate(dims)]
    fields = {
        "set": weight_set.descriptor(),
        "dmax": args.dmax,
        "truncated": not weight_set.partitions_only,
        "values": values,
    }
    lines = [f"graded dimensions of {weight_set.descriptor()}"]
    if args.box is not None:
        fields["box"] = args.box
    if not weight_set.partitions_only:
        lines.append(f"(truncated to entries in [-{args.box}, {args.box}])")
    lines.extend(f"  d={row['d']}: {row['dim']}" for row in values)
    return _emit(args, fields, lines)


def cmd_oracle_check(args) -> int:
    space = MatrixSpace(args.n, args.n)
    if not 1 <= args.p <= args.n:
        raise ValueError(f"--p {args.p} outside 1..{args.n}")
    reports = suites.oracle_check(space, args.p, args.lmax, args.dmax, args.trials, args.seed)
    ok = all(r.ok for r in reports)
    fields = dict(n=args.n, p=args.p, dmax=args.dmax, trials=args.trials, seed=args.seed, ok=ok)
    fields["reports"] = [r.to_json_obj() for r in reports]
    lines = [
        f"symbolic-power oracle check on {space} matrices, p={args.p}, "
        f"trials={args.trials}, seed={args.seed}"
    ]
    lines.extend(f"  {r.summary()}" for r in reports)
    return _emit(args, fields, lines, ok)


def cmd_verify(args) -> int:
    if (args.m is None) != (args.n is None):
        raise ValueError("verify takes both --m and --n, or neither")
    if args.m is not None and args.suite != "decomposition":
        raise ValueError(
            f"--m and --n apply only to the decomposition suite, not to {args.suite!r}"
        )
    spaces = suites.DESK_SPACES if args.m is None else [MatrixSpace(args.m, args.n)]
    reports = suites.run(args.suite, args.seed, spaces)
    ok = all(r.ok for r in reports)
    fields = {"suite": args.suite, "seed": args.seed, "ok": ok}
    fields["reports"] = [r.to_json_obj() for r in reports]
    lines = [r.summary() for r in reports]
    lines.append(f"verify {args.suite}: {'PASS' if ok else 'FAIL'}")
    return _emit(args, fields, lines, ok)


def _seed(text: str) -> int | str:
    """A seed given in canonical decimal form as an int, any other seed as
    given. Samplers format the seed as text, so their streams are the same
    either way."""
    try:
        value = int(text)
    except ValueError:
        return text
    return value if str(value) == text else text


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


_REQUIRED = object()  # the default of an argument every request must give


class _Option(NamedTuple):
    """One argument of a subcommand: its option string, or the positional's
    name; the callable that converts its value (None for a flag); its
    default, or _REQUIRED; its choices and its help."""

    name: str
    type: Callable[[str], object] | None
    default: object = None
    choices: tuple | None = None
    help: str | None = None


_FORMAT = _Option("--format", str, "text", ("text", "json"))


class _Command:
    """A subcommand's help, its arguments in the order its --help lists
    them (``--format`` last), and the flags of which a request gives at
    most one."""

    def __init__(self, help: str, *options: _Option, exclusive: tuple[str, ...] = ()):
        self.help = help
        self.options = (*options, _FORMAT)
        self.by_name = {option.name: option for option in self.options}
        self.dests = tuple(option.name.lstrip("-") for option in self.options)
        self.positional = next((o.name for o in options if o.name[0] != "-"), None)
        self.exclusive = exclusive


_COMMANDS = {
    "hodge-ideal": _Command(
        "symbolic-power description of a Hodge ideal",
        _Option("--n", int, _REQUIRED),
        _Option("--k", _nonneg, _REQUIRED),
        _Option("--box", _nonneg, help="also list members with entries in [0, L]"),
    ),
    "filtration": _Command(
        "Hodge filtration membership on the localization",
        _Option("--n", int, _REQUIRED),
        _Option("--k", _nonneg, _REQUIRED),
        _Option("--weight", _parse_weight, help='weight, e.g. "0,-3"'),
        _Option("--box", _nonneg, help="list members with entries in [-L, L]"),
    ),
    "weights-table": _Command(
        "per-stratum weight and twist ledger",
        _Option("--m", int, 2),
        _Option("--n", int, 2),
    ),
    "decompose": _Command(
        "pushforward multiplicity table",
        _Option("--m", int, _REQUIRED),
        _Option("--n", int, _REQUIRED),
        _Option("--p", _nonneg, _REQUIRED),
        _Option("--solve", None, False, help="triangular back-substitution route"),
        _Option("--closed", None, False, help="closed form (default)"),
        exclusive=("--solve", "--closed"),
    ),
    "hilbert": _Command(
        "graded dimensions of a weight-set module",
        _Option(
            "--set", str, _REQUIRED,
            help='e.g. "Ik(n=2,k=3)", "Jpd(n=3,p=1,d=2)", "Wp(3,2,1)"',
        ),
        _Option("--dmax", _nonneg, 12),
        _Option("--box", _nonneg, help="truncation bound for non-partition sets"),
    ),
    "oracle-check": _Command(
        "differential test vs weight predicate",
        _Option("--n", int, _REQUIRED),
        _Option("--p", int, _REQUIRED),
        _Option("--dmax", _positive, 4),
        _Option("--trials", _positive, 8),
        _Option("--seed", _seed, DEFAULT_SEED),
        _Option("--lmax", _nonneg, 6, help="max size of tested partitions"),
    ),
    "verify": _Command(
        "run a verification suite",
        _Option("suite", str, _REQUIRED, (*sorted(suites.SUITES), "all")),
        _Option("--seed", _seed, DEFAULT_SEED),
        _Option(
            "--m", int, help="decomposition suite only: one space instead of the grid"
        ),
        _Option("--n", int, help="decomposition suite only"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """A new argparse parser for the whole command line, built from the
    option table, on every call: ``weights-table`` runs ``cmd_weights_table``, and so on."""
    parser = argparse.ArgumentParser(
        prog="dethodge",
        description="Exact combinatorics of Hodge ideals and filtrations on determinantal strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        group = p.add_mutually_exclusive_group() if command.exclusive else p
        for option in command.options:
            target = group if option.name in command.exclusive else p
            if option.type is None:
                target.add_argument(option.name, action="store_true", help=option.help)
            elif option.name == command.positional:
                target.add_argument(
                    option.name, type=option.type, choices=option.choices, help=option.help
                )
            else:
                required = option.default is _REQUIRED
                target.add_argument(
                    option.name,
                    type=option.type,
                    required=required,
                    default=None if required else option.default,
                    choices=option.choices,
                    help=option.help,
                )
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


# The tokens argparse reads as negative numbers, hence as values, not options.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The arguments of a well-formed request, read from the option table,
    or None for any other argv. A well-formed request names its subcommand
    first, then gives each argument at most once, as an exact ``--name
    value`` or ``--name=value``, a flag, or the positional; a separate value
    may start with "-" only as a negative number. Every value converts, lies
    in its choices, every required argument is given, and at most one
    exclusive flag. What it returns is what argparse would."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] == "-":
            name, eq, text = token.partition("=")
            option = command.by_name.get(name)
            if option is None or name in given:
                return None
            if option.type is None:
                if eq:
                    return None
                given[name] = True
                continue
            if not eq:
                text = next(tokens, None)
                if text is None or text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
                    return None
            given[name] = text
        elif command.positional is None or command.positional in given:
            return None
        else:
            given[command.positional] = token
    if command.exclusive and sum(name in given for name in command.exclusive) > 1:
        return None
    args = argparse.Namespace(command=argv[0])
    values = vars(args)
    for option, dest in zip(command.options, command.dests):
        text = given.get(option.name)
        if text is None:
            if option.default is _REQUIRED:
                return None
            value = option.default
        elif option.type is None:
            value = True
        else:
            try:
                value = option.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if option.choices is not None and value not in option.choices:
                return None
        values[dest] = value
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of one request: the table's reading of a well-formed
    argv, and argparse's of any other, which prints the help or the error."""
    args = _read(argv)
    return args if args is not None else _shared_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand. May be called any number of times in one
    process, and calls share no state. A well-formed request is read from
    the option table and builds no parser; the first request that needs
    argparse (help, or an argv the table does not read) builds the full
    parser, which later ones reuse. The subcommand's ``cmd_*`` function is
    looked up by name on each call, so a rebound name takes effect. A
    closed stdout ends the output (`_write`), and the command still
    returns its own exit code."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
