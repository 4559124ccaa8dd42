"""Command line front end: argument parsing and rendering only. Each
``cmd_*`` calls the library (the verification suites and the oracle grid
of `suites`, the weight ledger `mhmweights.weight_ledger`, ...), builds
its JSON fields and its text lines, and hands both to one render step.

Exit codes: 0 on success, 1 when a verification suite finds
counterexamples, 2 on usage errors. All randomized suites run with a
fixed documented default seed unless --seed is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import suites
from .characters import hilbert_function
from .hodgeideals import (
    WeightSet,
    hodge_ideal_exponents,
    in_Fk_Sdet,
    minimal_generators,
    parse_weight_set,
)
from .matrixspace import MatrixSpace
from .mhmweights import generation_level_Sdet, weight_ledger
from .qseries import pushforward_DpY
from .repsets import classify
from .weights import strip_zeros

SCHEMA = "detl-hodge/1"
DEFAULT_SEED = 1729


def _emit(args, fields: dict, lines: list[str], ok: bool = True) -> int:
    """Print the command's JSON payload or its text lines, as --format
    asks, and return its exit code."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "command": args.command, **fields}))
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
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
        print(f"{head[:-1]}, {table.to_json()[1:]}")
        return 0
    lines = [
        f"pushforward multiplicities for the rank-{args.p} simple module "
        f"on {space} matrices ({route} form)"
    ]
    lines.extend(f"  {line}" for line in table.lines())
    return _emit(args, {}, lines)


def cmd_hilbert(args) -> int:
    weight_set = parse_weight_set(args.set)
    values = [
        {"d": d, "dim": hilbert_function(weight_set, d, box=args.box)}
        for d in range(args.dmax + 1)
    ]
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


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line, on every call. Subcommand
    ``x-y`` runs ``cmd_x_y``. The parser's ``subcommands`` attribute maps
    each subcommand to its own parser."""
    parser = argparse.ArgumentParser(
        prog="dethodge",
        description="Exact combinatorics of Hodge ideals and filtrations on determinantal strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("hodge-ideal", help="symbolic-power description of a Hodge ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--box", type=_nonneg, help="also list members with entries in [0, L]")
    add_format(p)

    p = sub.add_parser("filtration", help="Hodge filtration membership on the localization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--weight", type=_parse_weight, help='weight, e.g. "0,-3"')
    p.add_argument("--box", type=_nonneg, help="list members with entries in [-L, L]")
    add_format(p)

    p = sub.add_parser("weights-table", help="per-stratum weight and twist ledger")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    add_format(p)

    p = sub.add_parser("decompose", help="pushforward multiplicity table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_nonneg, required=True)
    route = p.add_mutually_exclusive_group()
    route.add_argument("--solve", action="store_true", help="triangular back-substitution route")
    route.add_argument("--closed", action="store_true", help="closed form (default)")
    add_format(p)

    p = sub.add_parser("hilbert", help="graded dimensions of a weight-set module")
    p.add_argument("--set", required=True, help='e.g. "Ik(n=2,k=3)", "Jpd(n=3,p=1,d=2)", "Wp(3,2,1)"')
    p.add_argument("--dmax", type=_nonneg, default=12)
    p.add_argument("--box", type=_nonneg, help="truncation bound for non-partition sets")
    add_format(p)

    p = sub.add_parser("oracle-check", help="differential test vs weight predicate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--dmax", type=_positive, default=4)
    p.add_argument("--trials", type=_positive, default=8)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--lmax", type=_nonneg, default=6, help="max size of tested partitions")
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--m", type=int, help="decomposition suite only: one space instead of the grid")
    p.add_argument("--n", type=int, help="decomposition suite only")
    add_format(p)

    parser.subcommands = sub.choices
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of one request. A request that names its subcommand
    first is parsed by that subcommand's parser alone; everything else
    (no arguments, a leading option, an unknown subcommand or an argument
    the subcommand does not know) goes to the full parser, which prints
    the help or the error. The subcommand's parser is the one the full
    parser hands the same arguments to, so both routes read them alike."""
    parser = _shared_parser()
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is not None:
        args, rest = subparser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand. May be called any number of times in one
    process: the parser is built on the first call and reused, and it holds
    no state between calls. The subcommand's ``cmd_*`` function is looked
    up by name on each call, so a rebound name takes effect."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
