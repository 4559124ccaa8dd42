"""Output checks, by mathematical content rather than by bytes.

Each request's output is reduced to the fields that carry its content;
additive keys (a future ``"stats"`` block) and the representation of
``"seed"`` never enter. Then:

* a ``decompose --solve`` table must equal the closed-route table of the
  same (m, n, p) from the same pass;
* ``hilbert Ik(n=2,k)`` must match ``oracle.ideal_power_hilbert``;
* ``filtration --weight`` must report the stratum and membership given by
  the closed-form tail inequalities, computed here independently;
* ``verify``, ``oracle-check`` and the package-API checks must be ok;
* everything else, and the report names, parameters and check counts of
  the suites, must match the digests in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from math import comb

from dethodge.matrixspace import MatrixSpace
from dethodge.oracle import ideal_power_hilbert

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_IK2 = re.compile(r"^Ik\(n=2,k=(\d+)\)$")


def _command(request) -> str:
    return request["argv"][0] if request["argv"] is not None else "api"


def _option(request, name):
    argv = request["argv"]
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def _reports(obj):
    return [[r["name"], r["params"], r["checks"]] for r in obj["reports"]]


def _decompose_entries(obj):
    return sorted(
        [row["i"], sorted((int(e), c) for e, c in row["poly"].items())]
        for row in obj["entries"]
    )


def content(request, obj):
    """The fields of an output that carry its mathematical content."""
    command = _command(request)
    if command == "decompose":
        return [obj["m"], obj["n"], obj["p"], _decompose_entries(obj)]
    if command in ("verify", "oracle-check"):
        return [obj["ok"], _reports(obj)]
    fields = {
        "hodge-ideal": ("n", "k", "exponents", "unit_ideal", "minimal_generators", "members"),
        "filtration": ("n", "k", "members", "generation_level"),
        "weights-table": ("m", "n", "rows"),
        "hilbert": ("set", "dmax", "truncated", "values", "box"),
        "api": ("ok", "reports", "checks", "cases", "failed"),
    }[command]
    return [obj.get(name) for name in fields]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _filtration_truth(n: int, k: int, weight):
    # Square case: the stratum p is the unique index with
    # lam_p >= p-n >= lam_{p+1}, and lam lies in F_k exactly when every
    # tail sum lam_{s+1} + ... + lam_n is at least -comb(n-s+1, 2) - k.
    strata = [
        p
        for p in range(n + 1)
        if (p == 0 or weight[p - 1] >= p - n) and (p == n or weight[p] <= p - n)
    ]
    member = all(sum(weight[s:]) >= -comb(n - s + 1, 2) - k for s in range(n))
    return strata, member


def _is_solver(request) -> bool:
    return _command(request) == "decompose" and "--solve" in request["argv"]


def _is_weight_query(request) -> bool:
    return _command(request) == "filtration" and _option(request, "--weight") is not None


def _ik2(request):
    return _IK2.match(_option(request, "--set")) if _command(request) == "hilbert" else None


def needs_reference(request) -> bool:
    """False for the requests that are checked independently instead."""
    return not (_is_solver(request) or _is_weight_query(request) or _ik2(request))


def _table_key(request):
    return tuple(int(_option(request, f"--{x}")) for x in "mnp")


def _check_one(request, obj, reference, closed):
    if _command(request) in ("verify", "oracle-check", "api") and obj.get("ok") is not True:
        return "reported ok=false"
    if needs_reference(request):
        if digest(content(request, obj)) != reference.get(request["id"]):
            return "content differs from the reference"
        return None
    if _is_solver(request):
        if closed.get(_table_key(request)) != _decompose_entries(obj):
            return "solver table differs from the closed-route table"
        return None
    if _is_weight_query(request):
        n, k = int(_option(request, "--n")), int(_option(request, "--k"))
        weight = [int(x) for x in _option(request, "--weight").split(",")]
        strata, member = _filtration_truth(n, k, weight)
        if strata != [obj["p"]] or obj["member"] is not member:
            return f"filtration gives p={obj['p']} member={obj['member']}, expected {strata} {member}"
        return None
    k, dmax = int(_ik2(request).group(1)), int(_option(request, "--dmax"))
    truth = ideal_power_hilbert(MatrixSpace(2, 2), k, dmax)
    got = {row["d"]: row["dim"] for row in obj["values"]}
    return None if got == truth else f"hilbert values {got} differ from ideal powers {truth}"


def _parse(record):
    if record["error"] is not None:
        return None, f"raised {record['error']}"
    if record["code"] != 0:
        return None, f"exit code {record['code']}: {record['stderr'].strip()[:200]}"
    try:
        return json.loads(record["stdout"]), None
    except ValueError:
        return None, "output is not JSON"


_MALFORMED = (AttributeError, KeyError, IndexError, TypeError, ValueError)


def check_pass(requests, records, reference) -> list:
    """Failure reason per request of one pass, None where it passed."""
    parsed = [_parse(record) for record in records]
    closed = {}
    for request, (obj, reason) in zip(requests, parsed):
        if reason is None and _command(request) == "decompose" and not _is_solver(request):
            try:
                closed[_table_key(request)] = _decompose_entries(obj)
            except _MALFORMED:
                pass  # reported when the request itself is checked
    reasons = []
    for request, (obj, reason) in zip(requests, parsed):
        if reason is None:
            try:
                reason = _check_one(request, obj, reference, closed)
            except _MALFORMED as exc:
                reason = f"malformed output: {type(exc).__name__}: {exc}"
        reasons.append(reason)
    return reasons


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
