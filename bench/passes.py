"""One pass over a request list: run each request through the public
entry points, one at a time, and time it.

A CLI request calls ``dethodge.cli.main(argv)`` with stdout and stderr
captured; a package-API request calls one of ``API_CALLS``, which print
their result as JSON the same way. Names are looked up on the package at
call time, so a tracer installed before the pass sees every call.
Checking the outputs happens later, outside the timed window.
"""

from __future__ import annotations

import contextlib
import io
import json
from time import perf_counter_ns

import dethodge
import dethodge.cli


def _tensor_step(n: int) -> int:
    # The acceptance tensor-step grid for one n: every gamma with at most
    # p parts and every mu with at most n-p parts, of size below 4.
    space = dethodge.MatrixSpace(n, n)
    checks = reports = 0
    ok = True
    for p in range(n + 1):
        gammas = [g for size in range(4) for g in dethodge.partitions_of(size, p)]
        mus = [mu for size in range(4) for mu in dethodge.partitions_of(size, n - p)]
        for gamma in gammas:
            for mu in mus:
                report = dethodge.tensor_decomposition_check(gamma, p, mu, space)
                reports += 1
                checks += report.checks
                ok = ok and report.ok
    print(json.dumps({"ok": ok, "reports": reports, "checks": checks}))
    return 0


def _cauchy() -> int:
    # The acceptance Cauchy grid: every space with m <= 3, degrees 0..10.
    cases = [
        (m, n, d) for m in range(1, 4) for n in range(1, m + 1) for d in range(11)
    ]
    failed = [
        case
        for case in cases
        if not dethodge.cauchy_check(dethodge.MatrixSpace(case[0], case[1]), case[2])
    ]
    print(json.dumps({"ok": not failed, "cases": len(cases), "failed": failed}))
    return 0


API_CALLS = {
    "tensor-step-n1": lambda: _tensor_step(1),
    "tensor-step-n2": lambda: _tensor_step(2),
    "tensor-step-n3": lambda: _tensor_step(3),
    "cauchy": _cauchy,
}


def execute(request: dict) -> int:
    """Run one request; its output goes to the current stdout."""
    if request["argv"] is None:
        return API_CALLS[request["api"]]()
    return dethodge.cli.main(list(request["argv"]))


def run_pass(requests, tracer=None, execute=execute) -> list[dict]:
    """Run every request once, in order. Returns one record per request:
    its latency in ns, exit code, captured stdout and stderr, and the
    exception it raised, if any. With a tracer, the pass is bracketed by
    ``begin_pass``/``end_pass`` and each record also carries the number of
    tuples enumerated during the request."""
    records = []
    if tracer is not None:
        tracer.begin_pass()
    for index, request in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        code, error = 0, None
        if tracer is not None:
            tracer.request = index
            tuples_before = tracer.work["weights.tuples_yielded"]
        start = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = execute(request)
        except SystemExit as exit_:  # argparse exits on usage errors
            code = exit_.code if isinstance(exit_.code, int) else int(exit_.code is not None)
        except Exception as exc:  # a raising request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter_ns() - start
        record = {
            "latency_ns": latency,
            "code": code,
            "error": error,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        }
        if tracer is not None:
            record["tuples"] = tracer.work["weights.tuples_yielded"] - tuples_before
        records.append(record)
    if tracer is not None:
        tracer.request = None
        tracer.end_pass()
    return records


def generators_per_candidate(requests, records) -> float:
    """Minimal generators output over tuples enumerated, on the hodge-ideal
    requests of a traced pass."""
    generators = tuples = 0
    for request, record in zip(requests, records):
        if request["argv"] is not None and request["argv"][0] == "hodge-ideal":
            tuples += record["tuples"]
            if record["code"] == 0 and record["error"] is None:
                generators += len(json.loads(record["stdout"])["minimal_generators"])
    return generators / tuples if tuples else 0.0
