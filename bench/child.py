"""Entry point of one pass process; started by run.py, one at a time.

    python3 bench/child.py --spawn-ns NS [--workload W --seed S --trace 0|1
                           [--spans FILE]]

``dethodge`` is imported first, so the set-up time reported here is the
time from just before the parent started this interpreter (``--spawn-ns``,
read from the same monotonic clock) to the end of ``import dethodge``.
Prints one JSON object on stdout: the set-up time and, unless no workload
is given, the pass wall time and records, the peak RSS of this process and,
when traced, the tracer's counters.
"""

if __name__ == "__main__":
    import os
    import sys
    import time

    _BENCH = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(_BENCH), "src"))
    import dethodge  # noqa: F401

    _READY_NS = time.perf_counter_ns()

    import argparse
    import json
    import resource

    from passes import generators_per_candidate, run_pass
    from tracer import Tracer
    from workloads import build_requests

    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.workload is None:  # a set-up probe
        json.dump({"setup_ns": _READY_NS - args.spawn_ns}, sys.stdout)
        sys.exit(0)

    requests = build_requests(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    start_ns = time.perf_counter_ns()
    records = run_pass(requests, tracer)
    pass_ns = time.perf_counter_ns() - start_ns
    if tracer is not None:
        tracer.uninstall()
    result = {
        "setup_ns": _READY_NS - args.spawn_ns,
        "pass_ns": pass_ns,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    if tracer is not None:
        result["layer_metrics"] = dict(
            tracer.metrics(),
            **{"hodgeideals.generators_per_candidate": generators_per_candidate(requests, records)},
        )
        if args.spans:
            tracer.write_spans(args.spans)
    json.dump(result, sys.stdout)
