"""The dethodge benchmark.

    python3 bench/run.py --workload tables|ideals|crosscheck --seed N
                         --seconds S --trace 0|1

Run from the root of a checkout. Each pass over the workload's request
list runs in a fresh interpreter (bench/child.py), one pass at a time:
a closed loop with one client and one request in flight. Passes repeat
while the next one is expected to end within S seconds, and at least
until MIN_PASSES passes and MIN_DESK_SAMPLES desk-size latencies are in.
Every output of every pass is checked (bench/checks.py) after the pass,
outside the timed window.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1, untraced and traced passes alternate
and it holds the per-layer metrics of the traced passes. Run metadata and
the per-request median table go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, build_requests

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_PASSES = 5
MIN_DESK_SAMPLES = 100
MIN_TRACED_PASSES = 2
# Start no pass after this many seconds, so a run ends well within 180 s.
LAST_START_S = 120
PASS_TIMEOUT_S = 150
# Extra interpreter starts per pass that only import dethodge, so set-up
# time is the median of several samples spread over the whole run.
SETUP_PROBES_PER_PASS = 2
# Every pass process hashes strings alike, so passes do identical work, and
# loads the package from cached bytecode, as an installed package does.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"

END_TO_END_UNITS = {
    "pass_s": "s",
    "desk_p50_ms": "ms",
    "desk_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class PassFailed(Exception):
    """A pass process crashed, timed out or printed no result."""


def spawn_child(args) -> dict:
    """Run bench/child.py with the given arguments and return its result."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py")]
    spawn_ns = time.perf_counter_ns()
    with subprocess.Popen(
        cmd + ["--spawn-ns", str(spawn_ns)] + args,
        cwd=ROOT,
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise PassFailed(f"pass timed out after {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {err.strip()[-500:]}")
    try:
        return json.loads(out)
    except ValueError:
        raise PassFailed("pass printed no result") from None


def spawn_pass(workload, seed, trace, spans=None) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    return spawn_child(args + (["--spans", spans] if spans else []))


def probe_setup() -> int:
    """Set-up time in ns of an interpreter that only imports dethodge."""
    return spawn_child([])["setup_ns"]


def end_to_end(requests, passes, setups) -> dict:
    latencies = [[p["records"][i]["latency_ns"] for p in passes] for i in range(len(requests))]
    desk = [
        ns
        for request, samples in zip(requests, latencies)
        if request["size"] == "desk"
        for ns in samples
    ]
    values = {
        "pass_s": sum(statistics.median(samples) for samples in latencies) / 1e9,
        "desk_p50_ms": statistics.median(desk) / 1e6,
        "desk_p90_ms": statistics.quantiles(desk, n=10, method="inclusive")[8] / 1e6,
        "setup_s": statistics.median(setups) / 1e9,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_per_candidate")):
        return "ratio"
    return "count"


def per_layer(traced, untraced) -> dict:
    """Medians over the traced passes; see README.md for each metric."""
    names = traced[0]["layer_metrics"]
    metrics = {name: statistics.median(p["layer_metrics"][name] for p in traced) for name in names}
    metrics["trace.overhead_ratio"] = statistics.median(
        p["pass_ns"] for p in traced
    ) / statistics.median(p["pass_ns"] for p in untraced)
    return {
        name: {"value": value, "unit": _layer_unit(name)}
        for name, value in sorted(metrics.items())
    }


def commit() -> str:
    """The checked-out commit, read from .git when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """The passes of one run and the outcome of their checks."""

    def __init__(self):
        self.untraced, self.traced, self.setups, self.failures = [], [], [], []
        self.attempted = self.failed = 0

    def add_failure(self, count, reason):
        self.failed += count
        self.failures.append(reason)


def _tag(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def measure(args, requests, reference, check_pass) -> Run:
    run = Run()
    desk_per_pass = sum(r["size"] == "desk" for r in requests)
    start = time.monotonic()
    last_pass_s = 0.0
    while True:
        elapsed = time.monotonic() - start
        untraced, traced = len(run.untraced), len(run.traced)
        if args.trace:
            enough = min(untraced, traced) >= MIN_TRACED_PASSES
        else:
            enough = untraced >= MIN_PASSES and untraced * desk_per_pass >= MIN_DESK_SAMPLES
        if enough and elapsed + last_pass_s > args.seconds:
            break
        if elapsed >= LAST_START_S and untraced and (traced or not args.trace):
            break
        trace = bool(args.trace) and traced < untraced
        spans = os.path.join(OUT, f"spans-{_tag(args)}.jsonl") if trace and not traced else None
        run.attempted += len(requests)
        pass_start = time.monotonic()
        try:
            result = spawn_pass(args.workload, args.seed, int(trace), spans)
            probes = [] if args.trace else [probe_setup() for _ in range(SETUP_PROBES_PER_PASS)]
        except PassFailed as exc:
            run.add_failure(len(requests), str(exc))
            break
        for request, reason in zip(requests, check_pass(requests, result["records"], reference)):
            if reason is not None:
                run.add_failure(1, f"{request['id']}: {reason}")
        for record in result["records"]:
            del record["stdout"], record["stderr"]
        if trace:
            run.traced.append(result)
        else:
            run.untraced.append(result)
            run.setups += [result["setup_ns"], *probes]
        last_pass_s = time.monotonic() - pass_start
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dethodge", "__init__.py")):
        print(f"error: no dethodge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from checks import check_pass, load_reference  # imports dethodge

    requests = build_requests(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    try:
        probe_setup()  # compiles the bytecode, so no timed start pays for it
    except PassFailed as exc:
        print(f"error: cannot start the package: {exc}", file=sys.stderr)
        return 1
    run = measure(args, requests, load_reference(), check_pass)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not run.untraced or (args.trace and not run.traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(run.traced, run.untraced)
    else:
        metrics = end_to_end(requests, run.untraced, run.setups)
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_lines": src_lines(),
        "passes": len(run.untraced),
        "traced_passes": len(run.traced),
        "desk_samples": len(run.untraced) * sum(r["size"] == "desk" for r in requests),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures[:20],
        "requests": [
            {
                "id": request["id"],
                "size": request["size"],
                "median_ms": statistics.median(
                    p["records"][i]["latency_ns"] for p in run.untraced
                ) / 1e6,
            }
            for i, request in enumerate(requests)
        ],
    }
    with open(os.path.join(OUT, f"{_tag(args)}.json"), "w") as fh:
        json.dump({"metrics": metrics, "metadata": metadata}, fh, indent=1)

    print(
        f"{args.workload} seed={args.seed}: {metadata['passes']} passes, "
        f"{metadata['traced_passes']} traced, {metadata['desk_samples']} desk samples, "
        f"failed_frac={metadata['failed_frac']:.4g} ({run.failed}/{run.attempted}), "
        f"python {metadata['python']}, nproc {metadata['nproc']}, "
        f"commit {metadata['commit'][:12]}, src {metadata['src_lines']} lines"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
