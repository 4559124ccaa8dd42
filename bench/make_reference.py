"""Rewrite reference.json from the program at the current checkout.

    python3 bench/make_reference.py

Runs every request of every workload once, in-process, and stores the
digest of each output's content (see checks.content) under the request id.
Only for a deliberate change of the program's results: the benchmark
counts any output that differs from these digests as failed.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from checks import REFERENCE_PATH, check_pass, content, digest, needs_reference  # noqa: E402
from passes import run_pass  # noqa: E402
from workloads import WORKLOADS, build_requests  # noqa: E402

SEED = 1729


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        requests = build_requests(workload, SEED)
        records = run_pass(requests)
        for request, record in zip(requests, records):
            if record["code"] != 0 or record["error"] is not None:
                print(f"error: {request['id']} failed: {record}", file=sys.stderr)
                return 1
            if needs_reference(request):
                reference[request["id"]] = digest(content(request, json.loads(record["stdout"])))
        failed = [
            (request["id"], reason)
            for request, reason in zip(requests, check_pass(requests, records, reference))
            if reason is not None
        ]
        if failed:
            print(f"error: {workload}: {failed}", file=sys.stderr)
            return 1
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} digests to {os.path.relpath(REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
