"""Request lists of the three benchmark workloads.

A request is a dict with
  id    -- stable label, without any seed, used for reference lookup;
  argv  -- arguments for ``dethodge.cli.main`` (``"--format", "json"`` is
           always appended), or None for a package-API request;
  api   -- name of the package-API call in ``passes.API_CALLS`` (API
           requests only);
  size  -- "desk" or "stress".

Request sizes and order are fixed. The desk requests are spread evenly
among the stress ones, so that the desk latencies of a pass are sampled
over the whole pass rather than in one short window at its start; the
machine's speed moves within seconds. The seed only sets the oracle seeds and
the sampled ``filtration --weight`` query weights, so the cost of a pass
hardly depends on it. The reasons for each workload are in README.md.
"""

from __future__ import annotations

import random

# Every space with m <= 6 and n <= 4: the desk-size spaces of the CLI.
SMALL_SPACES = [(m, n) for m in range(1, 7) for n in range(1, min(m, 4) + 1)]

# The 2n x n stress spaces; n = 20 is the 40 x 20 all-p sweep.
STRESS_N = (5, 10, 15, 20)

FILTRATION_QUERIES = 36
FILTRATION_BOUND = 6

# Desk-size oracle checks on 2x2 matrices: (p, number of oracle seeds drawn
# from the run's seed). The p=1 checks are the slowest desk requests and
# make up a fifth of them, so the 90th percentile of desk latency falls
# inside their cluster rather than in the gap above the next-slowest class.
ORACLE_DESK = ((1, 6), (2, 2))


def _cli(args, size, seed=None):
    args = [str(a) for a in args]
    argv = list(args)
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"id": " ".join(args), "argv": argv + ["--format", "json"], "size": size}


def _api(name, size):
    return {"id": f"api {name}", "argv": None, "api": name, "size": size}


def _decompose_both_routes(m, n, size):
    return [
        _cli(["decompose", "--m", m, "--n", n, "--p", p, *route], size)
        for p in range(n + 1)
        for route in ([], ["--solve"])
    ]


def tables(seed: int) -> list[dict]:
    reqs = []
    for m, n in SMALL_SPACES:
        reqs += _decompose_both_routes(m, n, "desk")
    for n in range(1, 9):
        reqs.append(_cli(["weights-table", "--m", n, "--n", n], "desk"))
        reqs.append(_cli(["weights-table", "--m", n + 2, "--n", n], "desk"))
    for n in STRESS_N:
        reqs += _decompose_both_routes(2 * n, n, "stress")
    return reqs


def _filtration_weights(seed: int):
    rng = random.Random(f"ideals|{seed}")
    for i in range(FILTRATION_QUERIES):
        n = 3 + i % 2
        k = rng.randrange(6)
        weight = sorted(
            (rng.randint(-FILTRATION_BOUND, FILTRATION_BOUND) for _ in range(n)),
            reverse=True,
        )
        yield n, k, ",".join(str(x) for x in weight)


def ideals(seed: int) -> list[dict]:
    reqs = [
        _cli(["hodge-ideal", "--n", n, "--k", k], "desk")
        for n in range(2, 5)
        for k in range(6)
    ]
    # "--weight=..." keeps argparse from reading a leading minus as a flag.
    reqs += [
        _cli(["filtration", "--n", n, "--k", k, f"--weight={w}"], "desk")
        for n, k, w in _filtration_weights(seed)
    ]
    reqs += [
        _cli(["hilbert", "--set", f"Ik(n=2,k={k})", "--dmax", 12], "desk")
        for k in range(7)
    ]
    reqs += [
        _cli(["hodge-ideal", "--n", 5, "--k", 7], "stress"),
        _cli(["hodge-ideal", "--n", 6, "--k", 6], "stress"),
        _cli(["hodge-ideal", "--n", 3, "--k", 2, "--box", 6], "stress"),
        _cli(["hodge-ideal", "--n", 4, "--k", 3, "--box", 4], "stress"),
        _cli(["filtration", "--n", 3, "--k", 1, "--box", 6], "stress"),
        _cli(["filtration", "--n", 4, "--k", 2, "--box", 4], "stress"),
        _cli(["hilbert", "--set", "Ik(n=3,k=4)", "--dmax", 12], "stress"),
        _cli(["hilbert", "--set", "Jpd(n=4,p=2,d=3)", "--dmax", 10], "stress"),
        _cli(["hilbert", "--set", "FkSdet(n=3,k=2)", "--box", 6, "--dmax", 6], "stress"),
    ]
    return reqs


def crosscheck(seed: int) -> list[dict]:
    reqs = [
        _cli(["verify", "decomposition", "--m", m, "--n", n], "desk")
        for m, n in SMALL_SPACES
    ]
    reqs += [
        _cli(["oracle-check", "--n", 2, "--p", p], "desk", f"{seed}:{i}")
        for p, count in ORACLE_DESK
        for i in range(count)
    ]
    reqs += [_api(f"tensor-step-n{n}", "desk") for n in (1, 2, 3)]
    reqs.append(_api("cauchy", "desk"))
    reqs += [
        _cli(["verify", suite], "stress", seed if suite == "oracle" else None)
        for suite in ("equivalence", "qidentity", "decomposition", "oracle", "weights")
    ]
    reqs += [
        _cli(["oracle-check", "--n", 3, "--p", 2, "--dmax", 5, "--lmax", 8], "stress", seed),
        _cli(["oracle-check", "--n", 4, "--p", 2, "--dmax", 3, "--lmax", 4], "stress", seed),
    ]
    return reqs


WORKLOADS = {"tables": tables, "ideals": ideals, "crosscheck": crosscheck}


def build_requests(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return spread_desk(WORKLOADS[workload](seed))


def spread_desk(requests: list[dict]) -> list[dict]:
    """Interleave desk and stress requests evenly by count, keeping the
    order within each size."""
    desk = [r for r in requests if r["size"] == "desk"]
    stress = [r for r in requests if r["size"] != "desk"]
    keyed = [((i + 0.5) / len(desk), 0, r) for i, r in enumerate(desk)]
    keyed += [((i + 0.5) / len(stress), 1, r) for i, r in enumerate(stress)]
    return [r for *_, r in sorted(keyed, key=lambda item: item[:2])]
