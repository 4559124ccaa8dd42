"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import dethodge  # noqa: E402
import dethodge.qseries  # noqa: E402
import dethodge.weights  # noqa: E402
from checks import check_pass, load_reference, needs_reference  # noqa: E402
from passes import execute, run_pass  # noqa: E402
from run import END_TO_END_UNITS, end_to_end, per_layer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_requests, spread_desk  # noqa: E402

SEED = 5


def _pick(workload, *ids):
    requests = {r["id"]: r for r in build_requests(workload, SEED)}
    return [requests[i] for i in ids]


def _mixed_requests():
    weight_query = next(
        r for r in build_requests("ideals", SEED) if r["id"].startswith("filtration --n 3")
    )
    return (
        _pick(
            "tables",
            "decompose --m 3 --n 2 --p 1",
            "decompose --m 3 --n 2 --p 1 --solve",
            "weights-table --m 4 --n 2",
        )
        + _pick(
            "ideals",
            "hodge-ideal --n 3 --k 3",
            "hilbert --set Ik(n=2,k=3) --dmax 12",
            "filtration --n 3 --k 1 --box 6",
        )
        + [weight_query]
        + _pick(
            "crosscheck",
            "verify decomposition --m 3 --n 2",
            "oracle-check --n 2 --p 1",
            "api tensor-step-n2",
        )
    )


def _corrupting(target_id, corrupt):
    """An executor that runs the real request and, for one request,
    passes its JSON output through ``corrupt`` before printing it."""

    def fake(request):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = execute(request)
        obj = json.loads(buf.getvalue())
        if request["id"] == target_id:
            corrupt(obj)
        print(json.dumps(obj))
        return code

    return fake


def _failed_ids(requests, records):
    reasons = check_pass(requests, records, load_reference())
    return [r["id"] for r, reason in zip(requests, reasons) if reason is not None]


def test_same_seed_gives_identical_request_list():
    for workload in WORKLOADS:
        first, again = build_requests(workload, 11), build_requests(workload, 11)
        assert first == again
        other = build_requests(workload, 12)
        # Sizes and order do not depend on the seed.
        assert [r["size"] for r in first] == [r["size"] for r in other]
        assert [(r["argv"] or [r["api"]])[0] for r in first] == [
            (r["argv"] or [r["api"]])[0] for r in other
        ]
    assert build_requests("ideals", 11) != build_requests("ideals", 12)
    assert build_requests("crosscheck", 11) != build_requests("crosscheck", 12)


def test_desk_requests_are_spread_through_the_pass():
    for workload in WORKLOADS:
        requests = build_requests(workload, SEED)
        desk = [r for r in requests if r["size"] == "desk"]
        stress = [r for r in requests if r["size"] == "stress"]
        assert spread_desk(desk + stress) == requests
        sizes = "".join(r["size"][0] for r in requests)
        longest = max(len(run) for run in sizes.split("s"))
        assert longest <= len(desk) // len(stress) + 1, workload


def test_crosscheck_desk_p90_falls_inside_the_desk_oracle_cluster():
    desk = [r for r in build_requests("crosscheck", SEED) if r["size"] == "desk"]
    slowest = [r["argv"] for r in desk if r["id"] == "oracle-check --n 2 --p 1"]
    assert len({argv[argv.index("--seed") + 1] for argv in slowest}) == len(slowest)
    # Ranks from the top: the cluster holds 0 .. len(slowest) - 1, and the
    # 90th percentile sits at least one request away from either edge.
    assert 1 <= 0.1 * (len(desk) - 1) <= len(slowest) - 2


def test_every_request_has_a_reference_or_an_independent_check():
    reference = load_reference()
    for workload in WORKLOADS:
        for request in build_requests(workload, SEED):
            assert not needs_reference(request) or request["id"] in reference


def test_true_outputs_pass_whatever_the_seed_and_extra_keys():
    requests = _mixed_requests()

    def restyled(request):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = execute(request)
        obj = json.loads(buf.getvalue())
        obj["stats"] = {"candidates": 1}
        if "seed" in obj:
            obj["seed"] = str(obj["seed"])
        print(json.dumps(obj))
        return code

    assert _failed_ids(requests, run_pass(requests)) == []
    assert _failed_ids(requests, run_pass(requests, execute=restyled)) == []


def _drop_generator(obj):
    obj["minimal_generators"].pop()


def _bump_solver(obj):
    poly = obj["entries"][0]["poly"]
    key = next(iter(poly))
    poly[key] += 1


def _bump_hilbert(obj):
    obj["values"][-1]["dim"] += 1


def _flip_member(obj):
    obj["member"] = not obj["member"]


def _fail_verify(obj):
    obj["ok"] = False


def _drop_check(obj):
    obj["reports"][0]["checks"] -= 1


def _bump_weight(obj):
    obj["rows"][0]["weight"] += 1


@pytest.mark.parametrize(
    "target, corrupt",
    [
        ("hodge-ideal --n 3 --k 3", _drop_generator),
        ("decompose --m 3 --n 2 --p 1 --solve", _bump_solver),
        ("hilbert --set Ik(n=2,k=3) --dmax 12", _bump_hilbert),
        ("verify decomposition --m 3 --n 2", _fail_verify),
        ("oracle-check --n 2 --p 1", _drop_check),
        ("weights-table --m 4 --n 2", _bump_weight),
    ],
)
def test_wrong_output_through_a_fake_counts_as_failed(target, corrupt):
    requests = _mixed_requests()
    records = run_pass(requests, execute=_corrupting(target, corrupt))
    assert _failed_ids(requests, records) == [target]


def test_wrong_weight_query_answer_counts_as_failed():
    requests = _mixed_requests()
    target = requests[6]["id"]
    records = run_pass(requests, execute=_corrupting(target, _flip_member))
    assert _failed_ids(requests, records) == [target]


def test_raising_and_nonzero_exit_count_as_failed():
    requests = _mixed_requests()

    def broken(request):
        if request["id"] == "hodge-ideal --n 3 --k 3":
            raise RuntimeError("boom")
        if request["id"] == "api tensor-step-n2":
            return 1
        return execute(request)

    records = run_pass(requests, execute=broken)
    assert _failed_ids(requests, records) == ["hodge-ideal --n 3 --k 3", "api tensor-step-n2"]


def test_layer_self_times_and_harness_add_up_to_the_traced_pass():
    requests = _mixed_requests()
    original_leq = dethodge.weights.leq
    original_mul = dethodge.qseries.LaurentPoly.__mul__
    with Tracer(max_spans=50) as tracer:
        assert dethodge.weights.leq is not original_leq
        records = run_pass(requests, tracer)
    assert sum(tracer.self_ns.values()) + tracer.harness_ns == tracer.pass_ns
    metrics = tracer.metrics()
    for layer in ("cli", "hodgeideals", "repsets", "weights", "qseries", "characters", "oracle"):
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["qseries.mul_calls"] > 0
    assert metrics["weights.tuples_yielded"] > 0
    assert len(tracer.spans) == 50 and tracer.dropped_spans > 0
    kept = {span[0] for span in tracer.spans}
    assert all(span[1] is None or span[1] in kept for span in tracer.spans)
    # Tracing changes no output, and uninstalling restores every binding.
    assert _failed_ids(requests, records) == []
    assert dethodge.weights.leq is original_leq
    assert dethodge.leq is original_leq
    assert dethodge.qseries.LaurentPoly.__mul__ is original_mul


def test_pass_time_is_the_sum_of_per_request_medians():
    requests = [{"size": "desk"}, {"size": "stress"}]
    passes = [
        {"records": [{"latency_ns": a}, {"latency_ns": b}], "rss_kb": 2048}
        for a, b in ((1_000_000, 9e9), (3_000_000, 5e9), (2_000_000, 7e9))
    ]
    metrics = end_to_end(requests, passes, setups=[1e8, 3e8, 2e8])
    assert metrics["pass_s"]["value"] == pytest.approx(2e-3 + 7.0)
    assert metrics["desk_p50_ms"]["value"] == pytest.approx(2.0)
    assert metrics["desk_p90_ms"]["value"] == pytest.approx(2.8)
    assert metrics["setup_s"] == {"value": pytest.approx(0.2), "unit": "s"}
    assert metrics["peak_rss_mb"]["value"] == 2.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    requests = _pick("ideals", "hodge-ideal --n 3 --k 3")
    with Tracer() as tracer:
        records = run_pass(requests, tracer)
    layer_metrics = dict(tracer.metrics(), **{"hodgeideals.generators_per_candidate": 0.5})
    traced = {"layer_metrics": layer_metrics, "pass_ns": 2}
    metrics = per_layer([traced], [{"pass_ns": 1}])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: metric["unit"] for name, metric in metrics.items()
    }
    assert records[0]["tuples"] > 0
