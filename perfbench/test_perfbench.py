"""The benchmark's own tests, on inputs shrunk to a few flows and frames.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.run import E2E_UNITS, LAYER_UNITS, run_benchmark
from perfbench.trace import Recorder
from perfbench.workloads import (
    _FLOW_FIELDS, WORKLOADS, CycleCase, first_difference,
)

SCALE = 0.02
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

_FABRIC_LAYERS = (
    "topo.build_s", "topo.builds", "topo.learn_s", "workload.generate_s",
    "faults.session_s", "faults.sessions", "engine.setup_self_s",
    "engine.dispatch_self_s", "engine.events", "engine.segments",
    "engine.report_s", "report.fingerprint_s", "net.warm_s",
    "net.warm_walks", "net.inject_batch_s", "net.inject_batch_calls",
    "device.forward_calls", "device.decide_s", "device.parse_s",
    "device.generation_polls", "fastpath.batch_replay_share",
)
#: The per-layer metrics that must read above 0 on each workload,
#: because the workload enters that layer even at the reduced size.
ENTERED = {
    "short-flows-sharded": _FABRIC_LAYERS + (
        "fastpath.path_hit_ratio", "shard.merge_s", "shard.overhead_s"),
    "frr-churn": _FABRIC_LAYERS + (
        "frr.backups_s", "net.inject_s", "net.inject_calls",
        "net.link_writes", "fastpath.path_invalidations",
        "fastpath.device_hit_ratio", "fastpath.batch_split_ratio",
        "fastpath.cold_misses", "int.collect_s", "int.collect_calls"),
    "cycle-sim": (
        "device.forward_calls", "device.decide_s", "device.parse_s",
        "sim.cycles", "sim.step_us_per_cycle", "sim.comb_s", "sim.tick_s",
        "sim.comb_calls_per_cycle", "hw.forward_s"),
}


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_metrics_match_the_emitters():
    assert _units("end_to_end") == E2E_UNITS
    assert _units("per_layer") == LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, record = run_benchmark(name, seed=3, seconds=0, trace=trace,
                                   scale=SCALE, out_dir=tmp_path)
    assert result["correct"], record["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == (
        _units(section))
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if trace:
        entered = ENTERED[name] + ("trace.unwrapped_s",)
        assert [m for m in entered if not result["metrics"][m]["value"] > 0
                ] == []
        if name == "short-flows-sharded":
            assert result["metrics"]["topo.builds"]["value"] == 2
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert all(p > 0 for p in record["samples"]["probe_s"])
    written = [json.loads(line) for line in
               (tmp_path / "results.jsonl").read_text().splitlines()]
    assert {"git_sha", "python", "cpu_count", "workload", "seed",
            "size"} <= set(written[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_reference_counts_as_failed(name, tmp_path):
    result, record = run_benchmark(name, seed=3, seconds=0, trace=False,
                                   scale=SCALE, expected="0" * 64,
                                   out_dir=tmp_path)
    assert not result["correct"]
    # The cold call and one timed operation, both checked.
    assert result["failed"] == result["attempted"] == 2
    assert record["failed_frac"] == 1.0
    assert "!= reference 000000000000" in record["failures"][0]


def test_a_cold_call_failure_is_counted(monkeypatch, tmp_path):
    run = CycleCase.run
    calls = []

    def first_call_raises(self):
        calls.append(self)
        if len(calls) == 1:
            raise RuntimeError("fails on first use only")
        return run(self)

    monkeypatch.setattr(CycleCase, "run", first_call_raises)
    result, record = run_benchmark("cycle-sim", seed=3, seconds=0,
                                   trace=False, scale=SCALE,
                                   out_dir=tmp_path)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "fails on first use only" in record["failures"][0]


def test_a_wrapper_that_catches_nothing_raises():
    with pytest.raises(LookupError):
        Recorder().patch_function(lambda: None, "nothing")
    with pytest.raises(LookupError):
        Recorder().patch_overrides(Recorder, "comb", "nothing")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_observable(name, tmp_path):
    # The traced operations are checked against the same reference as
    # the untraced ones; the self times add up to the traced wall.
    result, record = run_benchmark(name, seed=5, seconds=0, trace=True,
                                   scale=SCALE, out_dir=tmp_path)
    assert result["correct"], record["failures"]
    case = WORKLOADS[name].case(5, SCALE)
    assert case.run().fingerprint == case.reference_fingerprint()
    assert record["self_sum_s"] == pytest.approx(record["traced_wall_s"],
                                                 rel=1e-9)
    assert (tmp_path / f"trace-{name}-seed5.json").exists()


def test_first_difference_names_the_flow_record():
    case = WORKLOADS["frr-churn"].case(1, SCALE)
    report = case.run().report
    for record in report.records:
        fields = record.as_dict()
        assert tuple(fields[f] for f in _FLOW_FIELDS) == record.signature()
    want = report.signature()
    got = json.loads(json.dumps(want))
    got["flows"] = [list(rec) for rec in got["flows"]]
    got["flows"][2][4] += 1  # one more packet delivered on the third flow
    flow_id = want["flows"][2][0]
    assert first_difference(want, got) == (
        f"flows[{flow_id}].delivered: {want['flows'][2][4]} != "
        f"{want['flows'][2][4] + 1}")
    got = json.loads(json.dumps(want))
    device = sorted(got["device_forwarded"])[0]
    got["device_forwarded"][device] += 1
    assert first_difference(want, got).startswith(
        f"device_forwarded[{device}]:")


def test_cycle_sim_mismatch_names_the_port():
    case = WORKLOADS["cycle-sim"].case(2, SCALE)
    outcome = case.run()
    for frames in outcome.report.outputs.values():
        if frames:
            frames.pop()
            break
    message = case.explain(outcome, case.reference_fingerprint())
    assert message.startswith("nf")
