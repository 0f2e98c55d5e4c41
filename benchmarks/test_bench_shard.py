"""E21 — crash-recovery cost of the supervised shard executor.

Two runs of one leaf-spine workload at 4 shards: the supervised
executor on a clean schedule, and the supervised executor under the
``shard-killer`` plan (every worker attempt crashes; every shard lands
via the inline fallback).  Reports the recovery cost of the all-crash
schedule and asserts both fingerprints are byte-identical — supervision
and chaos are operational, never observable.

There is no unsupervised executor left to compare against, so no
overhead ratio is measured here; perfbench's ``short-flows-sharded``
workload (2 supervised shards) tracks the supervised executor's
end-to-end cost instead.

The ``bench_recorder`` fixture appends the record, ``extra_info``
included, to ``BENCH_test_e21_supervision_overhead.json``.
"""

from __future__ import annotations

import os
import time

from repro.fabric import SupervisorOptions, WorkloadSpec, get_topology, run_sharded
from repro.faults import get_plan

from benchmarks.conftest import fmt, print_table

TOPOLOGY = "leaf-spine"
WORKLOAD = WorkloadSpec("uniform", flows=400, seed=0,
                        packets_per_flow=4, window_ticks=512)
SHARDS = 4
#: Fast retry clock so the killer run measures recovery, not backoff.
KILLER_OPTIONS = SupervisorOptions(backoff_base_s=0.01, backoff_cap_s=0.05,
                                   poll_s=0.01)


def test_e21_supervision_overhead(benchmark):
    spec = get_topology(TOPOLOGY)

    def sweep():
        out = {}
        for mode, kwargs in (
            ("supervised", {}),
            ("killer", {"chaos": get_plan("shard-killer", seed=3),
                        "supervisor": KILLER_OPTIONS}),
        ):
            started = time.perf_counter()
            report = run_sharded(spec, WORKLOAD, shards=SHARDS, **kwargs)
            out[mode] = (report, time.perf_counter() - started)
        return out

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    fingerprints = {report.fingerprint() for report, _ in measured.values()}
    assert len(fingerprints) == 1, "chaos changed the fingerprint"

    clean_report, clean_wall = measured["supervised"]
    killer_report, killer_wall = measured["killer"]
    assert clean_report.healthy()
    assert killer_report.supervision["fallbacks"] == SHARDS

    recovery = killer_wall - clean_wall
    cpus = os.cpu_count() or 1
    rows = []
    for mode, (report, wall) in measured.items():
        ledger = report.supervision
        rows.append([
            mode, fmt(wall, 3), fmt(report.attempted / wall, 0),
            ledger["attempts"], ledger["retries"], ledger["fallbacks"],
            report.fingerprint()[:12],
        ])
    print_table(
        f"E21: crash recovery, {TOPOLOGY} × {WORKLOAD.key} "
        f"@ {SHARDS} shards ({cpus} CPUs)",
        ["mode", "wall s", "pkts/s", "attempts", "retries", "fallbacks",
         "fingerprint"],
        rows,
    )

    benchmark.extra_info.update({
        "topology": TOPOLOGY,
        "flows": WORKLOAD.flows,
        "shards": SHARDS,
        "supervised_wall_s": round(clean_wall, 4),
        "killer_wall_s": round(killer_wall, 4),
        "recovery_cost_s": round(recovery, 4),
        "killer_ledger": dict(killer_report.supervision),
        "cpus": cpus,
        "fingerprint": clean_report.fingerprint(),
    })
