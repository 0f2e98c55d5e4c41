"""E17 — fabric scale-out: sharded throughput with an invariant fingerprint.

Runs one ≥1000-flow workload over the k=4 fat-tree at 1 and 4 shards
and reports packets/sec for each, asserting the merged delivery
fingerprint is byte-identical — the determinism contract that makes the
parallelism free of observable effect.

**Setup vs run.**  Each worker rebuilds its own network replica from
the spec and prewarms its path cache before the first event dispatches;
that per-shard setup cost does not shrink with more shards (every
replica rebuilds the whole fabric), so folding it into one wall-clock
number understates the scale-out of the part that *does* parallelise.
The bench therefore splits ``setup_s = wall - report.elapsed_s``
(replica rebuild + admission + path-cache prewarm) from the run phase
(``report.elapsed_s``, the slowest shard's dispatch loop) and records
both pps series.  The speedup assertion (≥ 1.8× at 4 shards, on the
run phase) only arms on machines with ≥ 4 CPUs: sharding pure-Python
CPU-bound work cannot beat 1× on fewer cores, and the fingerprint —
not the wall clock — is the correctness claim.

The ``bench_recorder`` fixture appends the record, ``extra_info``
included, to ``BENCH_test_e17_fabric_scaleout.json``.
"""

from __future__ import annotations

import os
import time

from repro.fabric import WorkloadSpec, get_topology, run_sharded

from benchmarks.conftest import fmt, print_table

TOPOLOGY = "fat-tree-4"
WORKLOAD = WorkloadSpec("uniform", flows=1200, seed=0,
                        packets_per_flow=4, window_ticks=1024)
SHARD_COUNTS = (1, 4)
TARGET_SPEEDUP = 1.8


def test_e17_fabric_scaleout(benchmark):
    spec = get_topology(TOPOLOGY)

    def sweep():
        out = {}
        for shards in SHARD_COUNTS:
            started = time.perf_counter()
            report = run_sharded(spec, WORKLOAD, shards=shards)
            out[shards] = (report, time.perf_counter() - started)
        return out

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    fingerprints = {report.fingerprint() for report, _ in measured.values()}
    assert len(fingerprints) == 1, "shard counts changed the fingerprint"

    base_report, base_wall = measured[1]
    assert base_report.attempted >= 1000
    assert base_report.healthy()

    rows, pps_wall, pps_run = [], {}, {}
    for shards, (report, wall) in measured.items():
        setup = max(wall - report.elapsed_s, 0.0)
        pps_wall[shards] = report.attempted / wall
        pps_run[shards] = report.attempted / report.elapsed_s
        rows.append([
            shards, report.attempted, report.delivered,
            fmt(wall, 3), fmt(setup, 3), fmt(report.elapsed_s, 3),
            fmt(pps_wall[shards], 0), fmt(pps_run[shards], 0),
            report.fingerprint()[:12],
        ])
    speedup_wall = base_wall / measured[4][1]
    speedup_run = base_report.elapsed_s / measured[4][0].elapsed_s
    cpus = os.cpu_count() or 1
    print_table(
        f"E17: fabric scale-out, {TOPOLOGY} × {WORKLOAD.key} "
        f"({cpus} CPUs)",
        ["shards", "attempted", "delivered", "wall s", "setup s",
         "run s", "pkts/s", "run pkts/s", "fingerprint"],
        rows,
    )

    benchmark.extra_info.update({
        "topology": TOPOLOGY,
        "flows": WORKLOAD.flows,
        "packets": base_report.attempted,
        "pps_1": round(pps_wall[1], 1),
        "pps_4": round(pps_wall[4], 1),
        "pps_1_run": round(pps_run[1], 1),
        "pps_4_run": round(pps_run[4], 1),
        "setup_1_s": round(base_wall - base_report.elapsed_s, 4),
        "setup_4_s": round(measured[4][1] - measured[4][0].elapsed_s, 4),
        "speedup_4": round(speedup_wall, 3),
        "speedup_4_run": round(speedup_run, 3),
        "cpus": cpus,
        "fingerprint": base_report.fingerprint(),
    })

    if cpus >= 4:
        assert speedup_run >= TARGET_SPEEDUP, (
            f"4-shard run-phase speedup {speedup_run:.2f}x below "
            f"{TARGET_SPEEDUP}x on a {cpus}-CPU machine"
        )
