"""E23 — batched data plane: path-cache batch replay vs per-packet replay.

Runs the E18 preset (leaf-spine, 400 uniform flows) across the
{batch on/off} × {cache on/off} × {1/4 shard} grid and asserts the
S27 safety net and the perf claim together:

* **Identity**: one ``FabricReport`` fingerprint — and one INT summary
  on the ``int_all`` pass — across every combination.  Batching is an
  execution strategy; nothing observable may move.
* **Speedup**: the batch-on/cache-on *run phase* carries ≥ 3× the
  packets/sec of the batch-off/cache-on baseline at 1 shard.  The run
  phase (``report.elapsed_s``) is the dispatch loop only: the
  path-cache prewarm (one dry walk per flow direction) happens at
  setup by design, and the setup/run split is recorded so neither
  phase hides in the other.  3× is conservative — observed ratios are >4× here
  and >10× against the uncached path.

The ``bench_recorder`` fixture appends the record, ``extra_info``
included, to ``BENCH_test_e23_batch_tier.json``.
"""

from __future__ import annotations

import os
import time

from repro.fabric import WorkloadSpec, get_topology, run_sharded

from benchmarks.conftest import fmt, print_table

TOPOLOGY = "leaf-spine"
WORKLOAD = WorkloadSpec("uniform", flows=400, seed=0,
                        packets_per_flow=24, window_ticks=1024)
SHARD_COUNTS = (1, 4)
TARGET_SPEEDUP = 3.0  # run-phase, batch-on vs batch-off, both cache-on


def test_e23_batch_tier(benchmark):
    spec = get_topology(TOPOLOGY)

    def sweep():
        out = {}
        for shards in SHARD_COUNTS:
            for batch in (True, False):
                for fastpath in (True, False):
                    started = time.perf_counter()
                    report = run_sharded(spec, WORKLOAD, shards=shards,
                                         batch=batch, fastpath=fastpath)
                    out[(shards, batch, fastpath)] = (
                        report, time.perf_counter() - started
                    )
        return out

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Identity: the whole grid fingerprints the same.
    fingerprints = {report.fingerprint() for report, _ in measured.values()}
    assert len(fingerprints) == 1, "the batch tier changed the fingerprint"

    # INT identity: a telemetered pass agrees batch on/off, byte for
    # byte, and its batched replays kept the sequence space gapless.
    int_on = run_sharded(spec, WORKLOAD, shards=1, int_all=True)
    int_off = run_sharded(spec, WORKLOAD, shards=1, int_all=True,
                          batch=False)
    assert int_on.int_summary == int_off.int_summary
    assert int_on.fingerprint() == int_off.fingerprint()
    assert int_on.int_summary["lost"] == 0
    assert int_on.batch["replayed_packets"] > 0

    base_report, _ = measured[(1, True, True)]
    assert base_report.healthy()
    assert base_report.batch["replayed_packets"] > 0
    assert base_report.batch["splits"] == 0

    rows, pps_run = [], {}
    for (shards, batch, fastpath), (report, wall) in measured.items():
        pps_run[(shards, batch, fastpath)] = (
            report.attempted / report.elapsed_s)
        rows.append([
            shards, "on" if batch else "off", "on" if fastpath else "off",
            report.attempted, fmt(wall, 3),
            fmt(max(wall - report.elapsed_s, 0.0), 3),
            fmt(report.elapsed_s, 3),
            fmt(pps_run[(shards, batch, fastpath)], 0),
            report.batch.get("replayed_packets", 0),
            report.fingerprint()[:12],
        ])
    speedup = pps_run[(1, True, True)] / pps_run[(1, False, True)]
    speedup_uncached = pps_run[(1, True, True)] / pps_run[(1, False, False)]
    cpus = os.cpu_count() or 1
    print_table(
        f"E23: batched data plane, {TOPOLOGY} × {WORKLOAD.key} "
        f"({cpus} CPUs)",
        ["shards", "batch", "cache", "attempted", "wall s", "setup s",
         "run s", "run pkts/s", "replayed", "fingerprint"],
        rows,
    )

    benchmark.extra_info.update({
        "topology": TOPOLOGY,
        "flows": WORKLOAD.flows,
        "packets": base_report.attempted,
        "pps_batch_run": round(pps_run[(1, True, True)], 1),
        "pps_cache_run": round(pps_run[(1, False, True)], 1),
        "pps_uncached_run": round(pps_run[(1, False, False)], 1),
        "speedup_vs_cache": round(speedup, 3),
        "speedup_vs_uncached": round(speedup_uncached, 3),
        "replayed_packets": base_report.batch["replayed_packets"],
        "segments": base_report.batch["segments"],
        "prewarmed": base_report.batch["prewarmed"],
        "cpus": cpus,
        "fingerprint": base_report.fingerprint(),
    })

    assert speedup >= TARGET_SPEEDUP, (
        f"batch-on run-phase speedup {speedup:.2f}x over the cache-on "
        f"baseline is below the {TARGET_SPEEDUP}x target"
    )
