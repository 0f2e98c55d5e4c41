"""E20 — in-band telemetry at fabric scale: overhead and identity.

Runs one leaf-spine workload four ways — INT off/on × flow caches
on/off — at 1 and 4 shards, and asserts:

* **Identity**: the INT-enabled ``FabricReport`` fingerprint (which
  folds in the merged ``int_summary``) is byte-identical across every
  shard count and with the flow caches on or off.  Stamping, sequence
  substitution and receiver-side collection are all deterministic and
  shard-invariant, or E19's attribution claim means nothing.
* **Losslessness**: on the healthy fabric the receiver sees every
  injected INT packet — no blackholes, no gaps.
* **Speedup guard**: the flow-cache fast path still pays off ≥ 1.5× on
  the INT-off run (E18's regression guard, re-armed here so an INT
  change that breaks caching shows up in this bench too).

INT's stamping cost is recorded as ``int_overhead`` (INT-on wall over
INT-off wall, caches on) — reported, not asserted, since the trailer
work is genuine extra computation, not an optimisation to guard.

The ``bench_recorder`` fixture appends the record, ``extra_info``
included, to ``BENCH_test_e20_int_overhead.json``.
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
TARGET_SPEEDUP = 1.5


def test_e20_int_overhead(benchmark):
    spec = get_topology(TOPOLOGY)

    def sweep():
        out = {}
        for shards in SHARD_COUNTS:
            for int_all in (False, True):
                for fastpath in (True, False):
                    started = time.perf_counter()
                    report = run_sharded(spec, WORKLOAD, shards=shards,
                                         fastpath=fastpath, int_all=int_all)
                    out[(shards, int_all, fastpath)] = (
                        report, time.perf_counter() - started
                    )
        return out

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Identity: the INT fingerprint is one value across shards × caches.
    int_prints = {report.fingerprint()
                  for (_, int_all, _), (report, _) in measured.items()
                  if int_all}
    assert len(int_prints) == 1, \
        "sharding or the flow cache changed the INT fingerprint"
    plain_prints = {report.fingerprint()
                    for (_, int_all, _), (report, _) in measured.items()
                    if not int_all}
    assert len(plain_prints) == 1
    assert int_prints != plain_prints  # the summary is in the signature

    # Losslessness: the receiver saw everything the edge injected.
    int_report, _ = measured[(1, True, True)]
    summary = int_report.int_summary
    assert int_report.healthy()
    assert summary["packets"] == summary["delivered"]
    assert summary["lost"] == 0 and summary["blackholes"] == 0
    assert summary["flows"] == len(int_report.records)

    rows, walls = [], {}
    for (shards, int_all, fastpath), (report, wall) in measured.items():
        walls[(shards, int_all, fastpath)] = wall
        rows.append([
            shards, "on" if int_all else "off",
            "on" if fastpath else "off", report.attempted,
            fmt(wall, 3), fmt(report.attempted / wall, 0),
            report.fingerprint()[:12],
        ])
    speedup_off = walls[(1, False, False)] / walls[(1, False, True)]
    speedup_int = walls[(1, True, False)] / walls[(1, True, True)]
    overhead = walls[(1, True, True)] / walls[(1, False, True)]
    cpus = os.cpu_count() or 1
    print_table(
        f"E20: in-band telemetry, {TOPOLOGY} × {WORKLOAD.key} "
        f"({cpus} CPUs)",
        ["shards", "int", "cache", "attempted", "wall s", "pkts/s",
         "fingerprint"],
        rows,
    )

    benchmark.extra_info.update({
        "topology": TOPOLOGY,
        "flows": WORKLOAD.flows,
        "packets": int_report.attempted,
        "stamps": summary["stamps"],
        "int_overhead": round(overhead, 3),
        "speedup_int_off": round(speedup_off, 3),
        "speedup_int_on": round(speedup_int, 3),
        "cpus": cpus,
        "fingerprint": int_report.fingerprint(),
    })

    assert speedup_off >= TARGET_SPEEDUP, (
        f"cache-on speedup {speedup_off:.2f}x below the {TARGET_SPEEDUP}x "
        f"target on the INT-off path"
    )
