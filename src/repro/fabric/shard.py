"""Sharded parallel fabric execution with a deterministic merge.

Flows whose outcomes are pure functions of ``(topology, workload,
seed)`` are embarrassingly parallel: :func:`run_sharded` partitions them
by ``flow_id % shards``.  Each shard rebuilds its *own* network replica
from the picklable :class:`FabricSpec` (device models are stateful and
unpicklable — the spec travels, not the network), regenerates the flow
list from the same seed, runs only its slice, and yields its
:class:`FabricReport`.

The merge is deterministic by construction: per-flow records are
disjoint (concatenate, sort by ``flow_id``), per-device forwarded
counts, fault counters and hop histograms are order-independent sums.
So ``run_sharded(spec, wl, shards=N).fingerprint()`` is byte-identical
for every ``N`` — the invariant the fabric test suite and the CI smoke
job pin — while wall-clock throughput scales with cores.

There are two ways to run the shards, and both end in the same merge:

* **worker processes** under the supervisor
  (:mod:`repro.fabric.supervisor`): per-shard deadlines and heartbeats,
  seeded crash chaos, bounded retries with exponential backoff, an
  inline fallback when the budget is exhausted, merge-boundary
  integrity checks, and checkpoint/resume.  A crashed worker costs a
  retry, never the run — and never a bit of the fingerprint.
* **in-process**, one shard after another: the reference the process
  path is checked against, and the path for ``shards=1`` and for
  ``parallel=False`` (e.g. a daemonic parent process that may not
  fork workers).
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Optional

from repro.fabric.scheduler import (
    DEFAULT_MAX_INFLIGHT,
    FabricReport,
    LinkSchedule,
    run_flows,
)
from repro.fabric.supervisor import (
    CheckpointStore,
    SupervisorOptions,
    _supervise,
    run_identity,
)
from repro.fabric.topo import FabricSpec
from repro.fabric.workload import Flow, WorkloadSpec
from repro.faults import FaultPlan
from repro.int import merge_int_summaries


def _run_shard(
    spec: FabricSpec,
    workload: WorkloadSpec,
    plan: Optional[FaultPlan],
    shards: int,
    index: int,
    max_inflight: int,
    fastpath: bool,
    flows: Optional[list[Flow]],
    frr: bool,
    link_schedule: Optional[LinkSchedule],
    int_all: bool,
    batch: bool = True,
) -> FabricReport:
    """One shard's slice: rebuild the fabric, carry flows ≡ index (mod
    shards).  Module-level so worker processes can pickle it."""
    topology = spec.build()
    return run_flows(
        topology, workload, plan,
        flow_filter=lambda flow: flow.flow_id % shards == index,
        flows=flows,
        max_inflight=max_inflight,
        shards=shards,
        fastpath=fastpath,
        frr=frr,
        link_schedule=link_schedule,
        int_all=int_all,
        batch=batch,
    )


#: The config fields every shard of one run must agree on.  ``int_all``
#: changes which flows carry INT trailers; ``max_inflight`` and
#: ``fastpath_enabled`` must not vary across one run's shards even
#: though they leave the outcome untouched — a mixed-config merge means
#: the reports came from different invocations.
_HEAD_FIELDS = (
    "topology", "workload", "seed", "plan", "frr", "link_schedule",
    "max_inflight", "int_all", "fastpath_enabled", "batch_enabled",
)


def merge_reports(reports: list[FabricReport], shards: int) -> FabricReport:
    """Fold shard reports into the run report, deterministically.

    Records concatenate (flow partitions are disjoint) and sort by flow
    id; every aggregate is an order-independent sum.  Shard wall-clock
    times overlap, so ``elapsed_s`` takes the slowest shard.  The head
    check refuses reports whose run identity *or* execution config
    differ (:data:`_HEAD_FIELDS`); overlapping partitions are refused
    by the duplicate-flow-id check.
    """
    if not reports:
        raise ValueError("nothing to merge")
    head = reports[0]
    for other in reports[1:]:
        mismatched = [
            name for name in _HEAD_FIELDS
            if getattr(other, name) != getattr(head, name)
        ]
        if mismatched:
            raise ValueError(
                "cannot merge reports of different runs: "
                f"{', '.join(mismatched)} differ"
            )
    forwarded: Counter[str] = Counter()
    faults: Counter[str] = Counter()
    hops: Counter[int] = Counter()
    fastpath: Counter[str] = Counter()
    batch: Counter[str] = Counter()
    loss_by_epoch: Counter[int] = Counter()
    reroutes: Counter[str] = Counter()
    blackholed: Counter[str] = Counter()
    records = []
    for report in reports:
        records.extend(report.records)
        forwarded.update(report.device_forwarded)
        faults.update(report.fault_counters)
        hops.update(report.hops_hist)
        fastpath.update(report.fastpath)
        batch.update(report.batch)
        loss_by_epoch.update(report.loss_by_epoch)
        reroutes.update(report.device_reroutes)
        blackholed.update(report.device_blackholed)
    seen = [r.flow_id for r in records]
    if len(seen) != len(set(seen)):
        raise ValueError("shard partitions overlap: duplicate flow ids")
    return FabricReport(
        topology=head.topology,
        workload=head.workload,
        seed=head.seed,
        plan=head.plan,
        records=sorted(records, key=lambda r: r.flow_id),
        device_forwarded=dict(sorted(forwarded.items())),
        fault_counters=dict(sorted(faults.items())),
        hops_hist=dict(sorted(hops.items())),
        frr=head.frr,
        link_schedule=head.link_schedule,
        loss_by_epoch=dict(sorted(loss_by_epoch.items())),
        device_reroutes=dict(sorted(reroutes.items())),
        device_blackholed=dict(sorted(blackholed.items())),
        shards=shards,
        elapsed_s=max(r.elapsed_s for r in reports),
        fastpath=dict(sorted(fastpath.items())),
        # int_summary is an observable (data), not run config, so it is
        # merged rather than head-checked: shards that carried no INT
        # flow report None and drop out of the fold.
        int_summary=merge_int_summaries([r.int_summary for r in reports]),
        max_inflight=head.max_inflight,
        int_all=head.int_all,
        fastpath_enabled=head.fastpath_enabled,
        batch=dict(sorted(batch.items())),
        batch_enabled=head.batch_enabled,
    )


def run_sharded(
    spec: FabricSpec,
    workload: WorkloadSpec,
    plan: Optional[FaultPlan] = None,
    *,
    shards: int = 1,
    parallel: bool = True,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    fastpath: bool = True,
    flows: Optional[list[Flow]] = None,
    frr: bool = False,
    link_schedule: Optional[LinkSchedule] = None,
    int_all: bool = False,
    batch: bool = True,
    chaos: Optional[FaultPlan] = None,
    checkpoint: Optional[str | os.PathLike] = None,
    supervisor: Optional[SupervisorOptions] = None,
) -> FabricReport:
    """Run a fabric workload across ``shards`` partitions and merge.

    With ``parallel=True`` and ``shards > 1`` (or ``chaos`` or
    ``checkpoint`` given) the partitions run in worker processes (at
    most ``min(shards, cores)`` concurrently) under the supervisor;
    otherwise they run one after another in-process.  Either way the
    shard reports go through the same merge, and the merged report's
    fingerprint equals the 1-shard run's — and equals the run with
    ``fastpath=False`` (flow caches off), since caches are per-replica
    and observationally inert.

    ``chaos`` is a fault plan whose :class:`~repro.faults.ShardFaultSpec`
    seeds worker crash/hang/corrupt chaos per (shard, attempt).  It is
    operational only — the merged fingerprint is identical with any
    chaos schedule, which the ``-m shard`` suite pins.  ``checkpoint``
    names a directory where accepted shard reports persist as they
    land; rerunning with the same arguments resumes from the surviving
    shards.  Both need worker processes, so with ``parallel=False``
    they raise :class:`ValueError` rather than being ignored.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    flow_count = len(flows) if flows is not None else workload.flows
    if shards > flow_count:
        raise ValueError(
            f"shards={shards} exceeds the {flow_count} flows to carry; "
            "the extra workers would rebuild replicas to forward nothing"
        )
    needs_workers = chaos is not None or checkpoint is not None
    if needs_workers and not parallel:
        raise ValueError(
            "chaos and checkpoint need worker processes; "
            "they cannot be combined with parallel=False (--inline)"
        )
    jobs = [(spec, workload, plan, shards, index, max_inflight, fastpath,
             flows, frr, link_schedule, int_all, batch)
            for index in range(shards)]
    if not (parallel and (shards > 1 or needs_workers)):
        return merge_reports([_run_shard(*job) for job in jobs], shards)
    store = None
    if checkpoint is not None:
        store = CheckpointStore(checkpoint, run_identity(
            spec, workload, plan, shards, max_inflight, fastpath, flows,
            frr, link_schedule, int_all, batch))
    reports, stats = _supervise(_run_shard, jobs, store, chaos,
                                supervisor or SupervisorOptions())
    merged = merge_reports(reports, shards)
    merged.supervision = stats.as_dict()
    return merged
