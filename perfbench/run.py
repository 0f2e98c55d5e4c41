"""End-to-end benchmark of the fabric engine and the cycle kernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The load is a closed loop: one client
issues one operation at a time and waits for it.  After one untimed
warm-up operation (the first call in a process pays for first-use
imports and worker start; it is checked like the rest), operations
repeat until ``--seconds`` have passed.  Every output is checked
against the reference path (:mod:`perfbench.workloads`); an operation
that raised or whose output differs counts as failed.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's operations: ``e2e_pps`` (packets attempted per wall second of the
whole call), ``setup_s`` (wall seconds of the call minus the slowest
shard's dispatch loop; for ``cycle-sim`` the project construction) and
``peak_rss_mb`` (peak resident memory of this process plus its largest
worker).  The two times are scaled to the reference host speed: a
fixed probe (:func:`host_probe`) is timed just before and just after
each operation, and the operation's times are multiplied by
``PROBE_REF_S`` over the mean of its two probes.  On a shared host
whose speed drifts over tens of seconds this removes most of the drift
from run to run; the unscaled samples are kept in the record.

``--trace 1`` runs the same timed loop, then one operation with
shard-level spans only (the in-process baseline) and one with every
layer wrapped (:mod:`perfbench.trace`), and prints the per-layer ledger.
The Chrome trace goes to ``perfbench/out/``.

Every run appends its record (git sha, Python version, CPU count,
workload, seed, size, samples, ledger) to ``perfbench/out/results.jsonl``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402

from perfbench.trace import (  # noqa: E402
    instrument_full, instrument_light, instrumented,
)
from perfbench.workloads import WORKLOADS, FabricCase  # noqa: E402

E2E_UNITS = {"e2e_pps": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Seconds :func:`host_probe` takes on the reference host (2 CPUs of a
#: shared Intel Xeon server, CPython 3.11).  Timed figures are scaled to it.
PROBE_REF_S = 0.055

LAYER_UNITS = {
    "topo.build_s": "s", "topo.builds": "count", "topo.learn_s": "s",
    "frr.backups_s": "s",
    "workload.generate_s": "s",
    "faults.session_s": "s", "faults.sessions": "count",
    "engine.setup_self_s": "s", "engine.dispatch_self_s": "s",
    "engine.events": "count", "engine.segments": "count",
    "engine.report_s": "s", "report.fingerprint_s": "s",
    "net.warm_s": "s", "net.warm_walks": "count",
    "net.inject_s": "s", "net.inject_calls": "count",
    "net.inject_batch_s": "s", "net.inject_batch_calls": "count",
    "net.link_writes": "count",
    "device.forward_s": "s", "device.forward_calls": "count",
    "device.decide_s": "s", "device.parse_s": "s",
    "device.generation_polls": "count",
    "fastpath.path_hit_ratio": "ratio",
    "fastpath.path_invalidations": "count",
    "fastpath.device_hit_ratio": "ratio",
    "fastpath.batch_replay_share": "ratio",
    "fastpath.batch_split_ratio": "ratio",
    "fastpath.cold_misses": "count",
    "int.collect_s": "s", "int.collect_calls": "count",
    "shard.merge_s": "s", "shard.overhead_s": "s", "shard.retries": "count",
    "sim.cycles": "count", "sim.step_us_per_cycle": "us",
    "sim.comb_s": "s", "sim.tick_s": "s",
    "sim.comb_calls_per_cycle": "calls/cycle", "hw.forward_s": "s",
    "trace.overhead_s": "s", "trace.unwrapped_s": "s",
}


def git_sha(root: Path = ROOT):
    """HEAD's commit, read from ``.git`` without running git; ``None``
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped worker's, in MiB.

    Linux reports ``ru_maxrss`` in KiB.  Pages a forked worker shares
    with this process count in both terms.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def attempt(case, outcomes: list, errors: list) -> None:
    """Run one operation; keep its outcome, or its error if it raised."""
    try:
        outcomes.append(case.run())
    except Exception:  # an operation that raises is a failed one
        errors.append(traceback.format_exc(limit=4))


def host_probe() -> float:
    """Seconds a fixed interpreter loop takes right now.

    The host shares its CPUs with other tenants, and its speed drifts
    by 15 % or more either way over tens of seconds.  The loop runs
    none of the program's code, so its time follows the host and not
    the program.  Of the probes tried (this loop, and loops that also
    allocate objects, fill a dict and sort, with working sets of 1 and
    8 MB), this one tracked the operations' own drift most closely.
    """
    started = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    return time.perf_counter() - started


def timed_loop(case, seconds: float):
    """Closed loop: run operations until ``seconds`` have passed.

    Returns the outcomes and the error text of operations that raised.
    Each outcome carries the mean of the host probes timed just before
    and just after it.  Only the first outcome keeps its report.
    Retained reports would grow the heap the collector walks, slowing
    each later operation; for the same reason garbage is collected,
    untimed, before each one.
    """
    outcomes, errors = [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        done = len(outcomes)
        before = host_probe()
        attempt(case, outcomes, errors)
        after = host_probe()
        if len(outcomes) > done:
            outcomes[-1].probe_s = (before + after) / 2
        if len(outcomes) > 1:
            outcomes[-1].report = None
        if time.perf_counter() >= deadline:
            return outcomes, errors


def ledger(case, outcomes, light, full, engines, traced) -> dict:
    """The per-layer metrics from the two instrumented operations."""
    S = lambda name: full.self_s.get(name, 0.0)  # noqa: E731
    C = lambda name: full.calls.get(name, 0)  # noqa: E731
    out = {
        "topo.build_s": S("topo.build"), "topo.builds": C("topo.build"),
        "topo.learn_s": S("topo.learn"),
        "frr.backups_s": S("frr.backups"),
        "workload.generate_s": S("workload.generate"),
        "faults.session_s": S("faults.derived") + S("faults.session"),
        "faults.sessions": C("faults.session"),
        "engine.setup_self_s": S("engine.setup"),
        "engine.dispatch_self_s": S("engine.dispatch"),
        "engine.events": sum(e.events_dispatched for e in engines),
        "engine.report_s": S("engine.report"),
        "report.fingerprint_s": S("report.fingerprint"),
        "net.warm_s": S("net.warm"),
        "net.inject_s": S("net.inject"), "net.inject_calls": C("net.inject"),
        "net.inject_batch_s": S("net.inject_batch"),
        "net.inject_batch_calls": C("net.inject_batch"),
        "net.link_writes": C("net.link_state"),
        "device.forward_s": S("device.forward"),
        "device.forward_calls": C("device.forward"),
        "device.decide_s": S("device.decide"),
        "device.parse_s": S("device.parse"),
        "device.generation_polls": C("device.generation"),
        "int.collect_s": S("int.collect"),
        "int.collect_calls": C("int.collect"),
        "shard.merge_s": S("shard.merge"),
        "shard.overhead_s": 0.0,
        "shard.retries": 0,
        "sim.comb_s": S("sim.comb"), "sim.tick_s": S("sim.tick"),
        "hw.forward_s": S("hw.forward"),
        "trace.overhead_s": (full.total_s["bench.op"]
                             - light.total_s["bench.op"]),
        "trace.unwrapped_s": S("bench.op"),
    }
    report = traced.report
    if isinstance(case, FabricCase):
        fp, batch = report.fastpath, report.batch
        out.update({
            "engine.segments": batch.get("segments", 0),
            "net.warm_walks": batch.get("prewarmed", 0),
            "fastpath.path_hit_ratio": _ratio(
                fp.get("path_hits", 0),
                fp.get("path_hits", 0) + fp.get("path_misses", 0)),
            "fastpath.path_invalidations": fp.get("path_invalidations", 0),
            "fastpath.device_hit_ratio": _ratio(
                fp.get("device_hits", 0),
                fp.get("device_hits", 0) + fp.get("device_misses", 0)),
            "fastpath.batch_replay_share": _ratio(
                batch.get("replayed_packets", 0), report.attempted),
            # inject_batch either replays or reports a cold miss.
            "fastpath.batch_split_ratio": _ratio(
                batch.get("splits", 0),
                batch.get("replays", 0) + batch.get("cold_misses", 0)),
            "fastpath.cold_misses": batch.get("cold_misses", 0),
            # Relaunches in the worst operation: the count of ops a
            # run fits depends on the host, the retries of one do not.
            "shard.retries": max(o.retries for o in outcomes),
        })
        if case.workload.shards > 1:
            # Parallel wall minus the in-process critical path (the
            # slowest shard's build + run), the merge and the
            # fingerprint of the merged report.
            builds = light.kept("topo.build")
            runs = light.kept("fabric.run_flows")
            critical = max((b[1] - b[0]) + (r[1] - r[0])
                           for b, r in zip(builds, runs))
            parallel = statistics.median(o.wall_s for o in outcomes)
            out["shard.overhead_s"] = (parallel - critical
                                       - light.total_s["shard.merge"]
                                       - light.total_s["report.fingerprint"])
    else:
        cycles = report.cycles
        out.update({
            "sim.cycles": cycles,
            "sim.step_us_per_cycle": (light.total_s["sim.step"]
                                      / light.calls["sim.step"] * 1e6),
            "sim.comb_calls_per_cycle": _ratio(C("sim.comb"), cycles),
        })
    return {name: out.get(name, 0) for name in LAYER_UNITS}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0, expected: str = None,
                  out_dir: Path = OUT) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, record)``.

    ``scale`` shrinks the input (the benchmark's own tests use it) and
    ``expected`` overrides the reference fingerprint.
    """
    case = WORKLOADS[name].case(seed, scale)
    # The cold call pays for first-use imports and worker start: it is
    # checked and counted like every other operation, but not timed.
    cold, errors = [], []
    started = time.perf_counter()
    attempt(case, cold, errors)
    cold_s = time.perf_counter() - started
    for outcome in cold:
        outcome.report = None

    outcomes, timed_errors = timed_loop(case, seconds)
    errors += timed_errors
    if not outcomes:
        raise RuntimeError("every operation raised:\n" + errors[-1])
    rss = peak_rss_mb()  # before any live reference run can raise it

    checked = cold + outcomes
    engines: list = []
    light = full = traced = None
    if trace:
        gc.collect()
        with instrumented(instrument_light) as light:
            with light.span("bench.op"):
                checked.append(case.traced_op())
        gc.collect()
        with instrumented(lambda rec: instrument_full(rec, engines)) as full:
            with full.span("bench.op"):
                traced = case.traced_op()
        checked.append(traced)

    expected = expected or case.reference_fingerprint()
    failures = list(errors)
    for outcome in checked:
        if outcome.fingerprint != expected:
            if outcome.report is None:
                # Operations are deterministic: rerun one to get a report.
                outcome = case.run()
            failures.append(f"output {outcome.fingerprint[:12]} != reference "
                            f"{expected[:12]}: "
                            + case.explain(outcome, expected))
    attempted = len(checked) + len(errors)

    if trace:
        metrics = ledger(case, outcomes, light, full, engines, traced)
        units = LAYER_UNITS
    else:
        # Each operation's times are scaled by the host probe taken
        # around it, to what they would read at the reference speed.
        metrics = {
            "e2e_pps": statistics.median(
                o.packets / o.wall_s * o.probe_s / PROBE_REF_S
                for o in outcomes),
            "setup_s": statistics.median(
                o.setup_s * PROBE_REF_S / o.probe_s for o in outcomes),
            "peak_rss_mb": rss,
        }
        units = E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": case.size,
        "properties": case.properties(outcomes[0]),
        "cold_call_s": cold_s,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "metrics": result["metrics"],
        "samples": {"wall_s": [o.wall_s for o in outcomes],
                    "setup_s": [o.setup_s for o in outcomes],
                    "probe_s": [o.probe_s for o in outcomes],
                    "packets": [o.packets for o in outcomes]},
    }
    if trace:
        record["ledger"] = {n: {"calls": full.calls[n],
                                "total_s": full.total_s[n],
                                "self_s": full.self_s[n]}
                            for n in sorted(full.calls)}
        record["traced_wall_s"] = full.total_s["bench.op"]
        record["self_sum_s"] = sum(full.self_s.values())
        full.chrome_trace(out_dir / f"trace-{name}-seed{seed}.json",
                          {"workload": name, "seed": seed})
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end fabric and cycle-kernel benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    for failure in record["failures"]:
        print("FAILED:", failure, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} cpus={record['cpu_count']} "
          f"ops={record['attempted']} cold_call_s={record['cold_call_s']:.3f} "
          f"properties={json.dumps(record['properties'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
