"""Recompute the pinned reference fingerprints.

    python3 perfbench/pin.py

Runs each fabric workload's reference (per-packet, uncached, 1-shard)
for seeds 0-63, one process per CPU, and rewrites
``reference_fingerprints.json``.  Run it whenever a change to the
program is *meant* to change a fingerprint; the benchmark treats any
other change of output as a failure.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    PINNED_PATH, WORKLOADS, FabricWorkload,
)

SEEDS = range(64)


def _reference(job: tuple[str, int]) -> tuple[str, int, str]:
    name, seed = job
    case = WORKLOADS[name].case(seed)
    return name, seed, case.reference_report().fingerprint()


def main() -> int:
    names = sorted(n for n, w in WORKLOADS.items()
                   if isinstance(w, FabricWorkload))
    pinned = {name: {} for name in names}
    jobs = [(name, seed) for name in names for seed in SEEDS]
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        for name, seed, fingerprint in pool.imap_unordered(_reference, jobs):
            pinned[name][seed] = fingerprint
            print(f"{name} seed {seed}: {fingerprint[:12]}", flush=True)
    PINNED_PATH.write_text(json.dumps(
        {name: {str(s): fp for s, fp in sorted(seeds.items())}
         for name, seeds in pinned.items()}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
