"""Shared helpers for the experiment benches.

Every bench regenerates one experiment from DESIGN.md §4 and prints the
table/series the platform documentation reports (run with ``-s`` to see
them, or read the captured output).  The timed portion under
``benchmark`` is the experiment's dominant computation, so
``--benchmark-only`` runs double as a performance regression check on
the simulator itself.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import time
from pathlib import Path

import pytest

from perfbench.run import git_sha


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running experiment sweeps (CI smoke runs -m 'not slow')",
    )


@pytest.fixture(autouse=True)
def bench_recorder(request):
    """Append every bench's timing record to ``BENCH_<name>.json``.

    One JSON list per bench node, next to the bench files — the
    append-only history that lets performance be diffed across
    commits.  Each record names the commit, Python version and CPU
    count it ran on, plus the bench's ``extra_info``.  This is the only
    writer of bench history.  Benches that did not run the
    ``benchmark`` fixture (or ran with ``--benchmark-disable``) record
    nothing.
    """
    yield
    benchmark = request.node.funcargs.get("benchmark")
    if benchmark is None:
        return
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    path = Path(__file__).parent / f"BENCH_{name}.json"
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "node": request.node.nodeid,
            "mean_s": stats.mean,
            "min_s": stats.min,
            "max_s": stats.max,
            "stddev_s": stats.stddev,
            "rounds": len(stats.data),
            "extra_info": dict(getattr(benchmark, "extra_info", {}) or {}),
        }
    )
    path.write_text(json.dumps(history, indent=2) + "\n")


def print_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    """Render one experiment table to stdout."""
    out = sys.stdout
    out.write(f"\n=== {title} ===\n")
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    out.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)) + "\n")
    for row in rows:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(row, widths)) + "\n")


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"
