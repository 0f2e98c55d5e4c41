"""Flow-cache fast path: cached forwarding that is byte-identical.

Two caches make repeated traffic cheap without changing a single
observable:

* :class:`MicroflowCache` — per-device exact-match decision cache
  consulted by behavioural forwarding, invalidated by generation
  counters that every table mutation bumps (see
  :mod:`repro.fastpath.cache` for the invariants).
* the **path cache** inside :class:`repro.testenv.topology.Network` —
  memoizes whole hop walks per (entry attachment, frame) while the
  topology-wide generation vector is stable; :meth:`Network.inject`
  replays them.

Batch replay (S27) is the path-cache walk applied × n:
:meth:`Network.inject_batch` moves every counter of a warm walk ``n``
times in one step, under the same generation guard (a mid-run mutation
splits the batch exactly where it would invalidate the cache).

Telemetry lives in :func:`repro.telemetry.probes.probe_fastpath`;
``nf-mon fabric`` prints the same stats (and ``--no-fastpath`` turns
the whole subsystem off for A/B runs — the E18 bench asserts the
fingerprints agree and the cache side is >=3x faster).
"""

from repro.fastpath.cache import (
    DEFAULT_CAPACITY,
    MicroflowCache,
    session_has_datapath_sites,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "MicroflowCache",
    "session_has_datapath_sites",
]
