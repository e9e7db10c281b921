"""Streaming runtime verification at serving scale.

One monitor core carries the traffic: every policy compiles to a
:class:`DecomposedMonitor` (the paper's ``B = B_S ∩ B_L`` split lowered
onto dense tables), and sessions, the engine and the service's
``Monitor`` verb all step it.  Layering (each layer only knows the one
below):

* :mod:`repro.rv.verdicts` — the verdict lattices: the three-valued
  :class:`Verdict3` and the four-valued :class:`Verdict4` /
  :class:`MonitorOutcome` that decomposition-driven monitoring produces;
* :mod:`repro.rv.compile` — formulas → :func:`repro.analysis.decompose`
  → dense transition tables (:class:`DecomposedMonitor` = product of the
  safety closures' subset tables + :class:`BoundTracker` for the
  liveness conjunct), memoized in an LRU :class:`CompileCache`;
* :mod:`repro.rv.session` — per-trace cursors over shared tables, with
  bounded-queue backpressure and per-session finitary horizons
  (:class:`TraceSession`, :class:`SessionManager`);
* :mod:`repro.rv.pool` — the shared inline-or-parallel
  :class:`WorkerPool` (also dispatches :mod:`repro.service` requests);
* :mod:`repro.rv.engine` — batched ingest, monitor-grouped dispatch
  over the pool, verdict-transition recording (:class:`RvEngine`);
* :mod:`repro.rv.stats` — the engine's measurements
  (:class:`EngineStats`), a facade over the shared :mod:`repro.obs`
  metric registry (``repro_rv_*`` families with an ``engine`` label,
  including ``repro_rv_verdict_transitions_total`` and
  ``repro_rv_verdict_latency_seconds``); pass ``RvEngine(tracer=...)``
  for ingest/drain spans.

The test suite checks the compiled monitor, sessions and the engine
verdict for verdict against an independent set-based reference monitor
that steps ``translate(φ)`` and ``translate(¬φ)`` directly.
"""

from .compile import (
    BoundTracker,
    CacheInfo,
    CompileCache,
    DEFAULT_CACHE,
    DecomposedMonitor,
    SubsetTable,
    canonical_key,
    compile_formula,
)
from .engine import RvEngine
from .pool import WorkerPool
from .session import BackpressureError, SessionError, SessionManager, TraceSession
from .stats import Counter, EngineStats, Gauge, Histogram
from .verdicts import MonitorOutcome, Verdict3, Verdict4, most_severe

__all__ = [
    "Verdict3",
    "Verdict4",
    "MonitorOutcome",
    "most_severe",
    "SubsetTable",
    "BoundTracker",
    "DecomposedMonitor",
    "CompileCache",
    "CacheInfo",
    "DEFAULT_CACHE",
    "canonical_key",
    "compile_formula",
    "TraceSession",
    "SessionManager",
    "SessionError",
    "BackpressureError",
    "WorkerPool",
    "RvEngine",
    "Counter",
    "Gauge",
    "Histogram",
    "EngineStats",
]
