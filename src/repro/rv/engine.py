"""The streaming engine: batched ingest, grouped dispatch, shared tables.

:class:`RvEngine` is the serving-shaped front of the paper's monitor
theory.  A deployment registers LTL policies (compiled once through the
LRU :class:`~repro.rv.compile.CompileCache`), opens a session per live
trace, and pushes interleaved ``(session_id, event)`` batches.  Each
batch is:

1. *routed* — events are appended to their session's bounded pending
   queue in arrival order (per-session order is the only order that
   matters; sessions are independent);
2. *grouped* — touched sessions are bucketed by compiled monitor, so a
   worker's inner loop stays on one transition table (cache-friendly,
   and the natural sharding unit);
3. *dispatched* — groups run on a thread pool (``workers > 1``) or
   inline (``workers ≤ 1``).  Workers never share a session, so the
   result is deterministic: identical to draining sessions one by one,
   which the test suite checks verdict for verdict against an
   independent set-based reference monitor.

Python threads don't parallelize the pure-Python table loop (the GIL),
but the pool keeps the engine's shape honest — grouping, isolation and
determinism are exactly what a process pool or a C kernel would need —
and the sequential fallback is the fast path today.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from functools import partial

from repro.ltl.syntax import Formula
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.ops.journal import DEBUG, JOURNAL, WARN, EventJournal

from .compile import CompileCache, DecomposedMonitor
from .pool import WorkerPool
from .session import SessionManager, TraceSession
from .stats import EngineStats
from .verdicts import Verdict3


class RvEngine:
    """A multi-session, multi-policy runtime-verification engine.

    ``horizon`` is the engine-wide default finitary-liveness bound
    (overridable per session in :meth:`open_session`); ``None`` keeps
    waits unbounded.  Four-valued verdict transitions crossing a drain
    are recorded in the stats plane (``repro_rv_verdict_*`` families)
    and journaled as ``rv.verdict_transition`` events — severe
    destinations (safety falsified, liveness bound exceeded) at WARN,
    the chatty satisfied/inconclusive flips at DEBUG, matching the
    journal's access-log level convention.

    Tracing is opt-in: pass an :class:`~repro.obs.trace.Tracer` to get
    an ``rv.ingest`` span per batch with ``rv.drain_group`` children —
    parent links survive the worker pool because the ingest span is
    handed to each group drain explicitly.  The default is the null
    tracer (one attribute check per ingest), keeping spans off the
    per-event hot path entirely; metrics are always on.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        max_pending: int = 1024,
        horizon: int | None = None,
        cache: CompileCache | None = None,
        stats: EngineStats | None = None,
        tracer=None,
        journal: EventJournal | None = JOURNAL,
    ):
        self.cache = cache if cache is not None else CompileCache()
        self.sessions = SessionManager(max_pending=max_pending)
        self.horizon = horizon
        self.stats = stats if stats is not None else EngineStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal
        self.pool = WorkerPool(workers, thread_name_prefix="rv-worker",
                               journal=journal)

    @property
    def workers(self) -> int:
        return self.pool.workers

    # -- registration -------------------------------------------------------

    def compile(self, formula: Formula, alphabet: Iterable) -> DecomposedMonitor:
        """Compile (or fetch) the shared monitor for a policy."""
        return self.cache.get(formula, alphabet)

    def open_session(self, session_id, formula: Formula, alphabet: Iterable,
                     max_pending: int | None = None,
                     horizon: int | None = None) -> TraceSession:
        """Open a trace session against the (cached) compiled policy.

        ``horizon=None`` inherits the engine default; sessions needing a
        different bound pass their own (the monitor is shared either
        way — horizons never reach the compile cache)."""
        session = self.sessions.open(
            session_id, self.compile(formula, alphabet), max_pending,
            self.horizon if horizon is None else horizon,
        )
        self.stats.sessions_opened.add()
        return session

    def close_session(self, session_id) -> Verdict3:
        """Close a session, returning its last verdict."""
        return self.sessions.close(session_id).verdict

    # -- ingest -------------------------------------------------------------

    def ingest(self, events: Iterable[tuple]) -> dict:
        """Feed one batch of interleaved ``(session_id, event)`` pairs.

        Returns ``{session_id: verdict}`` for every session touched by
        the batch.  Raises :class:`~repro.rv.session.SessionError` for
        unknown ids, ``ValueError`` for foreign symbols and
        :class:`~repro.rv.session.BackpressureError` when a session's
        queue would overflow — all *before* any event of the batch is
        admitted to any queue, so a rejected batch leaves every session
        exactly as it was.
        """
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("rv.ingest") as span:
                return self._ingest(events, span)
        return self._ingest(events, NULL_SPAN)

    def _ingest(self, events: Iterable[tuple], span) -> dict:
        routed: dict[int, tuple[TraceSession, list]] = {}
        get = self.sessions.get
        for session_id, event in events:
            session = get(session_id)
            entry = routed.get(id(session))
            if entry is None:
                entry = routed[id(session)] = (session, [])
            entry[1].append(event)
        if not routed:
            return {}
        # admission control: the whole batch is validated before any
        # event is queued (atomic reject).
        for session, batch in routed.values():
            session.validate_batch(batch)
        for session, batch in routed.values():
            session.enqueue_many(batch)
        touched = {key: session for key, (session, _) in routed.items()}
        groups = list(self.sessions.by_monitor(touched.values()).values())
        recording = span.recording
        if recording:
            span.set(
                events=sum(len(batch) for _, batch in routed.values()),
                sessions=len(touched),
                groups=len(groups),
            )
        drain = (
            partial(self._drain_group_traced, parent=span)
            if recording
            else self._drain_group
        )
        self.pool.map(drain, groups)
        self.stats.batches.add()
        return {s.session_id: s.verdict for s in touched.values()}

    def _drain_group_traced(self, group: list[TraceSession], parent) -> None:
        # explicit parent: this may run on a pool thread, where the
        # tracer's thread-local stack knows nothing of the ingest span.
        with self.tracer.span("rv.drain_group", parent=parent) as span:
            drained, stepped = self._drain_group(group)
            span.set(sessions=len(group), events=drained, steps=stepped)

    def _drain_group(self, group: list[TraceSession]) -> tuple[int, int]:
        stats = self.stats
        journal = self.journal
        record_drain = stats.record_drain
        perf_counter = time.perf_counter
        monotonic = time.monotonic
        drained = stepped = 0
        for session in group:
            pending = session.pending
            was_final = session.finalized
            before = session.verdict4
            start = perf_counter()
            steps = session.drain()
            record_drain(pending, steps, perf_counter() - start)
            drained += pending
            stepped += steps
            if session.finalized and not was_final:
                stats.record_verdict(session.verdict)
            after = session.verdict4
            if after is not before:
                # verdict transitions are per drain, not per event: the
                # worker loop stays table-only and the ops plane still
                # sees every state the *caller* could have observed.
                stats.record_transition(
                    before, after, monotonic() - session.opened_at
                )
                if journal is not None:
                    journal.emit(
                        "rv.verdict_transition",
                        WARN if after.is_final else DEBUG,
                        session=repr(session.session_id),
                        **{"from": before.value, "to": after.value,
                           "events": session.position, "wait": session.wait},
                    )
        return drained, stepped

    # -- queries ------------------------------------------------------------

    def verdicts(self) -> dict:
        """Current three-valued verdicts of all open sessions."""
        return self.sessions.verdicts()

    def verdicts4(self) -> dict:
        """Current four-valued verdicts of all open sessions."""
        return self.sessions.verdicts4()

    def snapshot(self) -> dict:
        """Stats dashboard including compile-cache counters."""
        return self.stats.snapshot(self.cache)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "RvEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
