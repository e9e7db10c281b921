"""Trace sessions: thousands of live traces over shared compiled monitors.

A :class:`TraceSession` is the per-trace slice of monitor state — two
integers (the product-table state and the bound-tracker state), a wait
counter, a verdict, and a bounded pending queue.  The expensive objects
(automata, closures, transition tables, good-edge flags) live in the
shared :class:`~repro.rv.compile.DecomposedMonitor`; opening a session
is O(1) and costs a few machine words, which is what makes 10⁴
concurrent traces against a handful of policies cheap.

A session carries *two* verdicts side by side:

* :attr:`TraceSession.verdict` — the three-valued
  :class:`~repro.rv.verdicts.Verdict3` (the safety product table alone
  decides it), with :attr:`TraceSession.monitorable` saying whether a
  definite one is still reachable;
* :attr:`TraceSession.verdict4` — the four-valued
  :class:`~repro.rv.verdicts.Verdict4` that also reads the liveness
  conjunct's bound tracker: the session counts events since its last
  *good edge*, and under a finitary ``horizon`` an exceeded wait
  latches ``LIVENESS_BOUND_EXCEEDED`` forever (Chatterjee–Fijalkow:
  the bound is a safety property of the prefix).

Backpressure is per session: events are *enqueued* (cheap, validated)
and *drained* (the tight table loop) separately, and a session whose
pending queue is full raises :class:`BackpressureError` instead of
buffering unboundedly — the caller decides whether to drop, block, or
drain.  Bad-prefix truncation is free: once the three-valued verdict is
definite the drain loop stops touching both tables entirely and only
counts events (the four-valued verdict is fixed at that point too:
``FALSE`` dominates everything, and on ``TRUE`` the latch state can no
longer change).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Iterator

from .compile import DecomposedMonitor
from .verdicts import MonitorOutcome, Verdict3, Verdict4


class BackpressureError(RuntimeError):
    """A session's bounded pending queue is full."""


class SessionError(ValueError):
    """Unknown or duplicate session id."""


class TraceSession:
    """One monitored trace: shared tables, private cursors.

    ``horizon`` is the finitary-liveness bound (events a wait may reach
    before ``LIVENESS_BOUND_EXCEEDED`` latches); ``None`` means
    unbounded — waits are still tracked (``max_wait``) but never latch.
    It is a per-session runtime parameter precisely so one cached
    monitor serves every horizon.
    """

    __slots__ = ("session_id", "monitor", "max_pending", "horizon", "opened_at",
                 "_state", "_verdict", "_events", "_pending",
                 "_tstate", "_wait", "_max_wait", "_latched")

    def __init__(self, session_id, monitor: DecomposedMonitor,
                 max_pending: int = 1024, horizon: int | None = None):
        if horizon is not None and horizon < 0:
            raise ValueError("horizon must be >= 0 (or None for unbounded)")
        self.session_id = session_id
        self.monitor = monitor
        self.max_pending = max_pending
        self.horizon = horizon
        self.opened_at = time.monotonic()
        self.reset()

    def reset(self) -> None:
        self._state = self.monitor.initial
        self._verdict = self.monitor.verdicts[self._state]
        self._events = 0
        self._pending: deque = deque()
        self._tstate = self.monitor.tracker.initial
        # wait = events since the last good edge (w(ε) = 0).
        self._wait = 0
        self._max_wait = 0
        self._latched = False

    @property
    def verdict(self) -> Verdict3:
        return self._verdict

    @property
    def verdict4(self) -> Verdict4:
        """The four-valued verdict, resolved in severity order: a
        falsified safety conjunct dominates, then the liveness latch,
        then "nothing outstanding" (definitively satisfied, or wait 0)."""
        if self._verdict is Verdict3.FALSE:
            return Verdict4.FALSIFIED_SAFETY
        if self._latched:
            return Verdict4.LIVENESS_BOUND_EXCEEDED
        if self._verdict is Verdict3.TRUE or self._wait == 0:
            return Verdict4.SATISFIED_SO_FAR
        return Verdict4.INCONCLUSIVE

    @property
    def wait(self) -> int:
        """Events since the last good edge (frozen once latched)."""
        return self._wait

    @property
    def max_wait(self) -> int:
        """Longest wait observed (capped at ``horizon + 1`` on latch)."""
        return self._max_wait

    @property
    def latched(self) -> bool:
        """Whether the finitary-liveness bound has been exceeded."""
        return self._latched

    @property
    def position(self) -> int:
        """Events consumed (pending events are not yet counted)."""
        return self._events

    @property
    def finalized(self) -> bool:
        """Whether the verdict is definite (truncation point reached)."""
        return self._verdict is not Verdict3.UNKNOWN

    @property
    def monitorable(self) -> bool:
        """Whether a definite three-valued verdict is still reachable
        (true once one is reached; false forever for ``GF a``)."""
        return self.monitor.monitorable[self._state]

    @property
    def pending(self) -> int:
        return len(self._pending)

    def outcome(self) -> MonitorOutcome:
        """The session's current state as a one-shot
        :class:`~repro.rv.verdicts.MonitorOutcome` (what the service's
        ``Monitor`` verb replies with)."""
        return MonitorOutcome(
            verdict=self.verdict4, verdict3=self._verdict,
            events=self._events, max_wait=self._max_wait,
            horizon=self.horizon,
        )

    # -- synchronous path ---------------------------------------------------

    def observe(self, event) -> Verdict3:
        """Feed one event immediately; verdicts are final once definite."""
        monitor = self.monitor
        index = monitor.symbol_index.get(event)
        if index is None:
            raise ValueError(f"event {event!r} outside the alphabet")
        self._events += 1
        if self._verdict is not Verdict3.UNKNOWN:
            return self._verdict
        self._state = monitor.next_state[self._state][index]
        self._verdict = monitor.verdicts[self._state]
        tracker = monitor.tracker
        if not self._latched:
            # good flag is read on the edge *out of* the current tracker
            # state, before stepping it (see BoundTracker).
            if tracker.good[self._tstate][index]:
                self._wait = 0
            else:
                self._wait += 1
                if self._wait > self._max_wait:
                    self._max_wait = self._wait
                if self.horizon is not None and self._wait > self.horizon:
                    self._latched = True
            self._tstate = tracker.next_state[self._tstate][index]
        return self._verdict

    def run(self, events: Iterable) -> Verdict3:
        """Observe a whole finite trace from a fresh start."""
        self.reset()
        for e in events:
            self.observe(e)
        return self._verdict

    # -- queued path (engine batches) --------------------------------------

    def enqueue(self, event) -> None:
        """Admit one event to the pending queue, or push back."""
        if event not in self.monitor.symbol_index:
            raise ValueError(f"event {event!r} outside the alphabet")
        if len(self._pending) >= self.max_pending:
            raise BackpressureError(
                f"session {self.session_id!r}: pending queue full "
                f"({self.max_pending} events); drain before enqueueing more"
            )
        self._pending.append(event)

    def validate_batch(self, events: Iterable) -> None:
        """Check symbols and queue capacity without mutating anything —
        the engine's pre-admission pass, so a rejected batch leaves every
        session exactly as it was."""
        events = list(events)
        symbol_index = self.monitor.symbol_index
        for e in events:
            if e not in symbol_index:
                raise ValueError(f"event {e!r} outside the alphabet")
        if len(self._pending) + len(events) > self.max_pending:
            raise BackpressureError(
                f"session {self.session_id!r}: batch of {len(events)} would "
                f"overflow the pending queue ({len(self._pending)} queued, "
                f"capacity {self.max_pending})"
            )

    def enqueue_many(self, events: Iterable) -> None:
        """Admit a whole sequence atomically: all events queue or none."""
        events = list(events)
        self.validate_batch(events)
        self._pending.extend(events)

    def drain(self) -> int:
        """Process every pending event; returns table steps performed.

        Each event is a product-table step with the bound-tracker step
        fused into the same loop (one extra indexing plus the wait
        bookkeeping).  After truncation (definite three-valued verdict)
        the remaining events are counted and dropped without touching
        either table.
        """
        queue = self._pending
        if not queue:
            return 0
        monitor = self.monitor
        table, symbol_index = monitor.next_state, monitor.symbol_index
        state, verdict = self._state, self._verdict
        steps = 0
        if verdict is Verdict3.UNKNOWN:
            verdicts = monitor.verdicts
            tracker = monitor.tracker
            ttable, tgood = tracker.next_state, tracker.good
            tstate, wait, max_wait = self._tstate, self._wait, self._max_wait
            latched, horizon = self._latched, self.horizon
            while queue:
                i = symbol_index[queue.popleft()]
                state = table[state][i]
                self._events += 1
                steps += 1
                verdict = verdicts[state]
                if not latched:
                    if tgood[tstate][i]:
                        wait = 0
                    else:
                        wait += 1
                        if wait > max_wait:
                            max_wait = wait
                        if horizon is not None and wait > horizon:
                            latched = True
                    tstate = ttable[tstate][i]
                if verdict is not Verdict3.UNKNOWN:
                    break
            self._tstate, self._wait, self._max_wait = tstate, wait, max_wait
            self._latched = latched
        # truncated: the verdict is final, skip the tables entirely.
        self._events += len(queue)
        queue.clear()
        self._state, self._verdict = state, verdict
        return steps


class SessionManager:
    """The id → session directory, with monitor-grouping for dispatch."""

    def __init__(self, max_pending: int = 1024):
        self.max_pending = max_pending
        self._sessions: dict = {}

    def open(self, session_id, monitor: DecomposedMonitor,
             max_pending: int | None = None,
             horizon: int | None = None) -> TraceSession:
        if session_id in self._sessions:
            raise SessionError(f"session {session_id!r} already open")
        session = TraceSession(
            session_id, monitor,
            self.max_pending if max_pending is None else max_pending,
            horizon,
        )
        self._sessions[session_id] = session
        return session

    def get(self, session_id) -> TraceSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"unknown session {session_id!r}") from None

    def close(self, session_id) -> TraceSession:
        try:
            return self._sessions.pop(session_id)
        except KeyError:
            raise SessionError(f"unknown session {session_id!r}") from None

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[TraceSession]:
        return iter(self._sessions.values())

    def __contains__(self, session_id) -> bool:
        return session_id in self._sessions

    def verdicts(self) -> dict:
        return {sid: s.verdict for sid, s in self._sessions.items()}

    def verdicts4(self) -> dict:
        return {sid: s.verdict4 for sid, s in self._sessions.items()}

    def by_monitor(self, sessions: Iterable[TraceSession] | None = None
                   ) -> dict[int, list[TraceSession]]:
        """Group sessions by their (shared) compiled monitor — the unit
        of work the engine hands to one worker."""
        groups: dict[int, list[TraceSession]] = {}
        for session in self if sessions is None else sessions:
            groups.setdefault(id(session.monitor), []).append(session)
        return groups
