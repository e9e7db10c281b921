"""Engine observability — now a facade over the shared metric registry.

PR 1 shipped a one-off ``Counter``/``Histogram`` bundle here; those
classes now *are* the :mod:`repro.obs.metrics` implementations
(re-exported below for compatibility), and :class:`EngineStats` is a
thin facade that registers every engine measurement in the process-wide
:data:`~repro.obs.metrics.REGISTRY` under ``repro_rv_*`` names with an
``engine`` label, one label set per engine instance.  Consequences:

* ``snapshot()`` keys are unchanged from PR 1 — dashboards and the
  existing ``tests/rv`` suite work unmodified;
* the same numbers are visible through the registry's Prometheus and
  JSON exposition alongside every other subsystem's metrics;
* reads are now locked (``Counter.value`` and ``Histogram.count`` in the
  PR 1 version read shared state relying on CPython atomicity; the
  registry metrics take the lock on both sides);
* step latencies are log-bucketed (HDR-style) rather than a 4096-sample
  sliding reservoir, so percentiles cover the whole run within ~12%
  relative bucket width instead of exactly-but-only the recent window.
  ``latency_window`` is accepted for API compatibility and ignored.

The overhead budget is unchanged: one lock acquire and one add per
recorded value, all charged per *drain*, never per event.
"""

from __future__ import annotations

import itertools

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    REGISTRY,
    share_lock,
)

from .verdicts import Verdict3, Verdict4

__all__ = ["Counter", "Gauge", "Histogram", "EngineStats"]

#: Distinguishes each engine's label set in the shared registry.
_ENGINE_IDS = itertools.count()


class EngineStats:
    """Everything the engine measures, in one bundle.

    * ``events`` — events consumed by sessions (including post-truncation
      events, which are counted but not stepped — matching
      :attr:`~repro.rv.session.TraceSession.position`);
    * ``steps`` — actual table transitions (``events - steps`` is the work
      bad-prefix truncation saved);
    * ``batches`` — ``ingest`` calls; ``drains`` — per-session drains;
    * ``verdicts`` — sessions *reaching* each definite verdict kind;
    * ``step_latency`` — per-event seconds, sampled once per drain
      (drain wall-time / events drained).

    Cache hit/miss counters live on the :class:`~repro.rv.compile
    .CompileCache`; :meth:`snapshot` merges them when given the cache.

    Parameters
    ----------
    latency_window:
        Ignored (PR 1 reservoir compatibility; histograms are now
        log-bucketed and unbounded-window).
    registry:
        The :class:`~repro.obs.metrics.MetricRegistry` to report into;
        defaults to the process-wide one.
    engine:
        The ``engine`` label value; defaults to a fresh sequential id,
        which is what keeps per-instance counts independent.
    """

    def __init__(self, latency_window: int = 4096,
                 registry: MetricRegistry | None = None,
                 engine: str | None = None):
        registry = REGISTRY if registry is None else registry
        self.registry = registry
        self.engine = str(next(_ENGINE_IDS)) if engine is None else str(engine)
        label = {"engine": self.engine}
        self.events = registry.counter(
            "repro_rv_events_total",
            "events consumed by sessions (including post-truncation events)",
            ("engine",),
        ).labels(**label)
        self.steps = registry.counter(
            "repro_rv_steps_total",
            "monitor-table transitions performed",
            ("engine",),
        ).labels(**label)
        self.batches = registry.counter(
            "repro_rv_batches_total", "ingest() calls", ("engine",)
        ).labels(**label)
        self.drains = registry.counter(
            "repro_rv_drains_total", "per-session drains", ("engine",)
        ).labels(**label)
        self.sessions_opened = registry.counter(
            "repro_rv_sessions_opened_total", "sessions opened", ("engine",)
        ).labels(**label)
        verdict_family = registry.counter(
            "repro_rv_verdicts_total",
            "sessions reaching each verdict kind",
            ("engine", "verdict"),
        )
        self.verdicts = {
            kind: verdict_family.labels(engine=self.engine, verdict=kind.value)
            for kind in (Verdict3.TRUE, Verdict3.FALSE, Verdict3.UNKNOWN)
        }
        self.step_latency = registry.histogram(
            "repro_rv_step_latency_seconds",
            "per-event drain latency (drain wall-time / events drained)",
            ("engine",),
        ).labels(**label)
        # Four-valued verdict plane (PR 10): transitions are counted per
        # (from, to) edge and latency is session-open → transition, per
        # destination verdict.  Children are resolved lazily because most
        # engines only ever see a few of the 12 possible edges.
        self._transition_family = registry.counter(
            "repro_rv_verdict_transitions_total",
            "four-valued verdict transitions across sessions (from → to)",
            ("engine", "from", "to"),
        )
        self._verdict_latency_family = registry.histogram(
            "repro_rv_verdict_latency_seconds",
            "session-open → verdict-transition latency, per new verdict",
            ("engine", "verdict"),
        )
        self._transition_counters: dict = {}
        self._verdict_latencies: dict = {}
        # The drain loop updates these three together on every drain;
        # fuse them under one lock so the hot path pays one acquire.
        self._drain_lock = share_lock(self.events, self.steps, self.drains)

    def record_drain(self, pending: int, steps: int, elapsed: float) -> None:
        """One session drain: ``pending`` events consumed, ``steps``
        transitions taken, in ``elapsed`` seconds.  Single fused lock
        acquire for the counters (see :func:`~repro.obs.metrics
        .share_lock`) plus one histogram record."""
        with self._drain_lock:
            self.events._value += pending
            self.steps._value += steps
            self.drains._value += 1
        if pending:
            self.step_latency.record(elapsed / pending)

    def record_verdict(self, verdict: Verdict3) -> None:
        self.verdicts[verdict].add()

    def record_transition(self, old: Verdict4, new: Verdict4,
                          latency: float) -> None:
        """One session's four-valued verdict changed from ``old`` to
        ``new``, ``latency`` seconds after the session opened.  Child
        resolution races are benign: ``labels()`` is get-or-create, so a
        duplicate lookup returns the same child."""
        counter = self._transition_counters.get((old, new))
        if counter is None:
            counter = self._transition_counters.setdefault(
                (old, new),
                self._transition_family.labels(
                    **{"engine": self.engine, "from": old.value, "to": new.value}
                ),
            )
        counter.add()
        histogram = self._verdict_latencies.get(new)
        if histogram is None:
            histogram = self._verdict_latencies.setdefault(
                new,
                self._verdict_latency_family.labels(
                    engine=self.engine, verdict=new.value
                ),
            )
        histogram.record(latency)

    def _verdicts4(self) -> dict:
        """Transitions *into* each four-valued verdict, summed over the
        originating verdicts (the dashboard-friendly aggregation; the
        per-edge counts stay in the registry exposition)."""
        out = {kind.value: 0 for kind in Verdict4}
        for (_, new), counter in list(self._transition_counters.items()):
            out[new.value] += counter.value
        return out

    def snapshot(self, cache=None) -> dict:
        """A plain-dict dashboard (stable keys; used by the example and
        the benchmark report — the PR 1 keys unchanged, with the
        four-valued ``verdicts4`` / ``verdict_latency_us`` beside them
        since PR 10)."""
        out = {
            "events": self.events.value,
            "steps": self.steps.value,
            "truncation_savings": self.events.value - self.steps.value,
            "batches": self.batches.value,
            "drains": self.drains.value,
            "sessions_opened": self.sessions_opened.value,
            "verdicts": {k.value: c.value for k, c in self.verdicts.items()},
            "step_latency_p50_us": self.step_latency.p50() * 1e6,
            "step_latency_p99_us": self.step_latency.p99() * 1e6,
            "verdicts4": self._verdicts4(),
            # session-open → transition latency, per destination verdict
            # (only verdicts actually reached appear)
            "verdict_latency_us": {
                verdict.value: {
                    "p50": histogram.p50() * 1e6,
                    "p99": histogram.p99() * 1e6,
                }
                for verdict, histogram in sorted(
                    self._verdict_latencies.items(), key=lambda kv: kv[0].value
                )
            },
        }
        if cache is not None:
            info = cache.info()
            out["cache"] = {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.size,
                "maxsize": info.maxsize,
            }
        return out
