"""Span recorder for the traced run.

The recorder wraps the public entry points of each layer of ``repro``
from outside the program: it replaces a function wherever callers look
it up — the defining module, every ``repro`` module that bound it with
``from … import``, and the class that owns it — and records one span per
call.  Function-local imports (``from .kernel import live_mask`` inside
a method) read the patched module attribute at call time, so they are
covered too.  Per-element helpers (``iter_bits``, ``post``,
``stable_token``, ``digest``) are deliberately not wrapped: a span per
bit or per token would cost more than the work it measures.

Spans nest per thread.  A span's *self* time is its duration minus the
time covered by its direct children; a metric's *total* counts only the
outermost span of that metric on the stack, so a kernel function that
calls another kernel function is not counted twice.  Every span is
aggregated as it ends; the first ``keep`` spans are also kept in memory
and written out when the run ends (a traced ``rv-fleet`` run makes about
a million spans, too many to keep).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time

# Layer -> [(metric name, dotted owner, attribute)].  The owner is a
# module or a class; the metric name is "<layer>.<entry point>".
LAYERS = {
    "client": [
        ("client.call", "repro.service.client:Client", "decompose"),
        ("client.call", "repro.service.client:Client", "classify"),
    ],
    "wire": [
        ("wire.encode", "repro.service.wire", "encode_request"),
        ("wire.frame", "repro.service.wire", "pack_frame"),
        ("wire.decode", "repro.service.wire", "decode_result"),
    ],
    "router": [
        ("router.submit", "repro.service.sharded.router:ShardedService",
         "submit"),
        ("router.route_key", "repro.service.handlers", "routing_key"),
    ],
    "service": [
        ("service.submit", "repro.service.server:AnalysisService", "submit"),
        ("service.key", "repro.service.handlers", "cache_key"),
        ("service.lookup", "repro.service.cache:ResultCache",
         "get_or_compute"),
        ("service.compute", "repro.service.handlers", "compute"),
    ],
    "canonical": [
        ("canonical.key", "repro.buchi.automaton:BuchiAutomaton",
         "canonical_key"),
        ("canonical.key", "repro.ltl.syntax:Formula", "canonical_key"),
        ("canonical.key", "repro.canonical", "canonical_digraph_key"),
    ],
    "analysis": [
        ("analysis.decompose", "repro.analysis.decompose", "decompose"),
    ],
    "buchi": [
        ("buchi.closure", "repro.buchi.closure", "closure"),
        ("buchi.complement", "repro.buchi.complement", "complement_safety"),
        ("buchi.union", "repro.buchi.operations", "union"),
    ],
    "automata": [
        ("automata.kernel", "repro.automata.kernel", name)
        for name in (
            "reachable_mask", "adjacency", "scc_masks", "live_mask",
            "subset_dfa", "product_core", "union_core", "simulation_masks",
            "cycle_win_mask", "lasso_accepts", "lcl_member",
        )
    ],
    "rv": [
        ("rv.ingest", "repro.rv.engine:RvEngine", "ingest"),
        ("rv.drain", "repro.rv.session:TraceSession", "drain"),
        ("rv.admit", "repro.rv.session:TraceSession", "validate_batch"),
        ("rv.admit", "repro.rv.session:TraceSession", "enqueue_many"),
        ("rv.group", "repro.rv.session:SessionManager", "by_monitor"),
        ("rv.compile", "repro.rv.compile:CompileCache", "get"),
    ],
    "ops": [
        ("ops.journal", "repro.ops.journal:EventJournal", "emit"),
    ],
}


def _resolve(dotted: str):
    module_name, _, class_name = dotted.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class SpanRecorder:
    """Aggregates every span of every wrapped call made while
    :attr:`active` is true, and keeps the first ``keep`` spans as
    ``(id, metric, start, end, parent id, self seconds, outermost)``;
    see the module docstring."""

    def __init__(self, layers=LAYERS, keep: int = 20_000,
                 overhead_s: float | None = None):
        self.layers = layers
        self.keep = keep
        self.spans: list[tuple] = []
        self.frame_bytes: list[int] = []
        #: The harness turns recording on around each timed op only, so
        #: output checks and set-up work never land in a layer's time.
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._totals: list[dict] = []
        self._patches: list[tuple] = []
        self.overhead_s = self._calibrate() if overhead_s is None \
            else overhead_s

    # -- recording -----------------------------------------------------------

    def _thread_state(self):
        local = self._local
        local.stack = []
        local.depth = {}
        local.count = 0
        local.totals = {}
        self._totals.append(local.totals)
        return local

    def _wrap(self, metric: str, fn):
        recorder = self
        local = self._local
        spans = self.spans
        ids = self._ids
        perf = time.perf_counter
        frame_bytes = self.frame_bytes if metric == "wire.frame" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            state = local if hasattr(local, "stack") \
                else recorder._thread_state()
            stack, depth = state.stack, state.depth
            parent = stack[-1] if stack else None
            outer = not depth.get(metric)
            # [id, start, child seconds, direct children, spans before]
            frame = [next(ids), 0.0, 0.0, 0, state.count]
            state.count += 1
            stack.append(frame)
            depth[metric] = depth.get(metric, 0) + 1
            frame[1] = started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[metric] -= 1
                duration = end - started
                if parent is not None:
                    parent[2] += duration
                    parent[3] += 1
                overhead = recorder.overhead_s
                own = duration - frame[2] - frame[3] * overhead
                row = state.totals.get(metric)
                if row is None:
                    row = state.totals[metric] = [0, 0.0, 0.0]
                row[0] += 1
                row[2] += own
                if outer:
                    row[1] += duration - (state.count - frame[4] - 1) * overhead
                if len(spans) < recorder.keep:
                    spans.append((frame[0], metric, started, end,
                                  parent[0] if parent is not None else None,
                                  own, outer))
            if frame_bytes is not None and args and isinstance(args[0], dict) \
                    and args[0].get("op") == "request":
                frame_bytes.append(len(result))
            return result

        wrapper.__wrapped_by_recorder__ = True
        return wrapper

    @classmethod
    def _calibrate(cls, rounds: int = 7) -> float:
        """Wall time one wrapped method call adds outside its own
        recorded interval (median of ``rounds`` probes); taken out once
        per child from every parent span."""
        return statistics.median(cls._probe() for _ in range(rounds))

    @staticmethod
    def _probe(calls: int = 5_000) -> float:
        class Probe:
            def touch(self, value):
                return value

        probe = SpanRecorder(layers={}, keep=calls, overhead_s=0.0)
        target = Probe()
        perf = time.perf_counter
        started = perf()
        for i in range(calls):
            target.touch(i)
        bare = perf() - started
        Probe.touch = probe._wrap("calibrate", Probe.__dict__["touch"])
        probe.active = True
        started = perf()
        for i in range(calls):
            target.touch(i)
        traced = perf() - started
        probe.active = False
        inside = sum(end - begin for _, _, begin, end, *_ in probe.spans)
        return max(0.0, (traced - inside - bare) / calls)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of every layer (idempotent per call
        pair: :meth:`uninstall` restores the originals)."""
        for entries in self.layers.values():
            for metric, dotted, attr in entries:
                owner = _resolve(dotted)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if getattr(original, "__wrapped_by_recorder__", False):
                    continue
                wrapped = self._wrap(metric, original)
                self._patch(owner, attr, original, wrapped)
                if isinstance(owner, type):
                    continue
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if module is owner or not name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def summary(self) -> dict:
        """``{metric: {"calls", "total_s", "self_s"}}`` over all spans,
        with the calibrated wrapper cost taken out of every parent."""
        out: dict[str, dict] = {}
        for totals in self._totals:
            for metric, (calls, total, own) in totals.items():
                row = out.setdefault(metric, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += own
        return out

    def calls(self, metric: str) -> int:
        return self.summary().get(metric, {}).get("calls", 0)

    def dump(self) -> list[dict]:
        """The kept spans, as JSON-ready rows."""
        return [
            {"id": span_id, "name": metric, "start": start, "end": end,
             "parent": parent, "self_s": own, "outermost": outer}
            for span_id, metric, start, end, parent, own, outer in self.spans
        ]
