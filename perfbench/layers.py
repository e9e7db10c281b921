"""Per-layer metrics of the traced run.

Every workload reports every metric; a layer its workload bypasses
reads 0.  Times are means per op (per batch on ``rv-fleet``) over the
traced slices, from the span totals in ``spans.py``; the client/shard
split and the transport remainder use the untraced slices, so the
wrappers' own cost does not inflate them.
"""

from __future__ import annotations

import statistics

from repro.obs.metrics import REGISTRY
from repro.service import AnalysisService

#: name -> (unit, better)
PER_LAYER = {
    "service.key_us": ("us", "lower"),
    "canonical.key_us": ("us", "lower"),
    "service.lookup_us": ("us", "lower"),
    "client.overhead_us": ("us", "lower"),
    "client.latency_p99_ms": ("ms", "lower"),
    "service.hit_ratio": ("ratio", "higher"),
    "shard.hit_ratio": ("ratio", "higher"),
    "router.route_key_us": ("us", "lower"),
    "wire.encode_us": ("us", "lower"),
    "wire.decode_us": ("us", "lower"),
    "wire.frame_us": ("us", "lower"),
    "wire.request_bytes": ("bytes", "lower"),
    "shard.service_us": ("us", "lower"),
    "router.transport_us": ("us", "lower"),
    "router.shard_skew": ("ratio", "lower"),
    "router.redeliveries": ("count", "lower"),
    "analysis.decompose_ms": ("ms", "lower"),
    "buchi.closure_ms": ("ms", "lower"),
    "buchi.complement_ms": ("ms", "lower"),
    "buchi.union_ms": ("ms", "lower"),
    "automata.kernel_ms": ("ms", "lower"),
    "buchi.bridge_ms": ("ms", "lower"),
    "buchi.safety_states": ("count", "lower"),
    "buchi.liveness_states": ("count", "lower"),
    "rv.drain_ms": ("ms", "lower"),
    "rv.admit_ms": ("ms", "lower"),
    "rv.group_ms": ("ms", "lower"),
    "rv.bookkeeping_ms": ("ms", "lower"),
    "rv.sessions_per_batch": ("count", "lower"),
    "rv.steps_per_event": ("ratio", "lower"),
    "rv.transitions_per_batch": ("count", "lower"),
    "ops.journal_events_per_batch": ("count", "lower"),
    "rv.session_bytes": ("bytes", "lower"),
    "rv.compile_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def counters(workload) -> dict:
    """Cumulative counters read before and after the measured slices."""
    out = {"redeliveries": REGISTRY.counter(
        "repro_service_sharded_redelivered_total").value}
    client = getattr(workload, "client", None)
    if client is not None:
        service = client.transport.service
        if isinstance(service, AnalysisService):
            info = service.cache.info()
            out["hits"] = (info.hits, info.misses)
        else:
            out["shards"] = {
                index: (shard["cache_hits"], shard["cache_misses"])
                for index, shard in client.snapshot()["shards"].items()
            }
    if hasattr(workload, "counters"):
        out.update(workload.counters())
    return out


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload, summary, recorder, untraced, traced, before, after,
              setup_summary) -> dict:
    ops = traced.ops

    def per_op(metric: str, scale: float, field: str = "total_s") -> float:
        return summary.get(metric, {}).get(field, 0.0) / ops * scale

    values = dict.fromkeys(PER_LAYER, 0.0)
    values["service.key_us"] = per_op("service.key", 1e6)
    values["canonical.key_us"] = per_op("canonical.key", 1e6)
    values["service.lookup_us"] = per_op("service.lookup", 1e6, "self_s")
    values["router.route_key_us"] = per_op("router.route_key", 1e6)
    values["wire.encode_us"] = per_op("wire.encode", 1e6)
    values["wire.decode_us"] = per_op("wire.decode", 1e6)
    values["wire.frame_us"] = per_op("wire.frame", 1e6)
    if recorder.frame_bytes:
        values["wire.request_bytes"] = statistics.fmean(recorder.frame_bytes)
    values["router.redeliveries"] = after["redeliveries"] - before["redeliveries"]

    values["client.latency_p99_ms"] = untraced.percentile_ms(0.99)
    if untraced.service_seconds:
        latency = statistics.fmean(untraced.latencies)
        service = statistics.fmean(untraced.service_seconds)
        values["client.overhead_us"] = (latency - service) * 1e6
    if "hits" in after:
        values["service.hit_ratio"] = _ratio(
            after["hits"][0] - before["hits"][0],
            after["hits"][1] - before["hits"][1],
        )
    if "shards" in after:
        requests, hits, misses = [], 0, 0
        for index, (shard_hits, shard_misses) in after["shards"].items():
            old_hits, old_misses = before["shards"].get(index, (0, 0))
            hits += shard_hits - old_hits
            misses += shard_misses - old_misses
            requests.append(shard_hits - old_hits + shard_misses - old_misses)
        values["shard.hit_ratio"] = _ratio(hits, misses)
        values["router.shard_skew"] = max(requests) / statistics.fmean(requests)
        service_us = statistics.fmean(untraced.service_seconds) * 1e6
        values["shard.service_us"] = service_us
        values["router.transport_us"] = (
            statistics.fmean(untraced.latencies) * 1e6 - service_us
            - values["wire.encode_us"] - values["router.route_key_us"]
            - values["wire.frame_us"] - values["wire.decode_us"]
        )

    values["analysis.decompose_ms"] = per_op("analysis.decompose", 1e3)
    values["buchi.closure_ms"] = per_op("buchi.closure", 1e3)
    values["buchi.complement_ms"] = per_op("buchi.complement", 1e3)
    values["buchi.union_ms"] = per_op("buchi.union", 1e3)
    values["automata.kernel_ms"] = per_op("automata.kernel", 1e3)
    if values["analysis.decompose_ms"]:
        values["buchi.bridge_ms"] = (values["analysis.decompose_ms"]
                                     - values["automata.kernel_ms"])
    first_round = getattr(workload, "first_round", {})
    values["buchi.safety_states"] = sum(s for s, _ in first_round.values())
    values["buchi.liveness_states"] = sum(l for _, l in first_round.values())

    if "events" in after:
        batches = untraced.ops + traced.ops
        values["rv.drain_ms"] = per_op("rv.drain", 1e3)
        values["rv.admit_ms"] = per_op("rv.admit", 1e3)
        values["rv.group_ms"] = per_op("rv.group", 1e3)
        values["rv.bookkeeping_ms"] = per_op("rv.ingest", 1e3, "self_s")
        values["rv.sessions_per_batch"] = statistics.fmean(workload.touched)
        values["rv.steps_per_event"] = (
            (after["steps"] - before["steps"])
            / (after["events"] - before["events"])
        )
        values["rv.transitions_per_batch"] = (
            (after["transitions"] - before["transitions"]) / batches
        )
        values["ops.journal_events_per_batch"] = (
            (after["journal"] - before["journal"]) / batches
        )
        values["rv.session_bytes"] = workload.session_bytes()
        values["rv.compile_ms"] = (
            setup_summary.get("rv.compile", {}).get("total_s", 0.0) * 1e3
        )

    values["trace.overhead_pct"] = (
        untraced.ops_per_s() / traced.ops_per_s() - 1.0
    ) * 100.0
    return {name: {"value": float(value), "unit": PER_LAYER[name][0]}
            for name, value in values.items()}
