"""Tests pinning the rv.stats facade contract: the PR 1 snapshot keys
are byte-for-byte stable (with the PR 10 four-valued keys appended),
per-engine counts stay independent under the shared registry, and the
fused drain recorder is equivalent to the individual metric calls."""

from repro.ltl import parse
from repro.obs import metrics as obs_metrics
from repro.rv import CompileCache, RvEngine, Verdict3
from repro.rv.stats import Counter, EngineStats, Gauge, Histogram

SNAPSHOT_KEYS = [
    "events",
    "steps",
    "truncation_savings",
    "batches",
    "drains",
    "sessions_opened",
    "verdicts",
    "step_latency_p50_us",
    "step_latency_p99_us",
    # PR 10: transitions into each four-valued verdict, and
    # session-open → transition latency percentiles per verdict reached
    "verdicts4",
    "verdict_latency_us",
]


class TestFacade:
    def test_reexports_are_the_registry_classes(self):
        assert Counter is obs_metrics.Counter
        assert Gauge is obs_metrics.Gauge
        assert Histogram is obs_metrics.Histogram

    def test_snapshot_keys_are_the_pr1_contract(self):
        stats = EngineStats()
        assert list(stats.snapshot()) == SNAPSHOT_KEYS
        assert set(stats.snapshot()["verdicts"]) == {"true", "false", "unknown"}

    def test_snapshot_with_cache_appends_cache_block(self):
        stats = EngineStats()
        snapshot = stats.snapshot(CompileCache(maxsize=8))
        assert list(snapshot) == SNAPSHOT_KEYS + ["cache"]
        assert snapshot["cache"] == {
            "hits": 0, "misses": 0, "size": 0, "maxsize": 8,
        }

    def test_latency_window_accepted_and_ignored(self):
        stats = EngineStats(latency_window=16)
        for i in range(100):
            stats.step_latency.record(1e-6 * (i + 1))
        # an unbounded log-bucketed histogram, not a 16-sample reservoir
        assert stats.step_latency.count == 100

    def test_engines_do_not_share_counts(self):
        a, b = EngineStats(), EngineStats()
        a.events.add(5)
        assert a.events.value == 5
        assert b.events.value == 0
        assert a.engine != b.engine

    def test_metrics_visible_in_shared_registry(self):
        stats = EngineStats()
        stats.events.add(7)
        family = obs_metrics.REGISTRY.counter(
            "repro_rv_events_total",
            "events consumed by sessions (including post-truncation events)",
            ("engine",),
        )
        assert family.labels(engine=stats.engine).value == 7

    def test_record_drain_equivalent_to_individual_adds(self):
        stats = EngineStats()
        stats.record_drain(10, 8, 1e-3)
        stats.record_drain(0, 0, 0.0)
        assert stats.events.value == 10
        assert stats.steps.value == 8
        assert stats.drains.value == 2
        # zero-pending drains record no latency sample
        assert stats.step_latency.count == 1
        assert stats.step_latency.sum == 1e-4  # elapsed / pending

    def test_record_verdict(self):
        stats = EngineStats()
        stats.record_verdict(Verdict3.TRUE)
        stats.record_verdict(Verdict3.TRUE)
        stats.record_verdict(Verdict3.FALSE)
        assert stats.snapshot()["verdicts"] == {
            "true": 2, "false": 1, "unknown": 0,
        }


class TestEngineSnapshotEndToEnd:
    def test_counts_match_workload(self):
        engine = RvEngine()
        engine.open_session("s", parse("G a"), "ab")
        engine.ingest([("s", "a")] * 10)
        snapshot = engine.snapshot()
        assert snapshot["events"] == 10
        assert snapshot["batches"] == 1
        assert snapshot["drains"] == 1
        assert snapshot["sessions_opened"] == 1
        assert snapshot["steps"] + snapshot["truncation_savings"] == 10
        assert snapshot["cache"]["misses"] >= 1
        assert snapshot["step_latency_p99_us"] >= snapshot["step_latency_p50_us"]
