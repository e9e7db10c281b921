"""RV engine throughput — the serving-scale payoff of compiled monitors.

Times (a) monitor compilation, cold vs LRU-cached — the decompose →
closure → subset-table pipeline the cache amortizes across sessions —
(b) end-to-end engine throughput (events/second) at batch sizes 1, 64
and 1024 over 100 concurrent sessions, checked verdict-for-verdict
against the set-based ``RvMonitor`` reference oracle, and (c) the same stream
under a finitary horizon (PR 10): four-valued verdict tracking with
per-verdict latency percentiles recorded in ``extra_info`` (and hence
in ``BENCH_rv_throughput.json``).
"""

import random
from collections import Counter

import pytest

from repro.ltl import parse
from repro.rv import CompileCache, RvEngine
from tests.rv.reference import RvMonitor

from .conftest import emit

SPECS = ["G a", "F b", "G (a -> X b)", "GF a", "a & F !a"]


def _compile_all(cache: CompileCache) -> CompileCache:
    for spec in SPECS:
        cache.get(parse(spec), "ab")
    return cache


def test_compile_uncached(benchmark):
    cache = benchmark.pedantic(
        _compile_all, setup=lambda: ((CompileCache(),), {}), rounds=10, iterations=1
    )
    assert cache.info().misses == len(SPECS)


def test_compile_cached(benchmark):
    cache = _compile_all(CompileCache())  # warm
    benchmark(_compile_all, cache)
    info = cache.info()
    assert info.misses == len(SPECS) and info.hits >= len(SPECS)
    emit(
        "RV — compile cache",
        f"cold misses={info.misses}  warm hits={info.hits}  "
        f"resident tables={info.size}",
    )


def _workload(n_sessions: int, trace_len: int):
    rng = random.Random(7)
    traces = {i: [rng.choice("ab") for _ in range(trace_len)] for i in range(n_sessions)}
    stream = [(i, traces[i][j]) for j in range(trace_len) for i in range(n_sessions)]
    return traces, stream


def _run_batches(engine: RvEngine, stream, batch_size: int) -> None:
    for k in range(0, len(stream), batch_size):
        engine.ingest(stream[k : k + batch_size])


@pytest.mark.parametrize("batch_size", [1, 64, 1024])
def test_engine_throughput(benchmark, batch_size):
    n_sessions, trace_len = 100, 100
    traces, stream = _workload(n_sessions, trace_len)
    cache = _compile_all(CompileCache())

    def setup():
        engine = RvEngine(cache=cache)
        for i in range(n_sessions):
            engine.open_session(i, parse(SPECS[i % len(SPECS)]), "ab")
        return (engine,), {}

    def ingest_all(engine):
        _run_batches(engine, stream, batch_size)
        return engine

    engine = benchmark.pedantic(ingest_all, setup=setup, rounds=3, iterations=1)
    for i in range(n_sessions):
        expected = RvMonitor(parse(SPECS[i % len(SPECS)]), "ab").run(traces[i])
        assert engine.sessions.get(i).verdict is expected
    events = len(stream)
    seconds = benchmark.stats.stats.mean
    emit(
        f"RV — engine throughput, batch={batch_size}",
        f"{events:,} events over {n_sessions} sessions: "
        f"{events / seconds:,.0f} events/s "
        f"(mean batch-stream time {seconds * 1e3:.1f} ms)",
    )


def test_engine_throughput_finitary(benchmark):
    """The PR-10 stream: the batch-1024 workload with the liveness bound
    tracker live (horizon 6), so every drain also maintains waits and
    four-valued transitions.  Records per-verdict latency percentiles —
    session open → verdict transition — alongside the timing."""
    n_sessions, trace_len, horizon = 100, 100, 6
    traces, stream = _workload(n_sessions, trace_len)
    cache = _compile_all(CompileCache())

    def setup():
        engine = RvEngine(cache=cache, horizon=horizon)
        for i in range(n_sessions):
            engine.open_session(i, parse(SPECS[i % len(SPECS)]), "ab")
        return (engine,), {}

    def ingest_all(engine):
        _run_batches(engine, stream, 1024)
        return engine

    engine = benchmark.pedantic(ingest_all, setup=setup, rounds=3, iterations=1)
    tally = Counter(v.value for v in engine.verdicts4().values())
    assert len(tally) == 4, tally  # the whole lattice shows up
    snap = engine.stats.snapshot()
    events = len(stream)
    seconds = benchmark.stats.stats.mean
    benchmark.extra_info["horizon"] = horizon
    benchmark.extra_info["events_per_s"] = round(events / seconds)
    benchmark.extra_info["verdicts4"] = dict(tally)
    benchmark.extra_info["verdict_latency_us"] = snap["verdict_latency_us"]
    latency_cells = "  ".join(
        f"{verdict}: p50 {row['p50']:,.0f}µs p99 {row['p99']:,.0f}µs"
        for verdict, row in snap["verdict_latency_us"].items()
    )
    emit(
        "RV — finitary throughput, batch=1024, horizon=6",
        f"{events:,} events: {events / seconds:,.0f} events/s; "
        f"verdicts {dict(tally)}; latency {latency_cells}",
    )
