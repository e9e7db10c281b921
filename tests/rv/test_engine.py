"""Tests for the streaming engine: batch-vs-sequential equivalence
(property-based), worker-pool determinism, backpressure, stats, and the
acceptance workload (100k events, ≥100 sessions, one compile per
distinct formula)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltl import parse
from repro.rv import (
    BackpressureError,
    CompileCache,
    RvEngine,
    SessionError,
    Verdict3,
)

from .reference import RvMonitor

SPECS = ["G a", "F b", "G (a -> X b)", "GF a", "a & F !a"]
FORMULAS = [parse(s) for s in SPECS]

# shared across tests/examples so formula translation happens once
_CACHE = CompileCache()
_REFERENCE = {s: RvMonitor(parse(s), "ab") for s in SPECS}


def reference_verdict(spec: str, trace) -> Verdict3:
    return _REFERENCE[spec].run(trace)


class TestEngineBasics:
    def test_open_ingest_verdicts(self):
        engine = RvEngine(cache=_CACHE)
        engine.open_session("s1", parse("G a"), "ab")
        engine.open_session("s2", parse("F b"), "ab")
        result = engine.ingest([("s1", "a"), ("s2", "a"), ("s1", "b"), ("s2", "b")])
        assert result == {"s1": Verdict3.FALSE, "s2": Verdict3.TRUE}
        assert engine.verdicts() == result

    def test_unknown_session_rejected(self):
        engine = RvEngine(cache=_CACHE)
        with pytest.raises(SessionError, match="unknown session"):
            engine.ingest([("ghost", "a")])

    def test_close_session_returns_verdict(self):
        engine = RvEngine(cache=_CACHE)
        engine.open_session("s", parse("G a"), "ab")
        engine.ingest([("s", "b")])
        assert engine.close_session("s") is Verdict3.FALSE
        assert "s" not in engine.sessions

    def test_empty_batch(self):
        engine = RvEngine(cache=_CACHE)
        assert engine.ingest([]) == {}

    def test_backpressure_propagates(self):
        engine = RvEngine(cache=_CACHE, max_pending=2)
        engine.open_session("s", parse("GF a"), "ab")
        with pytest.raises(BackpressureError):
            engine.ingest([("s", "a")] * 3)

    def test_rejected_batch_is_atomic(self):
        """A batch that fails admission (foreign symbol or overflow)
        leaves every session untouched — nothing queued, nothing
        stepped — including a session that already holds queued events
        and sits earlier in the rejected batch."""
        engine = RvEngine(cache=_CACHE, max_pending=4)
        engine.open_session("s", parse("GF a"), "ab")
        engine.open_session("t", parse("GF a"), "ab")
        engine.open_session("q", parse("G (a -> X b)"), "ab")
        queued = engine.sessions.get("q")
        queued.enqueue("a")
        queued.enqueue("b")
        with pytest.raises(ValueError, match="outside the alphabet"):
            engine.ingest([("q", "a"), ("s", "a"), ("t", "a"), ("s", "z")])
        with pytest.raises(BackpressureError):
            engine.ingest([("q", "a")] + [("t", "a")] * 5)
        for sid in ("s", "t"):
            session = engine.sessions.get(sid)
            assert session.pending == 0 and session.position == 0
        assert queued.pending == 2 and queued.position == 0
        # a subsequent clean batch applies only its own events, after
        # the queued ones: "aba" is undecided, "aab" would be FALSE
        engine.ingest([("s", "a"), ("t", "b"), ("q", "a")])
        assert engine.sessions.get("s").position == 1
        assert engine.sessions.get("t").position == 1
        assert queued.pending == 0 and queued.position == 3
        assert queued.verdict is reference_verdict("G (a -> X b)", "aba")
        assert queued.verdict is Verdict3.UNKNOWN

    def test_stats_accounting(self):
        engine = RvEngine(cache=CompileCache())
        engine.open_session("s", parse("G a"), "ab")
        engine.ingest([("s", "a"), ("s", "b"), ("s", "a")])  # FALSE after 2
        snap = engine.snapshot()
        assert snap["events"] == 3
        assert snap["steps"] == 2            # third event skipped by truncation
        assert snap["truncation_savings"] == 1
        assert snap["batches"] == 1
        assert snap["verdicts"]["false"] == 1
        assert snap["cache"] == {"hits": 0, "misses": 1, "size": 1, "maxsize": 256}


    def test_stats_charged_once_per_monitor_group(self):
        """One ingest touching three sessions over two monitors counts
        three drains but records one latency sample per group."""
        engine = RvEngine(cache=CompileCache())
        engine.open_session("a1", parse("GF a"), "ab")
        engine.open_session("a2", parse("GF a"), "ab")
        engine.open_session("b1", parse("F b"), "ab")
        engine.ingest([("a1", "a"), ("b1", "a"), ("a2", "b"), ("a1", "b")])
        snap = engine.snapshot()
        assert snap["events"] == 4 and snap["steps"] == 4
        assert snap["drains"] == 3
        assert engine.stats.step_latency.count == 2


@st.composite
def workloads(draw):
    """An interleaved event stream over a few sessions plus batch cuts."""
    n_sessions = draw(st.integers(min_value=1, max_value=4))
    assignments = [draw(st.sampled_from(SPECS)) for _ in range(n_sessions)]
    stream = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_sessions - 1),
                st.sampled_from("ab"),
            ),
            max_size=60,
        )
    )
    batch_size = draw(st.integers(min_value=1, max_value=16))
    return assignments, stream, batch_size


class TestBatchSequentialEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(workloads())
    def test_any_interleaving_matches_one_at_a_time_reference(self, workload):
        """Core property: any interleaving of session events, cut into
        any batches, yields exactly the verdicts of feeding each
        session's own trace to the reference ``RvMonitor``."""
        assignments, stream, batch_size = workload
        engine = RvEngine(cache=_CACHE)
        for i, spec in enumerate(assignments):
            engine.open_session(i, parse(spec), "ab")
        for k in range(0, len(stream), batch_size):
            engine.ingest(stream[k : k + batch_size])
        for i, spec in enumerate(assignments):
            trace = [e for sid, e in stream if sid == i]
            assert engine.sessions.get(i).verdict is reference_verdict(spec, trace)
            assert engine.sessions.get(i).position == len(trace)

    @settings(max_examples=25, deadline=None)
    @given(workloads())
    def test_worker_pool_is_deterministic(self, workload):
        """The thread pool changes scheduling, never results: parallel
        and sequential dispatch agree verdict-for-verdict and step-for-
        step."""
        assignments, stream, batch_size = workload
        outcomes = []
        for workers in (0, 4):
            with RvEngine(cache=_CACHE, workers=workers) as engine:
                for i, spec in enumerate(assignments):
                    engine.open_session(i, parse(spec), "ab")
                for k in range(0, len(stream), batch_size):
                    engine.ingest(stream[k : k + batch_size])
                outcomes.append(
                    (engine.verdicts(), engine.stats.events.value,
                     engine.stats.steps.value)
                )
        assert outcomes[0] == outcomes[1]


@st.composite
def finitary_workloads(draw):
    """Sessions with their own horizons, plus a script of ``ingest``
    batches (random interleavings and cuts) and direct ``enqueue``
    pushes between them."""
    n_sessions = draw(st.integers(min_value=1, max_value=4))
    sessions = [
        (draw(st.sampled_from(SPECS)),
         draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6))))
        for _ in range(n_sessions)
    ]
    event = st.tuples(st.integers(min_value=0, max_value=n_sessions - 1),
                      st.sampled_from("ab"))
    script = draw(st.lists(
        st.tuples(st.sampled_from(("ingest", "enqueue")),
                  st.lists(event, max_size=12)),
        max_size=10,
    ))
    workers = draw(st.sampled_from((0, 4)))
    return sessions, script, workers


def _replay(monitor, trace, horizon) -> tuple[int, int]:
    """``(steps, wait)`` a session ends with after ``trace``: table steps
    run up to and including the event that makes the three-valued
    verdict definite, and the wait (``w(ε) = 0``; reset on a good edge,
    else ``w + 1``) stops moving there or once it exceeds ``horizon``."""
    tracker = monitor.tracker
    state, tstate = monitor.initial, tracker.initial
    steps = wait = 0
    for event in trace:
        if monitor.verdicts[state] is not Verdict3.UNKNOWN:
            break
        i = monitor.symbol_index[event]
        steps += 1
        state = monitor.next_state[state][i]
        if horizon is None or wait <= horizon:
            wait = 0 if tracker.good[tstate][i] else wait + 1
            tstate = tracker.next_state[tstate][i]
    return steps, wait


class TestFinitaryEngineMatchesOneShot:
    @settings(max_examples=60, deadline=None)
    @given(finitary_workloads())
    def test_four_valued_state_matches_run_finitary(self, workload):
        """Any interleaving, batching and mix of ``enqueue`` and
        ``ingest`` leaves every session in exactly the state the one-shot
        ``run_finitary`` computes from the events it has drained, and the
        engine counters are the per-session sums."""
        sessions, script, workers = workload
        drained = {i: [] for i in range(len(sessions))}
        queued = {i: [] for i in range(len(sessions))}
        drains = 0
        with RvEngine(cache=_CACHE, workers=workers) as engine:
            for i, (spec, horizon) in enumerate(sessions):
                engine.open_session(i, parse(spec), "ab", horizon=horizon)
            for kind, events in script:
                if kind == "enqueue":
                    for sid, event in events:
                        engine.sessions.get(sid).enqueue(event)
                        queued[sid].append(event)
                    continue
                engine.ingest(events)
                for sid in dict.fromkeys(sid for sid, _ in events):
                    drained[sid] += queued[sid]
                    queued[sid] = []
                    drained[sid] += [e for s, e in events if s == sid]
                    drains += 1
            steps = 0
            for i, (spec, horizon) in enumerate(sessions):
                monitor = _CACHE.get(parse(spec), "ab")
                oneshot = monitor.run_finitary(drained[i], horizon=horizon)
                session = engine.sessions.get(i)
                assert session.verdict4 is oneshot.verdict
                assert session.verdict is oneshot.verdict3
                assert session.position == oneshot.events == len(drained[i])
                assert session.max_wait == oneshot.max_wait
                assert session.pending == len(queued[i])
                stepped, wait = _replay(monitor, drained[i], horizon)
                assert session.wait == wait
                steps += stepped
            snap = engine.snapshot()
            assert snap["events"] == sum(map(len, drained.values()))
            assert snap["steps"] == steps
            assert snap["drains"] == drains


class TestAcceptanceWorkload:
    def test_100k_events_100_sessions_single_compile_per_formula(self):
        """The ISSUE's acceptance bar: a 100k-event synthetic workload
        across ≥100 concurrent sessions; compilation runs once per
        distinct formula (cache counters prove reuse); batch verdicts
        are bit-identical to the sequential reference."""
        n_sessions, trace_len = 120, 840            # 100,800 events
        rng = random.Random(2003)
        cache = CompileCache()
        engine = RvEngine(cache=cache, workers=4)
        traces = {}
        for i in range(n_sessions):
            spec = SPECS[i % len(SPECS)]
            engine.open_session(i, parse(spec), "ab")
            traces[i] = [rng.choice("ab") for _ in range(trace_len)]
        # round-robin interleaving, fed in 4096-event batches
        stream = [
            (i, traces[i][j]) for j in range(trace_len) for i in range(n_sessions)
        ]
        for k in range(0, len(stream), 4096):
            engine.ingest(stream[k : k + 4096])

        assert engine.stats.events.value == n_sessions * trace_len >= 100_000
        info = cache.info()
        assert info.misses == len(SPECS)            # one compile per formula
        assert info.hits == n_sessions - len(SPECS)  # every other open reused
        for i in range(n_sessions):
            expected = reference_verdict(SPECS[i % len(SPECS)], traces[i])
            assert engine.sessions.get(i).verdict is expected
        engine.shutdown()

    def test_acceptance_workload_exhibits_all_four_verdicts(self):
        """The PR-10 acceptance bar on top: under a finitary horizon the
        same style of workload must exhibit every verdict of the
        four-valued lattice, and the engine's batched verdicts must
        match the one-shot ``run_finitary`` reference per session."""
        from repro.rv.compile import compile_formula
        from repro.rv.verdicts import Verdict4

        n_sessions, trace_len, horizon = 120, 840, 6
        rng = random.Random(2003)
        cache = CompileCache()
        engine = RvEngine(cache=cache, workers=4, horizon=horizon)
        traces = {}
        for i in range(n_sessions):
            engine.open_session(i, parse(SPECS[i % len(SPECS)]), "ab")
            traces[i] = [rng.choice("ab") for _ in range(trace_len)]
        stream = [
            (i, traces[i][j]) for j in range(trace_len) for i in range(n_sessions)
        ]
        for k in range(0, len(stream), 4096):
            engine.ingest(stream[k : k + 4096])

        final = engine.verdicts4()
        assert set(final.values()) == set(Verdict4)
        monitors = {s: compile_formula(parse(s), "ab") for s in SPECS}
        for i in range(n_sessions):
            oneshot = monitors[SPECS[i % len(SPECS)]].run_finitary(
                traces[i], horizon=horizon
            )
            assert final[i] is oneshot.verdict
            assert engine.sessions.get(i).max_wait == oneshot.max_wait
        engine.shutdown()
