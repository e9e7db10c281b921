"""The four-valued verdict lattice and its semantic ground truth.

Three properties tie the streaming verdicts back to the paper:

* ``FALSIFIED_SAFETY`` exactly when the prefix is a *bad prefix* — no
  extension satisfies the policy (the offline decision, computed from
  the good-prefix DFA of ``A_φ``);
* waits are bounded: ``max_wait ≤ horizon + 1``, and the latch fires
  iff some wait exceeded the horizon (finitary liveness as a safety
  property of the prefix);
* the decomposed pipeline is three-valued-equivalent to the set-based
  reference monitor on every prefix, verdict and monitorability alike
  (decomposition changes what the monitor can *say*, never what it
  decides).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buchi.safety import is_bad_prefix
from repro.ltl import F, G, Next, Not, Release, Until, sym
from repro.ltl.translate import translate
from repro.rv.compile import compile_formula
from repro.rv.session import TraceSession
from repro.rv.verdicts import (
    SEVERITY,
    MonitorOutcome,
    Verdict3,
    Verdict4,
    most_severe,
)

from .reference import RvMonitor

A, B = sym("a"), sym("b")
ALPHABET = ("a", "b")


@st.composite
def formulas(draw, max_depth=3):
    """A small LTL formula over {a, b}."""
    if max_depth == 0:
        return draw(st.sampled_from((A, B, Not(A), Not(B))))
    sub = formulas(max_depth=max_depth - 1)
    return draw(st.one_of(
        st.sampled_from((A, B, Not(A), Not(B))),
        st.builds(G, sub),
        st.builds(F, sub),
        st.builds(Next, sub),
        st.builds(lambda x, y: x & y, sub, sub),
        st.builds(lambda x, y: x | y, sub, sub),
        st.builds(Until, sub, sub),
        st.builds(Release, sub, sub),
    ))


prefixes = st.lists(st.sampled_from(ALPHABET), max_size=12)


class TestVerdictLattice:
    def test_severity_order(self):
        # higher = worse: falsification outranks a blown bound outranks
        # the two still-open verdicts
        assert (SEVERITY[Verdict4.INCONCLUSIVE]
                < SEVERITY[Verdict4.SATISFIED_SO_FAR]
                < SEVERITY[Verdict4.LIVENESS_BOUND_EXCEEDED]
                < SEVERITY[Verdict4.FALSIFIED_SAFETY])

    def test_most_severe(self):
        assert most_severe(
            Verdict4.INCONCLUSIVE, Verdict4.SATISFIED_SO_FAR
        ) is Verdict4.SATISFIED_SO_FAR
        assert most_severe(
            Verdict4.LIVENESS_BOUND_EXCEEDED, Verdict4.FALSIFIED_SAFETY
        ) is Verdict4.FALSIFIED_SAFETY

    def test_finality(self):
        assert Verdict4.FALSIFIED_SAFETY.is_final
        assert Verdict4.LIVENESS_BOUND_EXCEEDED.is_final
        assert not Verdict4.SATISFIED_SO_FAR.is_final
        assert not Verdict4.INCONCLUSIVE.is_final

    def test_to_verdict3(self):
        assert Verdict4.FALSIFIED_SAFETY.to_verdict3() is Verdict3.FALSE
        assert Verdict4.LIVENESS_BOUND_EXCEEDED.to_verdict3() is Verdict3.UNKNOWN
        assert Verdict4.SATISFIED_SO_FAR.to_verdict3() is Verdict3.UNKNOWN
        assert Verdict4.INCONCLUSIVE.to_verdict3() is Verdict3.UNKNOWN


class TestFalsificationIsBadPrefix:
    @given(formulas(), prefixes)
    @settings(max_examples=120, deadline=None)
    def test_falsified_iff_no_extension_satisfies(self, formula, prefix):
        monitor = compile_formula(formula, ALPHABET)
        outcome = monitor.run_finitary(prefix)
        offline = is_bad_prefix(translate(formula, ALPHABET), prefix)
        assert (outcome.verdict is Verdict4.FALSIFIED_SAFETY) == offline

    @given(formulas(), prefixes)
    @settings(max_examples=60, deadline=None)
    def test_falsification_is_absorbing(self, formula, prefix):
        monitor = compile_formula(formula, ALPHABET)
        if monitor.run_finitary(prefix).verdict is not Verdict4.FALSIFIED_SAFETY:
            return
        for extension in ("a", "b", "ab", "ba"):
            extended = monitor.run_finitary(tuple(prefix) + tuple(extension))
            assert extended.verdict is Verdict4.FALSIFIED_SAFETY


class TestBoundedWaits:
    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=120, deadline=None)
    def test_wait_caps_at_horizon_plus_one(self, formula, prefix, horizon):
        outcome = compile_formula(formula, ALPHABET).run_finitary(
            prefix, horizon=horizon
        )
        assert outcome.max_wait <= horizon + 1
        if outcome.falsified:
            # falsification outranks the latch in the resolution order
            assert not outcome.bound_exceeded
        else:
            assert outcome.bound_exceeded == (outcome.max_wait > horizon)

    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_latch_matches_offline_wait_recomputation(
        self, formula, prefix, horizon
    ):
        monitor = compile_formula(formula, ALPHABET)
        outcome = monitor.run_finitary(prefix, horizon=horizon)
        # replay the tracker by hand, stopping where the pipeline stops
        # (a definite three-valued verdict truncates the session; the
        # tracker still steps on the event that made it definite)
        tracker = monitor.tracker
        pstate, tstate, wait, exceeded = (
            monitor.initial, tracker.initial, 0, False,
        )
        for event in prefix:
            if monitor.verdicts[pstate] is not Verdict3.UNKNOWN or exceeded:
                break
            pstate = monitor.step(pstate, event)
            wait = 0 if tracker.good_edge(tstate, event) else wait + 1
            tstate = tracker.step(tstate, event)
            if wait > horizon:
                exceeded = True
        if not outcome.falsified:
            # (falsification outranks the latch in the resolution order,
            # so a falsified outcome says nothing about the replay)
            assert outcome.bound_exceeded == exceeded

    def test_gf_a_latches_exactly_past_the_horizon(self):
        monitor = compile_formula(G(F(A)), ALPHABET)
        at_bound = monitor.run_finitary("bb", horizon=2)
        assert at_bound.verdict is Verdict4.INCONCLUSIVE
        assert at_bound.max_wait == 2
        past_bound = monitor.run_finitary("bbb", horizon=2)
        assert past_bound.verdict is Verdict4.LIVENESS_BOUND_EXCEEDED
        assert past_bound.max_wait == 3

    def test_gf_a_good_edges_validate_with_one_step_lag(self):
        # translations are guess-style: an 'a' validates an accepting
        # visit only when a run through the promise survives the *next*
        # symbol, so the very first 'a' starts a wait rather than
        # resetting one — "abb" genuinely is a bad prefix of the
        # 2-bounded language, while a later 'a' resets the wait to 0
        monitor = compile_formula(G(F(A)), ALPHABET)
        assert monitor.run_finitary("abb", horizon=2).bound_exceeded
        validated = monitor.run_finitary("ba", horizon=2)
        assert validated.verdict is Verdict4.SATISFIED_SO_FAR
        assert validated.max_wait == 1

    def test_unbounded_run_never_latches(self):
        outcome = compile_formula(G(F(A)), ALPHABET).run_finitary("b" * 64)
        assert outcome.verdict is Verdict4.INCONCLUSIVE
        assert outcome.max_wait == 64
        assert not outcome.bound_exceeded


class TestMatchesReferenceOracle:
    @given(formulas(), prefixes)
    @settings(max_examples=120, deadline=None)
    def test_verdict_and_monitorability_on_every_prefix(self, formula, prefix):
        session = TraceSession("s", compile_formula(formula, ALPHABET))
        reference = RvMonitor(formula, ALPHABET)
        for cut in range(len(prefix) + 1):
            if cut:
                session.observe(prefix[cut - 1])
                reference.observe(prefix[cut - 1])
            assert session.verdict is reference.verdict
            assert session.monitorable is reference.is_monitorable_now()


class TestStreamingMatchesOneShot:
    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_session_outcome_equals_run_finitary(self, formula, prefix, horizon):
        monitor = compile_formula(formula, ALPHABET)
        oneshot = monitor.run_finitary(prefix, horizon=horizon)
        session = TraceSession("s", monitor, horizon=horizon)
        for event in prefix:
            session.observe(event)
        streamed = session.outcome()
        assert isinstance(streamed, MonitorOutcome)
        assert streamed.verdict is oneshot.verdict
        assert streamed.verdict3 is oneshot.verdict3
        assert streamed.max_wait == oneshot.max_wait

    @given(formulas(), prefixes, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_batched_drain_equals_observe(self, formula, prefix, horizon):
        monitor = compile_formula(formula, ALPHABET)
        eager = TraceSession("eager", monitor, horizon=horizon)
        for event in prefix:
            eager.observe(event)
        batched = TraceSession("batched", monitor, horizon=horizon,
                               max_pending=64)
        rng = random.Random(7)
        i = 0
        while i < len(prefix):
            j = min(len(prefix), i + rng.randint(1, 4))
            batched.enqueue_many(prefix[i:j])
            batched.drain()
            i = j
        assert batched.verdict4 is eager.verdict4
        assert batched.max_wait == eager.max_wait
