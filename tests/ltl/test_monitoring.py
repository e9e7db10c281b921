"""Tests for three-valued runtime verification — the RV face of the
safety/liveness distinction — on the compiled monitor and its
sessions."""

import pytest

from repro.ltl import parse
from repro.rv import TraceSession, Verdict3, compile_formula


def session(text: str) -> TraceSession:
    return TraceSession("s", compile_formula(parse(text), "ab"))


class TestVerdicts:
    def test_safety_reaches_false(self):
        m = compile_formula(parse("G a"), "ab")
        assert m.run("aaa") is Verdict3.UNKNOWN
        assert m.run("aab") is Verdict3.FALSE

    def test_cosafety_reaches_true(self):
        m = compile_formula(parse("F b"), "ab")
        assert m.run("aaa") is Verdict3.UNKNOWN
        assert m.run("ab") is Verdict3.TRUE

    def test_liveness_never_concludes(self):
        m = compile_formula(parse("GF a"), "ab")
        for trace in ("", "a", "abab", "bbbb", "aaaa"):
            assert m.run(trace) is Verdict3.UNKNOWN

    def test_constants(self):
        assert compile_formula(parse("true"), "ab").run("") is Verdict3.TRUE
        assert compile_formula(parse("false"), "ab").run("") is Verdict3.FALSE

    def test_next_operator_window(self):
        m = compile_formula(parse("X a"), "ab")
        assert m.run("b") is Verdict3.UNKNOWN  # first letter irrelevant
        assert m.run("ba") is Verdict3.TRUE
        assert m.run("bb") is Verdict3.FALSE


class TestFinality:
    def test_verdicts_are_final(self):
        s = session("G a")
        s.run("ab")
        assert s.verdict is Verdict3.FALSE
        assert s.observe("a") is Verdict3.FALSE  # stays false forever

    def test_reset(self):
        s = session("G a")
        s.run("ab")
        s.reset()
        assert s.verdict is Verdict3.UNKNOWN
        assert s.position == 0

    def test_position_counts(self):
        s = session("G a")
        s.observe("a")
        s.observe("a")
        assert s.position == 2

    def test_unknown_event_rejected(self):
        s = session("G a")
        with pytest.raises(ValueError):
            s.observe("z")


class TestConsistencyWithClassification:
    """RV-theoretic characterizations of the paper's classes."""

    @pytest.mark.parametrize("text", ["G a", "G (b -> X b)", "a"])
    def test_safety_properties_can_fail_finitely(self, text):
        """Safety: some finite trace yields FALSE (unless the property is
        Σ^ω)."""
        m = compile_formula(parse(text), "ab")
        traces = ["", "a", "b", "ab", "ba", "aab", "bbb"]
        verdicts = {tuple(t): m.run(t) for t in traces}
        assert Verdict3.FALSE in verdicts.values()
        # (a TRUE verdict is also possible when the property is
        # additionally co-safe, e.g. the present-only formula "a")

    @pytest.mark.parametrize("text", ["GF a", "FG a", "G (a -> F b)"])
    def test_liveness_properties_never_fail_finitely(self, text):
        """Liveness: no finite trace can produce FALSE (every prefix is
        extendable to a model — that is what lcl = Σ^ω means)."""
        m = compile_formula(parse(text), "ab")
        for trace in ("", "a", "b", "ab", "ba", "abab", "bbbb", "aaaa"):
            assert m.run(trace) is not Verdict3.FALSE, trace

    def test_pure_fairness_is_unmonitorable(self):
        s = session("GF a")
        assert not s.monitorable
        s.run("abba")
        assert not s.monitorable

    def test_safety_is_monitorable(self):
        s = session("G a")
        assert s.monitorable
        s.run("ab")          # FALSE reached: still monitorable
        assert s.monitorable
