"""Tests for the monitor compiler: subset tables, product tables, and
the LRU compile cache's hit/miss semantics."""

import importlib.util

import pytest

from repro.buchi.emptiness import live_states
from repro.ltl import Not, parse, translate
from repro.omega import all_lassos
from repro.rv import (
    CompileCache,
    DecomposedMonitor,
    SubsetTable,
    Verdict3,
    canonical_key,
    compile_formula,
)

from .reference import RvMonitor


class TestSubsetTable:
    def test_mirrors_live_restricted_subset_run(self):
        automaton = translate(parse("G (a -> X b)"), "ab")
        live = live_states(automaton)
        table = SubsetTable.from_automaton(automaton)
        for trace in ("", "a", "ab", "abab", "aa", "ba", "bbab", "aab"):
            subset = frozenset({automaton.initial}) & live
            for e in trace:
                subset = automaton.post(subset, e) & live
            state = table.run(trace)
            assert table.subsets[state] == subset
            assert table.alive[state] == bool(subset)

    def test_complete_and_dead_state_absorbing(self):
        table = SubsetTable.from_automaton(translate(parse("G a"), "ab"))
        dead = [q for q in range(len(table)) if not table.alive[q]]
        assert len(dead) == 1
        (dead,) = dead
        assert all(table.next_state[dead][i] == dead
                   for i in range(len(table.symbols)))
        # every row is total
        assert all(len(row) == len(table.symbols) for row in table.next_state)

    def test_foreign_symbol_raises(self):
        table = SubsetTable.from_automaton(translate(parse("G a"), "ab"))
        with pytest.raises(KeyError):
            table.step(table.initial, "z")


class TestMonitorTable:
    """The product table half of :class:`DecomposedMonitor`."""

    SPECS = ["G a", "F b", "a", "GF a", "G (a -> X b)", "a & F !a", "a U b"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_bit_identical_to_rv_monitor(self, spec):
        """Verdict after *every* prefix equals the reference monitor's."""
        formula = parse(spec)
        table = DecomposedMonitor.compile(formula, "ab")
        reference = RvMonitor(formula, "ab")
        for word in all_lassos("ab", 2, 2):
            trace = list(word.prefix + word.cycle * 2)
            reference.reset()
            state = table.initial
            assert table.verdicts[state] is reference.verdict
            for e in trace:
                state = table.step(state, e)
                assert table.verdicts[state] is reference.observe(e)

    def test_definite_states_absorbing(self):
        table = DecomposedMonitor.compile(parse("G a"), "ab")
        for q in range(len(table)):
            if table.verdicts[q] is not Verdict3.UNKNOWN:
                assert all(t == q for t in table.next_state[q])

    def test_run_matches_monitor_verdict(self):
        formula = parse("(a U b) & G !c")
        table = DecomposedMonitor.compile(formula, "abc")
        reference = RvMonitor(formula, "abc")
        for trace in ("", "a", "ab", "ac", "aab", "abc", "cab"):
            assert table.run(trace) is reference.run(trace)

    def test_foreign_symbol_raises_value_error(self):
        table = DecomposedMonitor.compile(parse("G a"), "ab")
        with pytest.raises(ValueError, match="outside the alphabet"):
            table.step(table.initial, "z")

    def test_one_monitor_type(self):
        import repro.ltl
        import repro.rv

        assert not hasattr(repro.rv, "MonitorTable")
        assert not hasattr(DecomposedMonitor, "compile_direct")
        assert not hasattr(repro.ltl, "RvMonitor")
        assert importlib.util.find_spec("repro.ltl.monitoring") is None


class TestCanonicalKey:
    def test_syntactic_variants_collapse(self):
        a = parse("F a")
        b = parse("!!(F a)")
        c = parse("F a | false")
        assert canonical_key(a, "ab") == canonical_key(b, "ab")
        assert canonical_key(a, "ab") == canonical_key(c, "ab")

    def test_distinct_formulas_stay_distinct(self):
        assert canonical_key(parse("F a"), "ab") != canonical_key(parse("G a"), "ab")

    def test_alphabet_is_part_of_the_key(self):
        assert canonical_key(parse("F a"), "ab") != canonical_key(parse("F a"), "abc")


class TestCompileCache:
    def test_hit_miss_accounting(self):
        cache = CompileCache()
        cache.get(parse("G a"), "ab")
        assert (cache.info().hits, cache.info().misses) == (0, 1)
        cache.get(parse("G a"), "ab")
        assert (cache.info().hits, cache.info().misses) == (1, 1)
        cache.get(parse("F b"), "ab")
        assert (cache.info().hits, cache.info().misses) == (1, 2)

    def test_same_object_returned_on_hit(self):
        cache = CompileCache()
        first = cache.get(parse("G a"), "ab")
        assert cache.get(parse("G a"), "ab") is first
        # canonical variants share the compiled table
        assert cache.get(parse("!!(G a)"), "ab") is first

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2)
        f, g, h = parse("G a"), parse("F b"), parse("a U b")
        first = cache.get(f, "ab")
        cache.get(g, "ab")
        cache.get(f, "ab")        # refresh f — g is now least recent
        cache.get(h, "ab")        # evicts g
        assert cache.get(f, "ab") is first          # hit: f survived
        before = cache.info().misses
        cache.get(g, "ab")                          # miss: g was evicted
        assert cache.info().misses == before + 1

    def test_clear(self):
        cache = CompileCache()
        cache.get(parse("G a"), "ab")
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_compile_formula_uses_given_cache(self):
        cache = CompileCache()
        compile_formula(parse("G a"), "ab", cache)
        assert cache.info().misses == 1


class TestTruncationSemantics:
    def test_events_after_final_verdict_keep_verdict(self):
        """Matches RvMonitor: the verdict is final, later events no-op."""
        formula = parse("G a")
        table = DecomposedMonitor.compile(formula, "ab")
        state = table.initial
        for e in "ab":           # FALSE now
            state = table.step(state, e)
        assert table.verdicts[state] is Verdict3.FALSE
        for e in "abba":
            state = table.step(state, e)
            assert table.verdicts[state] is Verdict3.FALSE

    def test_negation_swaps_true_false(self):
        formula = parse("G a")
        pos = DecomposedMonitor.compile(formula, "ab")
        neg = DecomposedMonitor.compile(Not(formula), "ab")
        swap = {Verdict3.TRUE: Verdict3.FALSE,
                Verdict3.FALSE: Verdict3.TRUE,
                Verdict3.UNKNOWN: Verdict3.UNKNOWN}
        for trace in ("", "a", "ab", "aab", "aaaa"):
            assert neg.run(trace) is swap[pos.run(trace)]
