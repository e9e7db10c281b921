"""Tests for LTL → Büchi translation: exhaustive agreement with the
semantic evaluator on bounded lassos, plus structural sanity."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltl import parse, satisfies, translate
from repro.ltl.syntax import (
    And,
    F,
    Formula,
    G,
    Letter,
    Next,
    Not,
    Or,
    Release,
    Until,
    sym,
)
from repro.omega import all_lassos

SMALL_LASSOS = list(all_lassos("ab", 2, 3))

FORMULAS = [
    "true",
    "false",
    "a",
    "!a",
    "X a",
    "XX b",
    "F a",
    "G a",
    "GF a",
    "FG a",
    "FG !a",
    "a U b",
    "a R b",
    "a W b",
    "a & F !a",
    "G (a -> X b)",
    "G (a -> F b)",
    "(F a) & (F b)",
    "(G a) | (G b)",
    "a U (b U a)",
    "!(a U b)",
    "GF a -> GF b",
]


class TestAgreementWithSemantics:
    @pytest.mark.parametrize("text", FORMULAS)
    def test_formula(self, text):
        f = parse(text)
        automaton = translate(f, "ab")
        for w in SMALL_LASSOS:
            assert automaton.accepts(w) == satisfies(w, f), (text, w)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_formulas(self, seed):
        rng = random.Random(seed)
        f = _random_formula(rng, depth=3)
        automaton = translate(f, "ab")
        for w in all_lassos("ab", 1, 2):
            assert automaton.accepts(w) == satisfies(w, f), (str(f), w)


class TestStructure:
    def test_translation_is_trim(self):
        from repro.buchi import live_states

        m = translate(parse("GF a"), "ab")
        assert m.reachable_states() == m.states
        assert live_states(m) == m.states

    def test_false_yields_empty(self):
        from repro.buchi import is_empty

        assert is_empty(translate(parse("false"), "ab"))

    def test_true_yields_universal(self):
        from repro.buchi import is_universal

        assert is_universal(translate(parse("true"), "ab"))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            translate(parse("a"), "")

    def test_three_letter_alphabet(self):
        f = parse("G {a,b}")
        m = translate(f, "abc")
        from repro.omega import LassoWord

        assert m.accepts(LassoWord((), "ab"))
        assert not m.accepts(LassoWord("c", "a"))

    def test_simplify_flag_preserves_language(self):
        f = parse("G (a -> F b)")
        fast = translate(f, "ab", simplify=True)
        slow = translate(f, "ab", simplify=False)
        for w in SMALL_LASSOS:
            assert fast.accepts(w) == slow.accepts(w)
        assert len(fast.states) <= len(slow.states)



_DUMP = """
import sys
from repro.ltl import parse, translate
for text in sys.argv[1:]:
    A = translate(parse(text), "abc")
    print(sorted((q, a, sorted(t)) for (q, a), t in A.transitions.items()),
          A.initial, sorted(A.accepting), A.canonical_key())
"""

HASH_SEED_FORMULAS = [
    "G (a -> X b)", "F b", "GF a", "a U b", "FG a", "G (a -> F b)",
    "(a U b) | G !b", "X X a & F !b", "G (a -> X (b U c))",
]


class TestHashSeedIndependence:
    """State numbering follows formula content, not string hashing, so
    separate processes (service shards) build identical automata."""

    @staticmethod
    def _dump(seed: str) -> str:
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", _DUMP, *HASH_SEED_FORMULAS],
            env=env, capture_output=True, text=True, check=True,
        )
        return proc.stdout

    def test_same_automata_under_different_hash_seeds(self):
        first = self._dump("0")
        assert first.count("\n") == len(HASH_SEED_FORMULAS)
        assert self._dump("1") == first

def _random_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return sym(rng.choice("ab"))
    shape = rng.randrange(7)
    if shape == 0:
        return Not(_random_formula(rng, depth - 1))
    if shape == 1:
        return Next(_random_formula(rng, depth - 1))
    if shape == 2:
        return F(_random_formula(rng, depth - 1))
    if shape == 3:
        return G(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    if shape == 4:
        return And(left, right)
    if shape == 5:
        return Or(left, right)
    return Until(left, right)
