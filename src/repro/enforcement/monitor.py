"""Schneider-style security automata and truncation monitors.

The paper (Section 1) cites Schneider's result: *enforceable security
policies correspond to safety properties, and security automata
correspond to Büchi automata that accept safe languages.*  This module
realizes both directions:

* :class:`SecurityMonitor` — an execution monitor built from a *safety*
  Büchi automaton (all states accepting, e.g. anything produced by the
  closure operator).  It observes events one at a time and truncates the
  execution the moment the observed prefix becomes a bad prefix.
* :func:`is_enforceable` / :func:`enforcement_gap` — the formal content:
  a property is enforceable by truncation iff it is a safety property;
  for a non-safety property the monitor of its *closure* is the best
  sound over-approximation, and :func:`enforcement_gap` exhibits an
  execution it wrongly admits (the liveness part escapes every monitor).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.closure import closure, is_safety
from repro.buchi.inclusion import equivalence_counterexample
from repro.omega.word import LassoWord
from repro.buchi.subset import SubsetTable


class MonitorError(ValueError):
    """Raised on invalid monitor construction or use."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of feeding one event to a monitor."""

    accepted: bool
    position: int  # events consumed so far


class SecurityMonitor:
    """A truncation monitor for a safety property.

    Runs the subset construction of a safety automaton, pre-determinized
    into a :class:`~repro.buchi.subset.SubsetTable` (the table type the
    streaming engine in :mod:`repro.rv` also compiles to): the monitor admits an
    event iff some run of the automaton survives it; once no run
    survives, the prefix is *bad* and the execution is truncated (every
    continuation violates the policy — exactly why only safety is
    enforceable this way).
    """

    def __init__(self, automaton: BuchiAutomaton):
        if automaton.accepting != automaton.states:
            raise MonitorError(
                "security automata are safety automata (all states "
                "accepting); pass the closure of your property"
            )
        self._table = SubsetTable.from_automaton(automaton)
        self.reset()

    @classmethod
    def for_property(cls, automaton: BuchiAutomaton) -> "SecurityMonitor":
        """The monitor of ``cl(B)`` — the strongest enforceable policy
        implied by ``L(B)`` (Theorem 6's extremal safety element)."""
        return cls(closure(automaton))

    @classmethod
    def from_formula(cls, formula, alphabet) -> "SecurityMonitor":
        """The monitor of an LTL policy: translate, close, monitor."""
        from repro.ltl.translate import translate

        return cls.for_property(translate(formula, alphabet))

    def reset(self) -> None:
        self._state = self._table.initial
        self._position = 0
        self._dead = not self._table.alive[self._state]

    @property
    def truncated(self) -> bool:
        return self._dead

    @property
    def position(self) -> int:
        return self._position

    def observe(self, event) -> Verdict:
        """Feed one event; once truncated, everything is rejected."""
        table = self._table
        index = table.symbol_index.get(event)
        if index is None:
            raise MonitorError(f"event {event!r} outside the alphabet")
        if self._dead:
            return Verdict(accepted=False, position=self._position)
        self._state = table.next_state[self._state][index]
        self._position += 1
        if not table.alive[self._state]:
            self._dead = True
            return Verdict(accepted=False, position=self._position)
        return Verdict(accepted=True, position=self._position)

    def admits_prefix(self, events: Sequence) -> bool:
        """Whether the whole finite execution passes (stateless helper)."""
        self.reset()
        verdict = Verdict(accepted=True, position=0)
        for e in events:
            verdict = self.observe(e)
            if not verdict.accepted:
                self.reset()
                return False
        self.reset()
        return True

    def admits_lasso(self, word: LassoWord, unroll: int = 2) -> bool:
        """Whether the monitor never truncates the infinite execution —
        decided exactly: the subset run over a lasso is eventually
        periodic."""
        self.reset()
        seen: set[tuple[int, int]] = set()
        position = 0
        v = word.cycle
        for e in word.prefix:
            if not self.observe(e).accepted:
                self.reset()
                return False
        while (position, self._state) not in seen:
            seen.add((position, self._state))
            if not self.observe(v[position]).accepted:
                self.reset()
                return False
            position = (position + 1) % len(v)
        self.reset()
        return True


def is_enforceable(automaton: BuchiAutomaton) -> bool:
    """Schneider's criterion: ``L(B)`` is enforceable by a truncation
    monitor iff it is a safety property."""
    return is_safety(automaton)


def enforcement_gap(automaton: BuchiAutomaton) -> LassoWord | None:
    """An execution admitted by the best monitor but violating the
    property — ``None`` exactly when the property is safety.

    This is the liveness content of the decomposition: no truncation
    monitor can reject these executions, because every finite prefix is
    still extendable to a compliant run.
    """
    return equivalence_counterexample(closure(automaton), automaton)


def is_enforceable_formula(formula, alphabet) -> bool:
    """Formula-level enforceability — exact, and cheap even for large
    automata because the complement comes from translating ``¬formula``
    instead of complementing an automaton."""
    return enforcement_gap_formula(formula, alphabet) is None


def enforcement_gap_formula(formula, alphabet) -> LassoWord | None:
    """The gap execution for an LTL policy: a word in
    ``lcl(L_φ) \\ L_φ`` (admitted by every monitor, violates the
    policy), computed as ``cl(A_φ) ∩ A_¬φ`` — no automaton
    complementation involved."""
    from repro.buchi.emptiness import find_accepted_word
    from repro.buchi.operations import intersection
    from repro.ltl.syntax import Not
    from repro.ltl.translate import translate

    positive = translate(formula, alphabet)
    negative = translate(Not(formula), alphabet)
    witness = find_accepted_word(intersection(closure(positive), negative))
    return witness
