"""The set-based three-valued LTL monitor: the reference oracle.

RV semantics on a finite prefix ``u``:

* ``FALSE``    — no infinite extension of ``u`` satisfies φ
                 (``u`` is a *bad prefix*: it already left ``lcl(L_φ)``);
* ``TRUE``     — every extension satisfies φ
                 (``u`` is a bad prefix of ¬φ);
* ``UNKNOWN``  — some extensions satisfy φ, some don't.

Both verdicts are exactly the Alpern–Schneider closure machinery: "some
extension satisfies" = the subset run over ``cl``-live states of the
formula automaton is still alive.  This monitor computes that directly
on sets of states of ``translate(φ)`` and ``translate(¬φ)``, without the
decomposition, the subset tables or the product that
:class:`repro.rv.compile.DecomposedMonitor` is compiled from, so the
rv tests and benchmarks use it as an independent oracle for the
monitor that ships.
"""

from __future__ import annotations

from repro.buchi.emptiness import live_states
from repro.ltl.syntax import Formula, Not
from repro.ltl.translate import translate
from repro.rv.verdicts import Verdict3


class RvMonitor:
    """An incremental three-valued monitor for one LTL formula."""

    def __init__(self, formula: Formula, alphabet):
        self.formula = formula
        self.alphabet = frozenset(alphabet)
        self._pos = translate(formula, self.alphabet)
        self._neg = translate(Not(formula), self.alphabet)
        self._pos_live = live_states(self._pos)
        self._neg_live = live_states(self._neg)
        self.reset()

    def reset(self) -> None:
        self._pos_set = frozenset({self._pos.initial}) & self._pos_live
        self._neg_set = frozenset({self._neg.initial}) & self._neg_live
        self._events = 0
        self._verdict = self._compute()

    def _compute(self) -> Verdict3:
        can_satisfy = bool(self._pos_set)
        can_violate = bool(self._neg_set)
        if can_satisfy and can_violate:
            return Verdict3.UNKNOWN
        if can_satisfy:
            return Verdict3.TRUE
        return Verdict3.FALSE

    @property
    def verdict(self) -> Verdict3:
        return self._verdict

    @property
    def position(self) -> int:
        return self._events

    def observe(self, event) -> Verdict3:
        """Feed one event; verdicts are *final* once non-UNKNOWN."""
        if event not in self.alphabet:
            raise ValueError(f"event {event!r} outside the alphabet")
        self._events += 1
        if self._verdict is not Verdict3.UNKNOWN:
            return self._verdict
        self._pos_set = self._pos.post(self._pos_set, event) & self._pos_live
        self._neg_set = self._neg.post(self._neg_set, event) & self._neg_live
        self._verdict = self._compute()
        return self._verdict

    def run(self, events) -> Verdict3:
        """Observe a whole finite trace from a fresh start."""
        self.reset()
        for e in events:
            self.observe(e)
        return self._verdict

    def is_monitorable_now(self) -> bool:
        """Whether a definite verdict is still reachable from the current
        state: some extension is a bad prefix of φ or of ¬φ.

        (A conservative state-local check: the monitor can still leave
        UNKNOWN iff one of the two subset runs can be killed, i.e. the
        corresponding subset can reach the empty set.)
        """
        if self._verdict is not Verdict3.UNKNOWN:
            return True
        return _can_die(self._pos, self._pos_live, self._pos_set) or _can_die(
            self._neg, self._neg_live, self._neg_set
        )


def monitor_verdict(formula: Formula, alphabet, events) -> Verdict3:
    """One-shot trace evaluation."""
    return RvMonitor(formula, alphabet).run(events)


def _can_die(automaton, live, start: frozenset) -> bool:
    """Whether the live-restricted subset run from ``start`` can reach
    the empty set."""
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for a in automaton.alphabet:
            nxt = automaton.post(current, a) & live
            if not nxt:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False
