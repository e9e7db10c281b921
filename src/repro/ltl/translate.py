"""LTL → Büchi translation (on-the-fly tableau construction).

Pipeline::

    formula --nnf--> positive formula --tableau--> generalized Büchi
            --degeneralize--> Büchi --trim + simulation-quotient--> result

The tableau is built on the fly (GPVW-style): a state is a *saturated*
obligation set — a locally consistent set of subformulas closed under
the expansion laws (∧ adds both conjuncts, ∨ branches, U/R branch
between fulfilling now and delaying) — and only states reachable from
the root formula's saturations are ever constructed, so the automaton is
exponential only in the worst case, not always.

Acceptance is generalized — one set per Until subformula (visit states
where the Until is absent or already fulfilled) — then degeneralized
with the usual counter.

Correctness is established in the test suite by exhaustive agreement
with the semantic evaluator on bounded lassos — for the ω-regular
fragment that agreement is equality.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.emptiness import trim
from repro.buchi.simulation import quotient_by_simulation
from repro.obs.metrics import REGISTRY
from repro.obs.profile import PhaseTimer

from .syntax import (
    And,
    FalseFormula,
    Formula,
    Letter,
    Next,
    Or,
    Release,
    TrueFormula,
    Until,
    nnf_over_alphabet,
)


#: Per-phase wall time of the translate pipeline (tableau construction,
#: degeneralization, trimming, simulation quotient).
_PHASES = PhaseTimer("repro.ltl.translate")
_TRANSLATIONS = REGISTRY.counter(
    "repro_ltl_translations_total", "translate() calls"
)
_TABLEAU_STATES = REGISTRY.counter(
    "repro_ltl_tableau_states_total",
    "saturated tableau states constructed (pre-degeneralization)",
)


def translate(formula: Formula, alphabet: Iterable, simplify: bool = True) -> BuchiAutomaton:
    """A Büchi automaton with ``L(A) = models(formula)`` over ``alphabet``."""
    alphabet = frozenset(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    positive = nnf_over_alphabet(formula, alphabet)

    with _PHASES.phase("tableau"):
        initial_candidates = _saturate(frozenset({positive}))
        states: set[frozenset] = set(initial_candidates)
        transitions: dict = {}
        untils_seen: set = set()
        frontier = list(initial_candidates)
        successors_cache: dict[frozenset, tuple] = {}

        while frontier:
            s = frontier.pop()
            untils_seen |= {f for f in s if isinstance(f, Until)}
            if s in successors_cache:
                continue
            need = _required_next(s)
            succ = _saturate(need)
            successors_cache[s] = tuple(succ)
            for t in succ:
                if t not in states:
                    states.add(t)
                    frontier.append(t)

        for s in states:
            succ = frozenset(successors_cache[s])
            if not succ:
                continue
            for a in alphabet:
                if _letter_ok(s, a):
                    transitions[s, a] = succ

        untils = sorted(untils_seen, key=str)
        acceptance_sets = [
            frozenset(s for s in states if u not in s or u.right in s)
            for u in untils
        ]
    with _PHASES.phase("degeneralize"):
        nba = _degeneralize(
            alphabet=alphabet,
            states=sorted(states, key=sorted_key),
            initial_candidates=sorted(initial_candidates, key=sorted_key),
            transitions=transitions,
            acceptance_sets=acceptance_sets,
            name=str(formula),
        )
    with _PHASES.phase("trim"):
        result = trim(nba)
    if simplify:
        with _PHASES.phase("quotient"):
            result = quotient_by_simulation(result)
    _TRANSLATIONS.add()
    _TABLEAU_STATES.add(len(states))
    return result.renumbered(name=str(formula))


def sorted_key(state: frozenset) -> str:
    return ",".join(sorted(str(f) for f in state))


def _letter_ok(state: frozenset, a) -> bool:
    return all(a in f.letters for f in state if isinstance(f, Letter))


def _required_next(state: frozenset) -> frozenset:
    """The obligations carried to the next position."""
    need: set = set()
    for f in state:
        if isinstance(f, Next):
            need.add(f.operand)
        elif isinstance(f, Until) and f.right not in state:
            need.add(f)
        elif isinstance(f, Release) and f.left not in state:
            need.add(f)
    return frozenset(need)


def _saturate(obligations: frozenset) -> list[frozenset]:
    """All saturated, locally consistent extensions of ``obligations``.

    Saturation: every formula in the set is *witnessed now* —
    conjunctions by both conjuncts, disjunctions by a chosen disjunct,
    Until by its right side or by its left side (delaying), Release by
    its right side plus optionally its left (closing it out).  The
    returned sets keep the originals, so acceptance and next-obligation
    extraction can inspect them.
    """
    results: list[frozenset] = []
    seen: set[frozenset] = set()

    def expand(done: frozenset, todo: tuple):
        if not todo:
            if done not in seen:
                seen.add(done)
                if _consistent(done):
                    results.append(done)
            return
        f, rest = todo[0], todo[1:]
        if f in done:
            expand(done, rest)
            return
        done = done | {f}
        if isinstance(f, FalseFormula):
            return  # inconsistent branch
        if isinstance(f, (TrueFormula, Letter, Next)):
            expand(done, rest)
        elif isinstance(f, And):
            expand(done, (f.left, f.right) + rest)
        elif isinstance(f, Or):
            expand(done, (f.left,) + rest)
            expand(done, (f.right,) + rest)
        elif isinstance(f, Until):
            expand(done, (f.right,) + rest)  # fulfil now
            expand(done, (f.left,) + rest)  # delay (next-obligation kept)
        elif isinstance(f, Release):
            # right holds now; either left closes the release out, or it
            # is delayed to the next position
            expand(done, (f.right, f.left) + rest)
            expand(done, (f.right,) + rest)
        else:
            raise TypeError(f"unknown formula node {f!r}")

    expand(frozenset(), tuple(obligations))
    # deduplicate saturations that differ only in bookkeeping order
    unique = []
    seen_sets: set[frozenset] = set()
    for s in results:
        if s not in seen_sets:
            seen_sets.add(s)
            unique.append(s)
    return unique


def _consistent(state: frozenset) -> bool:
    letters = [f.letters for f in state if isinstance(f, Letter)]
    if letters and not frozenset.intersection(*letters):
        return False
    return not any(isinstance(f, FalseFormula) for f in state)


def _degeneralize(
    alphabet: frozenset,
    states: list,
    initial_candidates: list,
    transitions: dict,
    acceptance_sets: list,
    name: str,
) -> BuchiAutomaton:
    """Textbook counter construction GNBA → NBA.

    NBA states are ``(tableau_state, i)`` with ``i`` the index of the
    acceptance set currently awaited; the counter advances when the
    *source* lies in set ``i``, and the accepting states are ``(q, 0)``
    with ``q ∈ F_0`` — visited infinitely often iff every set is.  A
    fresh initial state simulates all tableau states asserting the root
    formula.
    """
    if not acceptance_sets:
        acceptance_sets = [frozenset(states)]
    k = len(acceptance_sets)

    def step_counter(source, i: int) -> int:
        return (i + 1) % k if source in acceptance_sets[i] else i

    init = "init"
    nba_states: set = {init}
    nba_transitions: dict = {}
    frontier: list = []

    def add(node):
        if node not in nba_states:
            nba_states.add(node)
            frontier.append(node)

    for a in alphabet:
        targets = set()
        for s0 in initial_candidates:
            i_next = step_counter(s0, 0)
            for t in transitions.get((s0, a), ()):
                targets.add((t, i_next))
        for node in targets:
            add(node)
        if targets:
            nba_transitions[init, a] = frozenset(targets)

    while frontier:
        node = frontier.pop()
        s, i = node
        i_next = step_counter(s, i)
        for a in alphabet:
            targets = {(t, i_next) for t in transitions.get((s, a), ())}
            for nxt in targets:
                add(nxt)
            if targets:
                nba_transitions[node, a] = frozenset(targets)

    accepting = [
        n
        for n in nba_states
        if n != init and n[1] == 0 and n[0] in acceptance_sets[0]
    ]
    # Number the states by their formula content.  The tuples' own reprs
    # follow string hashing, and trim, the simulation quotient and
    # renumbered() all order states by repr, so keeping them would make
    # the output depend on the process's hash seed.
    ordered = sorted(nba_states - {init}, key=lambda n: (sorted_key(n[0]), n[1]))
    number = {node: k for k, node in enumerate(ordered, 1)}
    number[init] = 0
    return BuchiAutomaton(
        alphabet=alphabet,
        states=frozenset(number.values()),
        initial=0,
        transitions={
            (number[q], a): frozenset(number[t] for t in targets)
            for (q, a), targets in nba_transitions.items()
        },
        accepting=frozenset(number[n] for n in accepting),
        name=name,
    )
