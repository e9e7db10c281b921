"""Monitor compilation: ``decompose()`` output → dense tables, memoized.

The compilation source of truth is the paper's own split:
:func:`repro.analysis.decompose` factors the policy into its safety
closure and dense (live) part, and each conjunct is lowered onto the
machinery that can actually decide it on a finite prefix:

* the **safety conjunct** ``cl(A_φ)`` feeds the :class:`SubsetTable`
  falsifier — bad prefixes of ``cl(L)`` and of ``L`` coincide (a prefix
  is extendable into ``cl(L)`` iff it is a prefix of some word of
  ``L``), so the product of the ``φ``-side and ``¬φ``-side subset
  tables issues the same verdicts as stepping ``translate(φ)`` and
  ``translate(¬φ)`` as sets of states;
* the **liveness conjunct** ``A_φ ∪ ¬cl(A_φ)`` feeds a
  :class:`BoundTracker` — its determinized live-restricted subset run
  with a *good* flag per edge (taking the edge validates an accepting
  visit).  Sessions count events since the last good edge; under a
  finitary horizon (Chatterjee–Fijalkow) an exceeded wait falsifies the
  bounded-liveness obligation, which is what turns "inconclusive
  forever" into the four-valued :class:`~repro.rv.verdicts.Verdict4`.

The classes:

* :class:`SubsetTable` — the *live-restricted subset automaton* of a
  Büchi automaton, determinized once into dense integer tables.  One
  event step is two list indexings.  The empty subset is materialized as
  an absorbing dead state, so stepping never branches.  It lives in
  :mod:`repro.buchi.subset` (re-exported here) so that enforcement's
  truncation monitors can share it without importing this pipeline.
* :class:`DecomposedMonitor` — the one compiled monitor: the product of
  the two safety-closure subset tables with a three-valued verdict and a
  ``monitorable`` flag per state (definite verdicts are absorbing), plus
  the :class:`BoundTracker` of the liveness conjunct.
* :class:`CompileCache` — an LRU keyed by the *canonical* formula
  (simplified, negation normal form) and alphabet, with hit/miss
  counters, so a fleet of sessions over the same policy compiles it
  exactly once.  Horizons are runtime parameters of sessions, never
  baked into tables, so one cache line serves every horizon.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import MappingProxyType
from collections.abc import Iterable
from dataclasses import dataclass

from repro.analysis.decompose import decompose
from repro.buchi.automaton import BuchiAutomaton
from repro.buchi.emptiness import live_states
from repro.buchi.subset import SubsetTable
from repro.ltl.simplify import simplify
from repro.ltl.syntax import Formula, Not, nnf_over_alphabet
from repro.obs.metrics import REGISTRY
from repro.obs.profile import PhaseTimer

from .verdicts import MonitorOutcome, Verdict3, Verdict4

#: Per-phase wall time of the compile pipeline (``decompose`` for the
#: two conjunct factorizations, ``live_states`` / ``determinize`` inside
#: the subset constructions, ``product`` and ``bound_tracker`` on top).
_PHASES = PhaseTimer("repro.rv.compile")
#: Global (cross-cache) hit/miss tallies; per-cache counts stay on the
#: :class:`CompileCache` instance for :meth:`CompileCache.info`.
_CACHE_HITS = REGISTRY.counter(
    "repro_rv_compile_cache_hits_total", "compile-cache hits across all caches"
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_rv_compile_cache_misses_total", "compile-cache misses across all caches"
)
_TABLES_COMPILED = REGISTRY.counter(
    "repro_rv_tables_compiled_total", "DecomposedMonitor.compile() runs"
)
_TABLE_STATES = REGISTRY.histogram(
    "repro_rv_table_states_count", "product-table states per compiled monitor"
)


class BoundTracker:
    """The liveness conjunct as a deterministic *good-event* tracker.

    The determinized live-restricted subset automaton of
    ``B_L = A_φ ∪ ¬cl(A_φ)``, with a boolean per *edge*:
    ``good[q][i]`` is true when taking symbol ``i`` out of subset-state
    ``q`` **validates** an accepting visit — some still-viable run of
    the liveness conjunct sits on an accepting state at ``q`` and
    survives reading the symbol.  The edge (not state) formulation
    matters because LTL translations are guess-style: an accepting
    *promise* state ("the good event happens next") is enterable on
    almost every prefix, so subset ∩ accepting is nearly always
    non-empty; a promise only becomes progress one step later, when a
    run through it survives.  For ``GF a`` the good edges are exactly
    the ``a``-edges; for ``F b`` the first good edge is the ``b`` that
    discharges the eventuality (and every edge after it).

    A session's *wait* is the number of events since it last took a
    good edge; finitary liveness in the Chatterjee–Fijalkow sense is
    "every wait ≤ horizon", and because that bound is a safety property
    of the prefix, one exceeded wait falsifies it forever (the
    ``LIVENESS_BOUND_EXCEEDED`` latch).

    ``B_L`` is dense (every prefix is extendable into it), so the
    tracker has no reachable dead state — it never falsifies anything
    itself; falsification is the safety conjunct's job.
    """

    __slots__ = ("symbols", "symbol_index", "initial", "next_state", "good")

    def __init__(self, symbols, symbol_index, initial, next_state, good):
        self.symbols = symbols
        self.symbol_index = symbol_index
        self.initial = initial
        self.next_state = next_state
        self.good = good

    @classmethod
    def from_automaton(cls, liveness: BuchiAutomaton) -> "BoundTracker":
        """Lower the liveness conjunct onto dense tables + edge flags."""
        with _PHASES.phase("live_states"):
            live = live_states(liveness)
        with _PHASES.phase("determinize"):
            table = SubsetTable._determinize(liveness, live)
        accepting = liveness.accepting
        good = tuple(
            tuple(
                bool(liveness.post(subset & accepting, a) & live)
                for a in table.symbols
            )
            for subset in table.subsets
        )
        return cls(table.symbols, table.symbol_index, table.initial,
                   table.next_state, good)

    def __len__(self) -> int:
        return len(self.next_state)

    def step(self, state: int, symbol) -> int:
        return self.next_state[state][self.symbol_index[symbol]]

    def good_edge(self, state: int, symbol) -> bool:
        return self.good[state][self.symbol_index[symbol]]


_VERDICT_OF = MappingProxyType({
    (True, True): Verdict3.UNKNOWN,
    (True, False): Verdict3.TRUE,
    (False, True): Verdict3.FALSE,
    (False, False): Verdict3.FALSE,  # unreachable: both runs cannot die
})


def _product(pos: SubsetTable, neg: SubsetTable):
    """The reachable product of the ``φ``-side and ``¬φ``-side subset
    tables: ``(next_state, verdicts, states)``, definite states absorbing."""
    width = len(pos.symbols)
    start = (pos.initial, neg.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    states: list[tuple[int, int]] = [start]
    next_state: list[list[int]] = []
    verdicts: list[Verdict3] = []
    i = 0
    while i < len(states):
        p, n = states[i]
        verdict = _VERDICT_OF[pos.alive[p], neg.alive[n]]
        verdicts.append(verdict)
        if verdict is not Verdict3.UNKNOWN:
            # definite verdicts are final — absorb.
            next_state.append([i] * width)
            i += 1
            continue
        row = []
        for k in range(width):
            target = (pos.next_state[p][k], neg.next_state[n][k])
            if target not in index:
                index[target] = len(states)
                states.append(target)
            row.append(index[target])
        next_state.append(row)
        i += 1
    return next_state, tuple(verdicts), tuple(states)


def _can_conclude(next_state, verdicts) -> tuple[bool, ...]:
    """Per product state: can a definite verdict still be reached?  One
    backward pass from the definite states over the reversed table."""
    predecessors: list[list[int]] = [[] for _ in next_state]
    for source, row in enumerate(next_state):
        for target in row:
            predecessors[target].append(source)
    reached = [v is not Verdict3.UNKNOWN for v in verdicts]
    frontier = [q for q, definite in enumerate(reached) if definite]
    while frontier:
        for source in predecessors[frontier.pop()]:
            if not reached[source]:
                reached[source] = True
                frontier.append(source)
    return tuple(reached)


class DecomposedMonitor:
    """A compiled monitor: the safety-conjunct product table plus the
    liveness conjunct's :class:`BoundTracker`.

    ``verdicts[q]`` is the :class:`Verdict3` after reading any prefix
    that reaches product state ``q``; states with a definite verdict are
    absorbing.  ``monitorable[q]`` says whether a definite verdict is
    still reachable from ``q`` (always true once one is reached).
    Stepping is two list indexings — no sets, no allocation.

    The subset tables are built from the *safety closures* ``cl(A_φ)`` /
    ``cl(A_¬φ)`` that :func:`repro.analysis.decompose` returns: a prefix
    has an extension in ``cl(L)`` iff it has one in ``L`` (closure adds
    exactly the limits of extendable prefixes), so the alive-flags, and
    hence every verdict, are those of the set-based monitor on ``A_φ`` /
    ``A_¬φ``.  ``tracker`` is the finitary-liveness part that sessions
    step in lock-step to maintain their wait counters.  The horizon is
    deliberately *not* part of the monitor: it is a runtime parameter of
    sessions and requests, so one cached monitor serves every horizon.
    """

    __slots__ = ("formula", "alphabet", "symbols", "symbol_index", "initial",
                 "next_state", "verdicts", "monitorable", "states", "tracker")

    def __init__(self, formula, alphabet, symbols, symbol_index, initial,
                 next_state, verdicts, monitorable, states,
                 tracker: BoundTracker):
        self.formula = formula
        self.alphabet = alphabet
        self.symbols = symbols
        self.symbol_index = symbol_index
        self.initial = initial
        self.next_state = next_state
        self.verdicts = verdicts
        self.monitorable = monitorable
        self.states = states
        self.tracker = tracker

    @classmethod
    def compile(cls, formula: Formula, alphabet: Iterable) -> "DecomposedMonitor":
        """Factor ``φ`` and ``¬φ`` with :func:`repro.analysis.decompose`,
        lower the safety conjuncts onto subset tables, product them, and
        lower ``φ``'s liveness conjunct onto a :class:`BoundTracker`."""
        alphabet = frozenset(alphabet)
        with _PHASES.phase("decompose"):
            positive = decompose(formula, alphabet=alphabet)
            negative = decompose(Not(formula), alphabet=alphabet)
        pos = SubsetTable.from_automaton(positive.safety, phases=_PHASES)
        neg = SubsetTable.from_automaton(negative.safety, phases=_PHASES)
        with _PHASES.phase("product"):
            next_state, verdicts, states = _product(pos, neg)
            monitorable = _can_conclude(next_state, verdicts)
        with _PHASES.phase("bound_tracker"):
            tracker = BoundTracker.from_automaton(positive.liveness)
        monitor = cls(formula, alphabet, pos.symbols, pos.symbol_index, 0,
                      next_state, verdicts, monitorable, states, tracker)
        _TABLES_COMPILED.add()
        _TABLE_STATES.record(len(monitor))
        return monitor

    def __len__(self) -> int:
        return len(self.next_state)

    def step(self, state: int, symbol) -> int:
        index = self.symbol_index.get(symbol)
        if index is None:
            raise ValueError(f"event {symbol!r} outside the alphabet")
        return self.next_state[state][index]

    def run(self, events: Iterable) -> Verdict3:
        """One-shot three-valued trace evaluation."""
        state = self.initial
        for e in events:
            state = self.step(state, e)
        return self.verdicts[state]

    def run_finitary(self, events: Iterable,
                     horizon: int | None = None) -> MonitorOutcome:
        """One-shot four-valued trace evaluation under a horizon.

        The streaming twin lives in :class:`~repro.rv.session
        .TraceSession`; this is the request/reply form the service's
        ``Monitor`` verb computes.  ``max_wait`` caps at ``horizon + 1``
        once the bound is exceeded (the wait stops being informative
        after the latch).
        """
        table, symbol_index = self.next_state, self.symbol_index
        verdicts = self.verdicts
        tracker = self.tracker
        ttable, tgood = tracker.next_state, tracker.good
        state, tstate = self.initial, tracker.initial
        verdict = verdicts[state]
        # wait = events since the session last took a good edge
        # (w(ε) = 0; reset to 0 on a good edge, else w + 1).
        wait = max_wait = 0
        latched = False
        count = 0
        for e in events:
            count += 1
            if verdict is not Verdict3.UNKNOWN:
                continue
            i = symbol_index[e]
            state = table[state][i]
            verdict = verdicts[state]
            if not latched:
                good = tgood[tstate][i]
                tstate = ttable[tstate][i]
                if good:
                    wait = 0
                else:
                    wait += 1
                    if wait > max_wait:
                        max_wait = wait
                    if horizon is not None and wait > horizon:
                        latched = True
        if verdict is Verdict3.FALSE:
            verdict4 = Verdict4.FALSIFIED_SAFETY
        elif latched:
            verdict4 = Verdict4.LIVENESS_BOUND_EXCEEDED
        elif verdict is Verdict3.TRUE or wait == 0:
            verdict4 = Verdict4.SATISFIED_SO_FAR
        else:
            verdict4 = Verdict4.INCONCLUSIVE
        return MonitorOutcome(
            verdict=verdict4, verdict3=verdict, events=count,
            max_wait=max_wait, horizon=horizon,
        )


def canonical_key(formula: Formula, alphabet: Iterable):
    """The cache key: simplified negation-normal form over the alphabet.

    Syntactic variants (``F a`` written twice, double negations, absorbed
    conjuncts) collapse to one compiled monitor; semantics are preserved
    because :func:`~repro.ltl.simplify.simplify` and NNF are
    language-preserving rewrites, and verdicts depend only on languages.
    """
    alphabet = frozenset(alphabet)
    return nnf_over_alphabet(simplify(formula), alphabet), alphabet


@dataclass(frozen=True)
class CacheInfo:
    hits: int
    misses: int
    size: int
    maxsize: int


class CompileCache:
    """A thread-safe LRU of compiled monitors keyed by canonical formula.

    ``get`` compiles at most once per distinct (canonical formula,
    alphabet) pair while it stays resident; the counters let callers
    *prove* reuse (the acceptance test and stats layer read them).
    Entries are :class:`DecomposedMonitor` instances; horizons are
    session-side, so every horizon shares one entry.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, formula: Formula, alphabet: Iterable) -> DecomposedMonitor:
        key = canonical_key(formula, alphabet)
        with self._lock:
            table = self._entries.get(key)
            if table is not None:
                self._hits += 1
                self._entries.move_to_end(key)
            else:
                self._misses += 1
        if table is not None:
            # the counter takes its own lock; update it after releasing
            # ours so the two never nest (the RC011 discipline — this
            # mirrors the miss path below)
            _CACHE_HITS.add()
            return table
        _CACHE_MISSES.add()
        # compile outside the lock: a slow formula must not serialize the
        # whole fleet.  A racing duplicate compile is harmless (same table
        # semantics) and the counters still record one miss per caller.
        table = DecomposedMonitor.compile(key[0], key[1])
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = table
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return table

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, len(self._entries), self.maxsize)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0


#: Process-wide default cache (module-level monitors, examples, tests).
DEFAULT_CACHE = CompileCache()


def compile_formula(
    formula: Formula, alphabet: Iterable, cache: CompileCache | None = None
) -> DecomposedMonitor:
    """Compile through a cache (the module default when none is given)."""
    return (cache or DEFAULT_CACHE).get(formula, alphabet)
