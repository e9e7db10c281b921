"""Rabin tree automata: game-based membership/emptiness, the closure
``rfcl``, and the Theorem 9 decomposition (§4.4)."""

from .automaton import RabinError, RabinPair, RabinTreeAutomaton
from .closure import is_closure_automaton, rfcl
from .decomposition import RabinDecomposition
from .games_bridge import (
    accepts_tree,
    emptiness_witness,
    is_empty,
    nonempty_states,
)
from .language import TreeLanguage
from .operations import intersection_language, union

__all__ = [
    "RabinTreeAutomaton",
    "RabinPair",
    "RabinError",
    "accepts_tree",
    "is_empty",
    "nonempty_states",
    "emptiness_witness",
    "rfcl",
    "is_closure_automaton",
    "TreeLanguage",
    "RabinDecomposition",
    "union",
    "intersection_language",
]
