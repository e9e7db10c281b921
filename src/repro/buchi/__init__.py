"""Büchi automata: the ω-regular instance of the paper's framework (§2.4).

The languages definable by Büchi automata form a Boolean algebra that is
*not* ⋁-complete — the case that motivated the paper's generalization.
This package provides the algebra's operations (union, intersection,
complement), the Alpern–Schneider closure operator, and the effective
safety/liveness decomposition ``B = B_S ∩ B_L``.
"""

from .automaton import AutomatonError, BuchiAutomaton, from_dense
from .closure import (
    closure,
    is_closure_automaton,
    is_liveness,
    is_safety,
    semantic_lcl_member,
)
from .complement import (
    complement,
    complement_deterministic,
    complement_rank_based,
    complement_safety,
)
from .decomposition import BuchiDecomposition
from .extremal import (
    canonical_is_extremal,
    strongest_safety_violation,
    weakest_liveness_violation,
)
from .generalized import GeneralizedBuchiAutomaton, fairness_intersection
from .emptiness import (
    empty_automaton,
    find_accepted_word,
    is_empty,
    live_states,
    trim,
    universal_automaton,
)
from .inclusion import (
    are_equivalent,
    equivalence_counterexample,
    inclusion_counterexample,
    is_subset,
    is_universal,
)
from .operations import (
    finite_prefix_automaton,
    intersect_many,
    intersection,
    single_word_automaton,
    suffix_language_automaton,
    union,
)
from .random_automata import random_automaton, random_dense_automaton, random_lasso
from .minimize import MinimalMonitorDfa, minimize_good_prefix_dfa
from .subset import SubsetTable
from .safety import (
    GoodPrefixDfa,
    good_prefix_dfa,
    is_bad_prefix,
    minimal_bad_prefixes,
    safety_automaton_has_no_bad_prefix,
    shortest_bad_prefix,
)
from .simulation import direct_simulation, quotient_by_simulation

__all__ = [
    "BuchiAutomaton",
    "AutomatonError",
    "from_dense",
    "closure",
    "is_closure_automaton",
    "is_safety",
    "is_liveness",
    "semantic_lcl_member",
    "complement",
    "complement_safety",
    "complement_deterministic",
    "complement_rank_based",
    "BuchiDecomposition",
    "is_empty",
    "find_accepted_word",
    "live_states",
    "trim",
    "empty_automaton",
    "universal_automaton",
    "is_subset",
    "are_equivalent",
    "is_universal",
    "inclusion_counterexample",
    "equivalence_counterexample",
    "union",
    "intersection",
    "intersect_many",
    "single_word_automaton",
    "suffix_language_automaton",
    "finite_prefix_automaton",
    "random_automaton",
    "random_dense_automaton",
    "random_lasso",
    "SubsetTable",
    "direct_simulation",
    "quotient_by_simulation",
    "canonical_is_extremal",
    "strongest_safety_violation",
    "weakest_liveness_violation",
    "GeneralizedBuchiAutomaton",
    "fairness_intersection",
    "GoodPrefixDfa",
    "good_prefix_dfa",
    "is_bad_prefix",
    "shortest_bad_prefix",
    "minimal_bad_prefixes",
    "safety_automaton_has_no_bad_prefix",
    "MinimalMonitorDfa",
    "minimize_good_prefix_dfa",
]
