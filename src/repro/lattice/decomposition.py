"""The paper's decomposition and extremal theorems (Section 3).

This module is the computational heart of the reproduction.  Each public
function implements one numbered result:

* :func:`liveness_part` — Lemma 4 (``a ∨ b`` is live for ``b ∈ cmp(cl.a)``)
* :func:`_decompose` — Theorem 3 (two comparable closures); Theorem 2 is
  the ``cl1 = cl2`` special case :func:`_decompose_single`.  Call both
  through the unified :func:`repro.analysis.decompose` facade.
* :func:`no_decomposition_witness` / :func:`theorem5_applies` — Theorem 5
* :func:`check_strongest_safety` — Theorem 6 (machine closure / extremal
  safety)
* :func:`check_weakest_liveness` — Theorem 7 (extremal liveness in
  distributive lattices)
* :func:`all_decompositions` — exhaustive search used by the Figure 1/2
  benches to *prove* non-decomposability on the counterexample lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import REGISTRY
from repro.obs.profile import timed

from .closure import LatticeClosure
from .lattice import FiniteLattice, LatticeError
from .poset import Element
from .properties import is_complemented, is_distributive, is_modular

#: Decomposition observability: how often the Theorem 2/3 construction
#: runs, how often its hypotheses fail, and how large the exhaustive
#: searches (`all_decompositions`, Theorem 5's witness hunt) get — the
#: closure *construction* fixpoint counts live in :mod:`.closure`.
_DECOMPOSITIONS = REGISTRY.counter(
    "repro_lattice_decompositions_total", "Theorem 2/3 decompositions built"
)
_HYPOTHESIS_FAILURES = REGISTRY.counter(
    "repro_lattice_decomposition_failures_total",
    "DecompositionError raises, by cause",
    ("cause",),
)
_SEARCH_CANDIDATES = REGISTRY.counter(
    "repro_lattice_decomposition_search_candidates_total",
    "(safety, liveness) candidate pairs scanned by the exhaustive searches",
)


class DecompositionError(LatticeError):
    """Raised when a decomposition does not exist or hypotheses fail."""


@dataclass(frozen=True)
class Decomposition:
    """A safety/liveness factorization ``element = safety ∧ liveness``."""

    element: Element
    safety: Element
    liveness: Element
    complement_used: Element

    def verify(self, lattice: FiniteLattice, cl1: LatticeClosure, cl2: LatticeClosure) -> bool:
        """Re-check all three certified facts from Theorem 3."""
        return (
            lattice.meet(self.safety, self.liveness) == self.element
            and cl1.is_safety(self.safety)
            and cl2.is_liveness(self.liveness)
        )


def liveness_part(
    lattice: FiniteLattice, cl: LatticeClosure, a: Element, b: Element
) -> Element:
    """Lemma 4: for ``b ∈ cmp(cl.a)``, the element ``a ∨ b`` is cl-live.

    Raises :class:`DecompositionError` when ``b`` is not a complement of
    ``cl.a`` (the lemma's hypothesis).
    """
    if not lattice.is_complement(cl(a), b):
        raise DecompositionError(
            f"{b!r} is not a complement of cl({a!r}) = {cl(a)!r}"
        )
    live = lattice.join(a, b)
    # Lemma 4's conclusion is a theorem; assert it as an internal sanity
    # check rather than trusting the proof transcription.
    assert cl.is_liveness(live), "Lemma 4 violated — closure axioms are broken"
    return live


@timed("repro.lattice.decompose")
def _decompose(
    lattice: FiniteLattice,
    cl1: LatticeClosure,
    cl2: LatticeClosure,
    a: Element,
    complement: Element | None = None,
    check_hypotheses: bool = True,
) -> Decomposition:
    """Theorem 3: in a modular complemented lattice with lattice closures
    ``cl1 <= cl2`` (pointwise), every ``a`` is the meet of a cl1-safety
    element and a cl2-liveness element.

    The construction follows the paper's proof verbatim:
    ``safety = cl1.a`` and ``liveness = a ∨ b`` for any
    ``b ∈ cmp(cl2.a)``.

    Parameters
    ----------
    complement:
        A specific ``b ∈ cmp(cl2.a)`` to use.  Complements are not unique
        in non-distributive lattices; by default the first one in element
        order is taken.
    check_hypotheses:
        When true (default), verify modularity, complementedness and
        ``cl1 <= cl2`` before decomposing; disable for hot benchmark loops
        over lattices already known to qualify.
    """
    if check_hypotheses:
        if not cl2.dominates(cl1):
            _HYPOTHESIS_FAILURES.labels(cause="comparability").add()
            raise DecompositionError("hypothesis cl1 <= cl2 (pointwise) fails")
        if not is_modular(lattice):
            _HYPOTHESIS_FAILURES.labels(cause="modularity").add()
            raise DecompositionError("lattice is not modular")
        if not is_complemented(lattice):
            _HYPOTHESIS_FAILURES.labels(cause="complementedness").add()
            raise DecompositionError("lattice is not complemented")
    closed2 = cl2(a)
    if complement is None:
        b = lattice.some_complement(closed2)
    else:
        if not lattice.is_complement(closed2, complement):
            _HYPOTHESIS_FAILURES.labels(cause="bad_complement").add()
            raise DecompositionError(
                f"{complement!r} is not a complement of cl2({a!r}) = {closed2!r}"
            )
        b = complement
    safety = cl1(a)
    liveness = lattice.join(a, b)
    result = Decomposition(element=a, safety=safety, liveness=liveness, complement_used=b)
    if lattice.meet(safety, liveness) != a:
        # Only reachable when hypotheses were skipped but do not hold.
        _HYPOTHESIS_FAILURES.labels(cause="identity").add()
        raise DecompositionError(
            f"decomposition identity fails at {a!r}: "
            f"{safety!r} ∧ {liveness!r} = {lattice.meet(safety, liveness)!r}"
        )
    _DECOMPOSITIONS.add()
    return result


def _decompose_single(
    lattice: FiniteLattice,
    cl: LatticeClosure,
    a: Element,
    complement: Element | None = None,
    check_hypotheses: bool = True,
) -> Decomposition:
    """Theorem 2: the one-closure decomposition (``cl1 = cl2 = cl``),
    e.g. the Alpern–Schneider ``P = lcl.P ∩ (P ∪ ¬lcl.P)``."""
    return _decompose(
        lattice, cl, cl, a, complement=complement, check_hypotheses=check_hypotheses
    )


def all_decompositions(
    lattice: FiniteLattice,
    cl1: LatticeClosure,
    cl2: LatticeClosure,
    a: Element,
) -> list[tuple[Element, Element]]:
    """Every pair ``(s, l)`` with ``s`` cl1-safe, ``l`` cl2-live and
    ``a = s ∧ l`` — by exhaustive search.

    Used to *prove* negative results on small lattices: Lemma 6 says this
    list is empty for the Figure 1 instance.
    """
    _SEARCH_CANDIDATES.add(len(lattice.elements) ** 2)
    return [
        (s, live)
        for s in lattice.elements
        if cl1.is_safety(s)
        for live in lattice.elements
        if cl2.is_liveness(live) and lattice.meet(s, live) == a
    ]


# -- Theorem 5: the impossible fourth decomposition -----------------------------


def theorem5_applies(
    lattice: FiniteLattice, cl1: LatticeClosure, cl2: LatticeClosure, a: Element
) -> bool:
    """Theorem 5's precondition: ``cl2.a = 1`` and ``cl1.a < 1``."""
    return cl2(a) == lattice.top and lattice.lt(cl1(a), lattice.top)


def no_decomposition_witness(
    lattice: FiniteLattice, cl1: LatticeClosure, cl2: LatticeClosure, a: Element
) -> tuple[Element, Element] | None:
    """Search for ``(s, l)`` with ``cl2.s = s``, ``cl1.l = 1``, ``a = s ∧ l``.

    Theorem 5 asserts this returns ``None`` whenever
    :func:`theorem5_applies` — i.e. there is no decomposition of ``a`` into
    a *cl2-safety* and *cl1-liveness* element (safety taken with the larger
    closure, liveness with the smaller: the "fourth" combination).
    """
    _SEARCH_CANDIDATES.add(len(lattice.elements) ** 2)
    for s in lattice.elements:
        if cl2(s) != s:
            continue
        for live in lattice.elements:
            if cl1(live) != lattice.top:
                continue
            if lattice.meet(s, live) == a:
                return (s, live)
    return None


# -- Theorems 6 and 7: extremality ------------------------------------------------


def check_strongest_safety(
    lattice: FiniteLattice,
    cl1: LatticeClosure,
    cl2: LatticeClosure,
    a: Element,
) -> bool:
    """Theorem 6: for every factorization ``a = s ∧ z`` where ``s`` is a
    cl1- or cl2-safety element, ``cl1.a <= s``.

    So ``cl1.a`` is the *strongest* safety element usable in any
    decomposition of ``a`` — the machine-closure observation.  Verified by
    exhaustive search over all factorizations.
    """
    if not cl2.dominates(cl1):
        raise DecompositionError("hypothesis cl1 <= cl2 (pointwise) fails")
    target = cl1(a)
    for s in lattice.elements:
        if not (cl1.is_safety(s) or cl2(s) == s):
            continue
        for z in lattice.elements:
            if lattice.meet(s, z) == a and not lattice.leq(target, s):
                return False
    return True


def check_weakest_liveness(
    lattice: FiniteLattice,
    cl1: LatticeClosure,
    cl2: LatticeClosure,
    a: Element,
    require_distributive: bool = True,
) -> bool:
    """Theorem 7: in a *distributive* lattice, for every factorization
    ``a = s ∧ z`` with ``s`` a safety element and every
    ``b ∈ cmp(cl1.a)``, we have ``z <= a ∨ b``.

    So ``a ∨ b`` is the *weakest* element usable as the second conjunct.
    With ``require_distributive=False`` the check is still run (it can and
    does fail on Figure 2's M3 — that is the point of the figure).
    """
    if not cl2.dominates(cl1):
        raise DecompositionError("hypothesis cl1 <= cl2 (pointwise) fails")
    if require_distributive and not is_distributive(lattice):
        raise DecompositionError("lattice is not distributive")
    complements = lattice.complements(cl1(a))
    for s in lattice.elements:
        if not (cl1.is_safety(s) or cl2(s) == s):
            continue
        for z in lattice.elements:
            if lattice.meet(s, z) != a:
                continue
            for b in complements:
                if not lattice.leq(z, lattice.join(a, b)):
                    return False
    return True


# -- machine closure (Abadi–Lamport, discussed after Theorem 6) ---------------------


def is_machine_closed(
    lattice: FiniteLattice, cl: LatticeClosure, safety: Element, other: Element
) -> bool:
    """The pair ``(safety, other)`` is machine closed when
    ``cl(safety ∧ other) = safety`` — the liveness conjunct constrains no
    safety behaviour beyond what ``safety`` already specifies."""
    return cl(lattice.meet(safety, other)) == safety


def canonical_decomposition_is_machine_closed(
    lattice: FiniteLattice, cl: LatticeClosure, a: Element
) -> bool:
    """The paper's remark after Theorem 6: the canonical pair
    ``(cl.a, a ∨ b)`` is machine closed."""
    d = _decompose_single(lattice, cl, a, check_hypotheses=False)
    return is_machine_closed(lattice, cl, d.safety, d.liveness)
