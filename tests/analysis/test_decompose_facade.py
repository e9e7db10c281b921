"""Tests for the unified decomposition facade: exhaustive dispatch over
the four input kinds, the Decomposition protocol, and the removal of
every old per-kind spelling."""

import importlib

import pytest

from repro.analysis import BoundDecomposition, Decomposition, decompose
from repro.buchi import BuchiAutomaton
from repro.lattice import LatticeClosure, boolean_lattice
from repro.ltl import parse, translate
from repro.rabin import RabinTreeAutomaton


def lattice_fixture():
    lat = boolean_lattice(2)
    cl = LatticeClosure.from_closed_elements(lat, [frozenset({0})])
    return lat, cl


def agfa():
    return RabinTreeAutomaton.build(
        alphabet="ab",
        states=["q0", "qa", "qb"],
        initial="q0",
        transitions={
            ("q0", "a"): [("qa", "qa")], ("q0", "b"): [("qb", "qb")],
            ("qa", "a"): [("qa", "qa")], ("qa", "b"): [("qb", "qb")],
            ("qb", "a"): [("qa", "qa")], ("qb", "b"): [("qb", "qb")],
        },
        pairs=[(["qa"], [])],
        branching=2,
    )


class TestDispatch:
    def test_buchi_automaton(self):
        d = decompose(translate(parse("a & F !a"), "ab"))
        assert isinstance(d, Decomposition)
        assert isinstance(d.safety, BuchiAutomaton)
        assert d.verify()

    def test_formula_with_alphabet(self):
        d = decompose(parse("a U b"), alphabet="ab")
        assert isinstance(d, Decomposition)
        assert d.verify()

    def test_rabin_automaton(self):
        d = decompose(agfa())
        assert isinstance(d, Decomposition)
        assert d.safety is not None and d.liveness is not None

    def test_lattice_element_single_closure(self):
        lat, cl = lattice_fixture()
        d = decompose(frozenset({0}), closure=cl)
        assert isinstance(d, BoundDecomposition)
        assert isinstance(d, Decomposition)
        assert d.safety == cl(frozenset({0}))
        assert lat.meet(d.safety, d.liveness) == frozenset({0})
        assert d.verify()

    def test_lattice_element_closure_pair(self):
        lat = boolean_lattice(2)
        cl2 = LatticeClosure.from_closed_elements(lat, [frozenset({0})])
        cl1 = LatticeClosure.from_closed_elements(
            lat, set(cl2.closed_elements()) | {frozenset({1})}
        )
        d = decompose(frozenset(), closure=(cl1, cl2))
        assert d.verify()


class TestDispatchErrors:
    def test_formula_without_alphabet(self):
        with pytest.raises(TypeError, match="alphabet"):
            decompose(parse("G a"))

    def test_unknown_type_without_closure(self):
        with pytest.raises(TypeError, match="don't know how to decompose"):
            decompose(frozenset({0}))

    def test_bad_closure_argument(self):
        with pytest.raises(TypeError, match="closure="):
            decompose(frozenset({0}), closure=42)

    def test_closure_rejected_for_automata(self):
        _, cl = lattice_fixture()
        with pytest.raises(TypeError, match="closure= does not apply"):
            decompose(translate(parse("G a"), "ab"), closure=cl)

    def test_alphabet_rejected_for_lattice_elements(self):
        _, cl = lattice_fixture()
        with pytest.raises(TypeError, match="alphabet= does not apply"):
            decompose(frozenset({0}), closure=cl, alphabet="ab")

    def test_unknown_options_rejected(self):
        with pytest.raises(TypeError, match="unexpected options"):
            decompose(translate(parse("G a"), "ab"), frobnicate=True)

    def test_lattice_verify_rejects_witness(self):
        _, cl = lattice_fixture()
        d = decompose(frozenset({0}), closure=cl)
        with pytest.raises(TypeError, match="no witness"):
            d.verify(witness=object())


class TestVerifySpelling:
    def test_buchi_verify_without_witness_is_exact(self):
        d = decompose(translate(parse("G a"), "ab"))
        assert d.verify() == d.verify_exact()

    def test_buchi_verify_with_word_witness(self):
        from repro.omega import LassoWord

        d = decompose(translate(parse("G a"), "ab"))
        assert d.verify(LassoWord((), "a"))

    def test_rabin_verify_requires_witness(self):
        d = decompose(agfa())
        with pytest.raises(TypeError, match="witness"):
            d.verify()

    def test_rabin_verify_on_tree_witness(self):
        from repro.ctl import sample_trees

        d = decompose(agfa())
        tree = next(iter(sample_trees().values()))
        assert d.verify(tree) in (True, False)


@pytest.mark.parametrize(
    "module_name,name",
    [
        ("repro.lattice", "decompose"),
        ("repro.lattice", "decompose_single"),
        ("repro.lattice.decomposition", "decompose"),
        ("repro.lattice.decomposition", "decompose_single"),
        ("repro.buchi", "decompose"),
        ("repro.buchi.decomposition", "decompose"),
        ("repro.rabin", "decompose"),
        ("repro.rabin.decomposition", "decompose"),
        ("repro.ltl", "decompose_formula"),
        ("repro.ltl.classify", "decompose_formula"),
        ("repro.analysis", "decompose_element"),
        ("repro.analysis", "decompose_automaton"),
        ("repro.analysis", "decompose_formula"),
        ("repro.analysis.classify", "decompose_element"),
        ("repro.analysis.classify", "decompose_automaton"),
        ("repro.analysis.classify", "decompose_formula"),
        ("repro.service.warmup", "warm_start"),
    ],
)
def test_old_spellings_are_gone(module_name, name):
    # importlib, not attribute chaining: package inits rebind some of
    # these module names to same-named functions (repro.ltl.classify)
    module = importlib.import_module(module_name)
    assert not hasattr(module, name)


def test_facade_is_exported():
    import repro.analysis as analysis

    for name in ("decompose", "Decomposition", "BoundDecomposition"):
        assert name in analysis.__all__
