"""RC006 deprecation hygiene: library code never issues a
``DeprecationWarning`` — a superseded spelling is deleted, not shimmed."""

from repro.checks.rules_shims import DeprecatedShimRule

from .conftest import rules_of

SHIM_MODULE = '''
import warnings


def _decompose(x):
    return x


def decompose(x):
    """Deprecated spelling."""
    warnings.warn(
        "decompose is deprecated", DeprecationWarning, stacklevel=2
    )
    return _decompose(x)


def fresh(x):
    return x
'''


def run_rc006(checker, *paths):
    return checker.run(*paths, rules=[DeprecatedShimRule()])


def test_local_shim_in_all_flagged(checker):
    checker.write(
        "src/repro/demo/mod.py", SHIM_MODULE + '\n__all__ = ["decompose"]\n'
    )
    report = run_rc006(checker)
    assert rules_of(report) == ["RC006"]
    assert "'decompose' issues a DeprecationWarning" in report.findings[0].message


def test_shim_outside_every_all_flagged(checker):
    # the case the old export-only rule let through
    checker.write(
        "src/repro/demo/mod.py", SHIM_MODULE + '\n__all__ = ["fresh"]\n'
    )
    report = run_rc006(checker)
    assert rules_of(report) == ["RC006"]
    assert report.findings[0].path.endswith("mod.py")


def test_method_shim_flagged(checker):
    checker.write(
        "src/repro/demo/mod.py",
        """
        import warnings


        class Table:
            @classmethod
            def compile_direct(cls):
                warnings.warn("use compile()", DeprecationWarning)
                return cls()
        """,
    )
    report = run_rc006(checker)
    assert rules_of(report) == ["RC006"]
    assert "'compile_direct'" in report.findings[0].message


def test_reexport_through_package_init_flagged(checker):
    # one finding, on the definition: the re-exporting init is not a
    # second shim
    checker.write("src/repro/demo/mod.py", SHIM_MODULE)
    checker.write(
        "src/repro/demo/__init__.py",
        """
        from .mod import decompose, fresh

        __all__ = ["decompose", "fresh"]
        """,
    )
    report = run_rc006(checker)
    assert rules_of(report) == ["RC006"]
    assert report.findings[0].path.endswith("mod.py")


def test_aliased_reexport_flagged(checker):
    checker.write("src/repro/demo/mod.py", SHIM_MODULE)
    checker.write(
        "src/repro/demo/__init__.py",
        """
        from .mod import decompose as split

        __all__ = ["split"]
        """,
    )
    report = run_rc006(checker)
    assert rules_of(report) == ["RC006"]
    assert "'decompose'" in report.findings[0].message


def test_multihop_reexport_flagged(checker):
    checker.write("src/repro/demo/inner.py", SHIM_MODULE)
    checker.write(
        "src/repro/demo/mid.py",
        """
        from .inner import decompose as split, fresh  # noqa: F401
        """,
    )
    checker.write(
        "src/repro/demo/__init__.py",
        """
        from .mid import split as carve, fresh

        __all__ = ["carve", "fresh"]
        """,
    )
    report = run_rc006(checker)
    assert rules_of(report) == ["RC006"]
    assert report.findings[0].path.endswith("inner.py")


def test_import_cycle_terminates_without_finding(checker):
    checker.write(
        "src/repro/demo/a.py",
        """
        from .b import thing  # noqa: F401
        """,
    )
    checker.write(
        "src/repro/demo/b.py",
        """
        from .a import thing  # noqa: F401
        """,
    )
    checker.write(
        "src/repro/demo/__init__.py",
        """
        from .a import thing

        __all__ = ["thing"]
        """,
    )
    assert run_rc006(checker).findings == []


def test_category_keyword_detected(checker):
    checker.write(
        "src/repro/demo/mod.py",
        """
        import warnings


        def old(x):
            warnings.warn("old is deprecated", category=DeprecationWarning)
            return x
        """,
    )
    assert rules_of(run_rc006(checker)) == ["RC006"]


def test_other_warning_categories_pass(checker):
    checker.write(
        "src/repro/demo/mod.py",
        """
        import warnings


        def noisy(x):
            warnings.warn("heads up", RuntimeWarning)
            return x


        __all__ = ["noisy"]
        """,
    )
    assert run_rc006(checker).findings == []


def test_nested_function_warning_does_not_taint_parent(checker):
    checker.write(
        "src/repro/demo/mod.py",
        """
        import warnings


        def outer(x):
            def inner():
                warnings.warn("inner", DeprecationWarning)
            return x


        __all__ = ["outer"]
        """,
    )
    report = run_rc006(checker)
    assert rules_of(report) == ["RC006"]
    assert "'inner'" in report.findings[0].message


def test_scoped_to_library_code(checker):
    checker.write(
        "tests/demo/helper.py", SHIM_MODULE + '\n__all__ = ["decompose"]\n'
    )
    assert run_rc006(checker).findings == []


def test_library_tree_is_rc006_clean():
    from pathlib import Path

    from repro.checks import run_checks

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    report = run_checks([src], [DeprecatedShimRule()])
    assert report.findings == []
