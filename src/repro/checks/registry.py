"""The rule catalog: one place that knows every rule class.

Adding a rule (DESIGN.md, "Static checks", has the worked example):

1. subclass :class:`repro.checks.core.Rule` in a ``rules_*`` module,
   giving it the next free ``RC###`` id, a one-line ``title``, and a
   ``scope`` (``"src"`` for library-code-only invariants, ``"all"``
   for universal ones);
2. list the class in :data:`RULE_CLASSES` below;
3. add fixture-driven good/bad tests under ``tests/checks/`` and a
   catalog row in DESIGN.md.

:func:`all_rules` returns fresh instances so cross-file rule state
(e.g. RC003's import graph) never leaks between runs.
"""

from __future__ import annotations

from .rules_api import ApiSurfaceRule
from .rules_certs import CertVerifierIndependenceRule
from .rules_flow import BlockingUnderLockRule, ExceptionUnsafeLockRule, LockOrderRule
from .rules_imports import ImportHygieneRule
from .rules_layering import KernelLayeringRule
from .rules_locks import LockDisciplineRule
from .rules_metrics import MetricNamingRule
from .rules_ops import OpsDisciplineRule
from .rules_shims import DeprecatedShimRule
from .rules_state import MutableModuleStateRule

RULE_CLASSES = (
    LockDisciplineRule,
    MetricNamingRule,
    ImportHygieneRule,
    ApiSurfaceRule,
    MutableModuleStateRule,
    DeprecatedShimRule,
    KernelLayeringRule,
    CertVerifierIndependenceRule,
    OpsDisciplineRule,
    LockOrderRule,
    BlockingUnderLockRule,
    ExceptionUnsafeLockRule,
)


def all_rules():
    """Fresh instances of every registered rule, in id order."""
    return sorted((cls() for cls in RULE_CLASSES), key=lambda r: r.rule_id)
