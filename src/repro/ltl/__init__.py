"""Linear Temporal Logic: syntax, lasso semantics, Büchi translation,
and the safety/liveness classifier (paper §2.2–2.3)."""

from .classify import Classification, PropertyClass, classify
from .fragments import (
    is_syntactically_cosafe,
    is_syntactically_safe,
    syntactic_class,
)
from .parser import ParseError, parse
from .rem import RemExample, classify_rem_examples, rem_examples
from .semantics import evaluate_positions, language_of, models_within, satisfies
from .simplify import simplify
from .syntax import (
    FALSE,
    TRUE,
    And,
    F,
    FalseFormula,
    Formula,
    G,
    Letter,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    W,
    X,
    iff,
    implies,
    nnf_over_alphabet,
    sym,
)
from .translate import translate

__all__ = [
    "Formula",
    "TrueFormula",
    "FalseFormula",
    "TRUE",
    "FALSE",
    "Letter",
    "sym",
    "Not",
    "And",
    "Or",
    "Next",
    "Until",
    "Release",
    "X",
    "F",
    "G",
    "W",
    "implies",
    "iff",
    "nnf_over_alphabet",
    "parse",
    "ParseError",
    "satisfies",
    "evaluate_positions",
    "language_of",
    "models_within",
    "translate",
    "classify",
    "Classification",
    "PropertyClass",
    "rem_examples",
    "classify_rem_examples",
    "RemExample",
    "is_syntactically_safe",
    "is_syntactically_cosafe",
    "syntactic_class",
    "simplify",
]
