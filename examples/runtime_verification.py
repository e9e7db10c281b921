"""Three-valued runtime verification — the RV face of safety/liveness.

A monitor watching a finite trace can conclude FALSE only by seeing a
*bad prefix* (safety content) and TRUE only by seeing a bad prefix of
the negation (co-safety content); pure liveness like GF a never leaves
UNKNOWN.  The verdict machinery is exactly the Alpern–Schneider closure
of the formula automaton and of its negation: ``compile_formula``
decomposes both and steps the product of their safety closures.

Run:  python examples/runtime_verification.py
"""

from repro.ltl import parse, syntactic_class
from repro.rv import TraceSession, compile_formula

SPECS = [
    "G a",            # safety: falsifiable, never verifiable
    "F b",            # co-safety: verifiable, never falsifiable
    "a",              # present-only: both
    "GF a",           # liveness: never either — unmonitorable
    "G (a -> X b)",   # safety with a one-step window
]

TRACES = ["", "a", "ab", "abab", "ba", "bb", "aaab"]

print(f"{'formula':16s} {'syntactic':10s} " + "".join(f"{t or 'ε':>7s}" for t in TRACES))
for text in SPECS:
    formula = parse(text)
    monitor = compile_formula(formula, "ab")
    cells = []
    for trace in TRACES:
        verdict = monitor.run(trace)
        cells.append({"true": "T", "false": "F", "unknown": "?"}[verdict.value])
    print(
        f"{text:16s} {syntactic_class(formula, 'ab'):10s} "
        + "".join(f"{c:>7s}" for c in cells)
    )

print("\nmonitorability from the initial state:")
for text in SPECS:
    session = TraceSession(text, compile_formula(parse(text), "ab"))
    print(f"  {text:16s} -> {session.monitorable}")

print("\nincremental session on G (a -> X b):")
session = TraceSession("s", compile_formula(parse("G (a -> X b)"), "ab"))
for event in "abaab":
    verdict = session.observe(event)
    print(f"  after {event!r} (step {session.position}): {verdict.value}")
