"""Warm start: pre-populate the service cache from a workload file.

A deployment that restarts cold recomputes its whole working set on the
first wave of traffic.  The fix is the same one ``ncl``-style closure
tables use — replay a recorded workload before serving:

.. code-block:: json

    {"version": 1,
     "requests": [
       {"kind": "decompose", "formula": "G a", "alphabet": ["a", "b"]},
       {"kind": "classify",  "formula": "F a", "alphabet": ["a", "b"]},
       {"kind": "check",     "formula": "a U b", "alphabet": ["a", "b"]}
     ]}

Entries are LTL-based (the one request family with a portable text
serialization — automata and lattices are constructed in code, so their
warm-up happens naturally by submitting them).  Formulas are parsed with
:func:`repro.ltl.parser.parse`; unknown kinds or unparseable formulas
raise :class:`WarmupError` with the offending entry's index, rather than
silently warming a partial cache.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import MappingProxyType

from repro.ltl.parser import parse

from .requests import (
    CheckRequest,
    ClassifyRequest,
    DecomposeRequest,
    MonitorRequest,
    Request,
)

_REQUEST_OF = MappingProxyType({
    "decompose": DecomposeRequest,
    "classify": ClassifyRequest,
    "check": CheckRequest,
    "monitor": MonitorRequest,
})


class WarmupError(ValueError):
    """A workload file entry could not be replayed."""


def load_workload_data(source) -> dict:
    """Coerce ``source`` — a path to a JSON file, a JSON string, or an
    already-decoded dict — into the raw workload dict.

    This is the form the sharded router replicates to its workers: raw
    JSON-shaped data travels over the wire, and each shard parses it
    locally with :func:`parse_workload`."""
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle)
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
    if not isinstance(data, dict) or "requests" not in data:
        raise WarmupError("workload must be a dict with a 'requests' list")
    return data


def parse_workload(data: dict) -> list[Request]:
    """Decode a raw workload dict into request objects."""
    if not isinstance(data, dict) or "requests" not in data:
        raise WarmupError("workload must be a dict with a 'requests' list")
    requests = []
    for index, entry in enumerate(data["requests"]):
        kind = entry.get("kind")
        request_type = _REQUEST_OF.get(kind)
        if request_type is None:
            raise WarmupError(
                f"requests[{index}]: unknown kind {kind!r} "
                f"(expected one of {sorted(_REQUEST_OF)})"
            )
        if "formula" not in entry or "alphabet" not in entry:
            raise WarmupError(
                f"requests[{index}]: workload entries need 'formula' and "
                f"'alphabet'"
            )
        try:
            formula = parse(entry["formula"])
        except Exception as exc:
            raise WarmupError(
                f"requests[{index}]: cannot parse formula "
                f"{entry['formula']!r}: {exc}"
            ) from exc
        kwargs: dict = {}
        if request_type is MonitorRequest:
            # Monitor entries may carry a trace and a horizon; a bare
            # entry (no events) still warms the shard's compiled-monitor
            # cache for the policy, which is the expensive part.
            kwargs["events"] = tuple(entry.get("events", ()))
            if entry.get("horizon") is not None:
                kwargs["horizon"] = int(entry["horizon"])
        requests.append(
            request_type(
                subject=formula, alphabet=frozenset(entry["alphabet"]),
                **kwargs,
            )
        )
    return requests


def load_workload(source) -> list[Request]:
    """Parse a workload into request objects.

    ``source`` may be a path to a JSON file, a JSON string, or an
    already-decoded dict of the documented shape."""
    return parse_workload(load_workload_data(source))


def replay_workload(service, requests) -> int:
    """Replay parsed requests through ``service`` synchronously,
    populating its cache; returns the number of requests replayed.
    Deadlines are deliberately not applied — a warm start wants every
    answer."""
    count = 0
    for request in requests:
        service.submit(request).result()
        count += 1
    return count


def random_workload(
    seed: int,
    count: int = 8,
    n_states: int = 5,
    alphabet=("a", "b"),
) -> list[Request]:
    """A reproducible automaton workload: ``count`` decompose requests
    over seeded random Büchi automata (:mod:`repro.buchi.random_automata`).

    Automata have no portable text serialization, so they cannot live in
    a JSON workload file; this builder fills that gap for benchmarks and
    warm-start tests — the same ``seed`` yields byte-identical requests
    on every run."""
    import random

    from repro.buchi.random_automata import random_automaton

    rng = random.Random(seed)
    return [
        DecomposeRequest(
            subject=random_automaton(rng, n_states, alphabet, name=f"W{i}")
        )
        for i in range(count)
    ]
