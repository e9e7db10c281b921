"""The four workloads: set-up, one closed-loop op, and output checks.

Every workload drives the program through its public API from one
caller that waits for each reply (a closed loop).  The harness in
``run.py`` times ``setup`` and ``op``; ``setup_inputs``, ``prepare`` and
``check`` run outside every timed span.
"""

from __future__ import annotations

import tracemalloc

import inputs
from repro.analysis import decompose
from repro.analysis.classify import classify_formula
from repro.buchi.decomposition import BuchiDecomposition
from repro.buchi.random_automata import random_lasso
from repro.ltl import parse
from repro.ops.journal import JOURNAL
from repro.rv.compile import CompileCache, compile_formula
from repro.rv.engine import RvEngine
from repro.service import Client

HORIZON = 6


def _vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident memory of a process (VmHWM), in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Workload:
    """The interface ``run.py`` drives (see the module docstring)."""

    name = ""
    #: Span metrics the traced run must see called at least once.
    expected: tuple = ()
    #: A measured pass does a whole number of this many ops, so every
    #: pass holds the same mix of inputs.
    op_multiple = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup_inputs(self, k: int):
        """Inputs of the k-th set-up, built before its timer starts."""
        raise NotImplementedError

    def setup(self, k: int, prepared) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, i: int, x, result) -> bool:
        raise NotImplementedError

    def units(self, x) -> int:
        """Units of ``ops_per_s`` one op completes."""
        return 1

    def finish(self, ops: int) -> int:
        """Post-run checks over everything ``ops`` ops did; returns the
        number of failed checks."""
        return 0

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb()


# -- the service workloads ---------------------------------------------------


def _fingerprint(value):
    """What a reply must equal.  Decompositions compare up to state
    renaming (canonical keys of all three automata): a cache line may
    hold the answer for an isomorphic copy of the subject, and another
    process numbers the states of a translated formula differently."""
    if isinstance(value, BuchiDecomposition):
        return tuple(part.canonical_key() for part in
                     (value.original, value.safety, value.liveness))
    return value


class ServiceHot(Workload):
    name = "service-hot"
    expected = ("client.call", "service.submit", "service.key",
                "service.lookup", "canonical.key")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.working_set = inputs.WorkingSet(seed)
        self.entries = self.working_set.copy(0)
        self.references = [
            _fingerprint(self._direct(verb, subject, alphabet))
            for verb, subject, alphabet in self.entries
        ]
        self.verified: dict[int, object] = {}
        self.client = None

    @staticmethod
    def _direct(verb, subject, alphabet):
        if verb == "classify":
            return classify_formula(subject, alphabet)
        if alphabet is None:
            return decompose(subject)
        return decompose(subject, alphabet=alphabet)

    @staticmethod
    def _call(client, verb, subject, alphabet):
        method = client.classify if verb == "classify" else client.decompose
        if alphabet is None:
            return method(subject)
        return method(subject, alphabet=alphabet)

    def _client(self):
        return Client.in_process(workers=0)

    def setup_inputs(self, k: int):
        return self.working_set.copy(k + 1)

    def setup(self, k: int, prepared) -> None:
        self.client = self._client()
        for verb, subject, alphabet in prepared:
            self._call(self.client, verb, subject, alphabet)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def prepare(self, i: int):
        draws = self.working_set.draws
        return draws[i % len(draws)]

    def op(self, index):
        verb, subject, alphabet = self.entries[index]
        return self._call(self.client, verb, subject, alphabet)

    def check(self, i: int, index, reply) -> bool:
        if not reply.cached:
            return False
        value = reply.value
        seen = self.verified.get(index)
        if seen is not None and (value is seen or value == seen):
            return True
        if _fingerprint(value) != self.references[index]:
            return False
        self.verified[index] = value
        return True



class ServiceSharded(ServiceHot):
    name = "service-sharded"
    expected = ("client.call", "router.submit", "router.route_key",
                "wire.encode", "wire.frame", "wire.decode", "service.key",
                "canonical.key")

    def _client(self):
        return Client.sharded(shards=2, workers_per_shard=1,
                              default_timeout=60.0)

    def peak_rss_mb(self) -> float:
        pids = self.client.transport.service.shard_pids()
        return _vm_hwm_mb() + sum(_vm_hwm_mb(str(pid)) for pid in pids)


# -- decompose-cold ----------------------------------------------------------


class DecomposeCold(Workload):
    name = "decompose-cold"
    expected = ("client.call", "service.submit", "service.key",
                "service.lookup", "service.compute", "canonical.key",
                "analysis.decompose", "buchi.closure", "buchi.complement",
                "buchi.union", "automata.kernel")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sequence = inputs.ColdSequence(seed)
        self.op_multiple = self.sequence.round_len
        #: (safety states, liveness states) of the first round's ops.
        self.first_round: dict[int, tuple[int, int]] = {}
        self.client = None

    def setup_inputs(self, k: int):
        return self.sequence.warm(k)

    def setup(self, k: int, prepared) -> None:
        self.client = Client.in_process(workers=0)
        for automaton in prepared:
            self.client.decompose(automaton)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def prepare(self, i: int):
        rng = inputs.seeded(self.seed, 8, i)
        automaton = self.sequence.automaton(i)
        lassos = [random_lasso(rng, sorted(automaton.alphabet), 2, 2)
                  for _ in range(4)]
        return automaton, lassos

    def op(self, x):
        return self.client.decompose(x[0])

    def check(self, i: int, x, reply) -> bool:
        if reply.cached or reply.key is None:
            return False
        value = reply.value
        if i < self.sequence.round_len:
            self.first_round[i] = (len(value.safety.states),
                                   len(value.liveness.states))
        return all(value.verify_on_word(word) for word in x[1])


# -- rv-fleet ----------------------------------------------------------------


class RvFleet(Workload):
    name = "rv-fleet"
    expected = ("rv.ingest", "rv.drain", "rv.admit", "rv.group",
                "ops.journal")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.fleet = inputs.Fleet(seed)
        self.op_multiple = inputs.RV_POOL
        self.alphabet = frozenset(inputs.RV_ALPHABET)
        self.engine = None
        self.touched: list[int] = []

    def setup_inputs(self, k: int):
        return [parse(text) for text in inputs.RV_POLICIES]

    def setup(self, k: int, prepared) -> None:
        self.engine = engine = RvEngine(workers=0, horizon=HORIZON,
                                        cache=CompileCache())
        for sid, policy in enumerate(self.fleet.policy_of):
            engine.open_session(sid, prepared[policy], self.alphabet)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
            self.engine = None

    def prepare(self, i: int):
        return self.fleet.batch(i)

    def op(self, batch):
        return self.engine.ingest(batch)

    def units(self, batch) -> int:
        return len(batch)

    def check(self, i: int, batch, verdicts) -> bool:
        self.touched.append(len(verdicts))
        return bool(verdicts)

    def finish(self, ops: int) -> int:
        """Replay each sampled session's ingested prefix through the
        one-shot monitor and compare the four-valued verdicts."""
        failed = 0
        prefixes = self.fleet.prefixes(self.fleet.sample, ops)
        for sid, events in prefixes.items():
            formula = parse(inputs.RV_POLICIES[self.fleet.policy_of[sid]])
            replay = compile_formula(formula, self.alphabet).run_finitary(
                events, horizon=HORIZON)
            if replay.verdict is not self.engine.sessions.get(sid).verdict4:
                failed += 1
        return failed

    def counters(self) -> dict:
        snapshot = self.engine.snapshot()
        return {
            "events": snapshot["events"],
            "steps": snapshot["steps"],
            "transitions": sum(snapshot["verdicts4"].values()),
            "journal": JOURNAL.stats()["emitted"],
        }

    def session_bytes(self, count: int = 2000) -> float:
        """Bytes per open session (tracemalloc, outside any timed pass)."""
        engine = RvEngine(workers=0, horizon=HORIZON)
        formula = parse(inputs.RV_POLICIES[0])
        engine.compile(formula, self.alphabet)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for sid in range(count):
                engine.open_session(sid, formula, self.alphabet)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            engine.shutdown()
        return (after - before) / count


WORKLOADS = {
    cls.name: cls
    for cls in (ServiceHot, ServiceSharded, DecomposeCold, RvFleet)
}
