"""The repository benchmark: four seeded workloads, one result line.

Run from anywhere inside a checkout::

    python3 perfbench/run.py --workload rv-fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` builds the system (three times; set-up time is their
median), then runs the workload closed-loop for ``--seconds`` seconds of
op time and prints the end-to-end metrics.  ``--trace 1`` builds once
and alternates untraced and traced slices of the same op stream, wraps
each layer's entry points during the traced slices (``spans.py``), and
prints the per-layer metrics plus the tracing overhead; it also writes
the spans to ``.perfbench/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it stamp the environment and summarize.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 3
#: Untimed ops before the timed pass, in seconds of op time: lazy state
#: (first-touched sessions, interned keys) is built before timing.
WARMUP_S = 1.0
TRACE_SLICES = 10
#: A pass stops after this many times ``--seconds`` of wall time even
#: when its op time is short (slow output checks must not hang a run).
WALL_CAP = 4.0

END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
              "peak_rss_mb")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


# -- environment -------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- measuring ---------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts from now on,
    to one CPU; returns it.

    A closed loop hands each request from thread to thread and process
    to process.  Spread over the CPUs of a shared host, every hand-off
    waits for another virtual CPU to be scheduled, and that wait, not
    the program, set the figures: in five back-to-back pairs of runs,
    ``service-sharded`` did 167 to 427 req/s unpinned and 499 to 654
    pinned (see README.md)."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Pass:
    """What one or more measured slices saw."""

    def __init__(self):
        self.latencies: list[float] = []
        self.service_seconds: list[float] = []
        self.busy = 0.0
        self.units = 0
        self.failed = 0

    def record(self, elapsed: float, units: int) -> None:
        self.busy += elapsed
        self.latencies.append(elapsed)
        self.units += units

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Units over the whole pass's op time.  The host's speed drifts
        in spells of several seconds; a whole-run figure averages over
        them, where a median of short windows follows whichever spell
        covers most of the run."""
        return self.units / self.busy

    def percentile_ms(self, q: float) -> float:
        """The ``q`` quantile of every op latency of the pass."""
        return _percentile(self.latencies, q) * 1e3


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload, seconds: float, first: int, into: Pass,
            recorder=None) -> int:
    """Run ops ``first, first+1, …`` until their op time reaches
    ``seconds`` and the ops done are a whole number of
    ``workload.op_multiple``; returns the next op index.  Only
    ``workload.op`` is timed, and only it is traced when a ``recorder``
    is given."""
    perf = time.perf_counter
    wall_end = perf() + WALL_CAP * seconds + 5.0
    busy = 0.0
    i = first
    while (busy < seconds or (i - first) % workload.op_multiple) \
            and perf() < wall_end:
        x = workload.prepare(i)
        if recorder is not None:
            recorder.active = True
        started = perf()
        try:
            result = workload.op(x)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            elapsed = perf() - started
            result = exc
            ok = False
        else:
            elapsed = perf() - started
            ok = True
        if recorder is not None:
            recorder.active = False
        busy += elapsed
        service = getattr(result, "elapsed_seconds", None)
        if service is not None:
            into.service_seconds.append(service)
        if ok and workload.check(i, x, result):
            into.record(elapsed, workload.units(x))
        else:
            into.record(elapsed, 0)
            into.failed += 1
        i += 1
    return i


def set_up(workload, k: int) -> float:
    prepared = workload.setup_inputs(k)
    gc.collect()
    started = time.perf_counter()
    workload.setup(k, prepared)
    return time.perf_counter() - started


def plain_run(workload, seconds: float) -> tuple[dict, int, int]:
    setups = []
    try:
        for k in range(SETUPS):
            if k:
                workload.teardown()
            setups.append(set_up(workload, k))
        warmup, measured = Pass(), Pass()
        ops = measure(workload, WARMUP_S, 0, warmup)
        gc.collect()
        ops = measure(workload, seconds, ops, measured)
        failed_checks = workload.finish(ops)
        rss = workload.peak_rss_mb()
    finally:
        workload.teardown()
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": measured.ops_per_s(),
        "latency_p50_ms": measured.percentile_ms(0.50),
        "latency_p90_ms": measured.percentile_ms(0.90),
        "peak_rss_mb": rss,
    }
    return ({name: {"value": metrics[name], "unit": UNITS[name]}
             for name in END_TO_END},
            warmup.ops + measured.ops,
            warmup.failed + measured.failed + failed_checks)


# -- the traced run ----------------------------------------------------------


def traced_run(workload, seconds: float, env: dict):
    from spans import SpanRecorder
    import layers

    recorder = SpanRecorder()
    setup_recorder = SpanRecorder(overhead_s=recorder.overhead_s)
    untraced, traced = Pass(), Pass()
    try:
        setup_recorder.install()
        setup_recorder.active = True
        try:
            set_up(workload, 0)
        finally:
            setup_recorder.active = False
            setup_recorder.uninstall()
        before = layers.counters(workload)
        i = 0
        for index in range(TRACE_SLICES):
            if index % 2:
                recorder.install()
                try:
                    i = measure(workload, seconds / TRACE_SLICES, i, traced,
                                recorder)
                finally:
                    recorder.uninstall()
            else:
                i = measure(workload, seconds / TRACE_SLICES, i, untraced)
        after = layers.counters(workload)
        failed_checks = workload.finish(i)
        summary = recorder.summary()
        metrics = layers.per_layer(workload, summary, recorder, untraced,
                                   traced, before, after,
                                   setup_recorder.summary())
    finally:
        workload.teardown()
    missing = [name for name in workload.expected
               if summary.get(name, {}).get("calls", 0) == 0]
    if workload.name == "rv-fleet" and not setup_recorder.calls("rv.compile"):
        missing.append("rv.compile")
    write_trace(workload, env, summary, recorder, metrics)
    if missing:
        raise SystemExit(
            f"traced run of {workload.name}: no calls recorded for "
            f"{', '.join(missing)}"
        )
    ops = untraced.ops + traced.ops
    return metrics, ops, untraced.failed + traced.failed + failed_checks


def write_trace(workload, env, summary, recorder, metrics) -> None:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{workload.seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "env": env,
        "layers": summary,
        "metrics": metrics,
        "wrapper_overhead_s": recorder.overhead_s,
        "spans_recorded": sum(row["calls"] for row in summary.values()),
        "spans": recorder.dump(),
    }))


# -- the command line --------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; one table of the results."""
    from workloads import WORKLOADS

    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} "
                     "or all")
    env = environment()
    env["cpu"] = pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, ops, failed = traced_run(workload, args.seconds, env)
    else:
        metrics, ops, failed = plain_run(workload, args.seconds)
    attempted = ops
    print("env " + json.dumps(env))
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"ops={ops} failed={failed} failed_share={failed / attempted:.4f}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
