"""Child process that runs one workload with one closed-loop caller.

Usage (normally started by run.py):
    python3 bench/worker.py --workload deep --seed 1 --seconds 35 --trace 0

It imports hilb2 from the checkout's src/, builds the workload's inputs,
runs whole passes until --seconds have gone by, and prints one JSON object
with the timings, the failure counts and, with --trace 1, the layer
totals. Every answer is checked.

Timing statistics. A shared host changes the speed of its cores by 1.5x
and more, in phases that can cover a whole run, so a wall time in seconds
moves from run to run with the phase the run met. Every operation is
therefore followed by one call of `reference`, a fixed interpreter-bound
computation that does not touch the program, and each operation's wall
time is divided by the mean of the reference times just before and just
after it. The result is the operation's cost in "ref", multiples of what
the reference takes on the same core at the same moment; the phases cancel
out of it. Each operation of a pass is one kind. From the normalized
samples:
    pass_ref      the sum over kinds of each kind's median: one pass
    ops_per_kref  operations completed per pass, per 1000 ref of pass_ref
    op_p50_ref    the median over kinds of each kind's median
    op_tail_ref   over the kinds' medians, the highest percentile with at
                  least ten kinds beyond it (the slowest kind when there
                  are ten kinds or fewer)
The median pass in seconds and the median reference time are reported
beside them. setup_s, the time to `import hilb2` timed inside a fresh
interpreter, is the median of SETUP_PROBES probes spread evenly over the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from statistics import median
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 15
REFERENCE_ENTRIES = 4000
PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import hilb2
elapsed = time.perf_counter() - start
if not hilb2.__file__.startswith({src!r}):
    sys.exit("hilb2 was not imported from " + {src!r})
print(elapsed)
"""


def reference() -> int:
    """The unit of cost: a fixed mix of the interpreter work the program
    does (dict and set updates, tuple and frozenset keys, int arithmetic, a
    sort) over a few thousand entries; a few milliseconds on one core."""
    rows: dict = {}
    for i in range(REFERENCE_ENTRIES):
        key = (i * 2654435761) & 0xFFFFF
        rows[key] = rows.get(key, 0) ^ i
    seen = {frozenset((k & 15, k >> 12)) for k in rows}
    acc = len(seen)
    for k in sorted(rows):
        acc = (acc * 31 + rows[k]) % 1000003
    return acc


def time_reference() -> float:
    """Wall seconds of one reference call, with the collector held off so
    that it does not charge the program's garbage to the reference."""
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        gc.enable()


class Passes:
    """Timings and outcomes of the passes of one run."""

    def __init__(self, ops: list, seed: int):
        self.ops = ops
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: dict = {}  # label -> (count, first description)
        self.labels: list = []  # operation id -> label
        self.walls: list = []  # wall seconds of every plain pass
        self.refs: list = []  # wall seconds of every reference call
        self.last_ref = time_reference()

    def run(self, tracer=None) -> list:
        """One pass in a seeded order; returns the normalized cost in ref of
        each kind, indexed like self.ops. Each call is followed by a check,
        untimed, and a timed reference call."""
        costs = [0.0] * len(self.ops)
        wall = 0.0
        for kind in self.rng.sample(range(len(self.ops)), len(self.ops)):
            op, op_id = self.ops[kind], len(self.labels)
            self.labels.append(op.label)
            self.attempted += 1
            scope = tracer.operation(op_id) if tracer else nullcontext()
            result, error = None, None
            start = perf_counter()
            try:
                with scope:
                    result = op.call()
            except Exception as exc:  # an uncaught program error is a failed op
                error = exc
            elapsed = perf_counter() - start
            if error is not None:
                self._fail(op.label, "".join(traceback.format_exception_only(error)).strip())
            else:
                problem = op.check(result)
                if problem:
                    self.wrong += 1
                    self._fail(op.label, "wrong answer: " + problem)
            ref = time_reference()
            self.refs.append(ref)
            costs[kind] = elapsed / ((self.last_ref + ref) / 2)
            self.last_ref = ref
            wall += elapsed
        if tracer is None:
            self.walls.append(wall)
        return costs

    def _fail(self, label: str, what: str) -> None:
        self.failed += 1
        count, first = self.problems.get(label, (0, what))
        self.problems[label] = (count + 1, first)


def kind_medians(passes: list) -> list:
    """Per kind, the median cost over the given passes."""
    return [median(column) for column in zip(*passes)]


def tail(values: list) -> tuple:
    """(value, percentile, count): the highest percentile with at least ten
    values beyond it, or the largest value when there are ten or fewer."""
    ordered = sorted(values)
    m = len(ordered)
    if m <= 10:
        return ordered[-1], 100.0, m
    return ordered[m - 11], 100.0 * (m - 10) / m, m


def probe_import() -> float:
    """Seconds to import hilb2, timed inside a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", PROBE.format(src=SRC + os.sep)],
                          stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(done.stdout)


def measure(passes: Passes, seconds: float, tracer=None) -> tuple:
    """Whole passes until `seconds` have gone by: (plain, traced) lists of
    per-kind costs and the import probes taken between passes. With a
    tracer, traced passes alternate with plain ones so both meet the same
    phases of the machine."""
    plain, traced, setup = [], [], []
    begin = perf_counter()
    while True:
        elapsed = perf_counter() - begin
        if elapsed >= seconds and plain and (tracer is None or traced):
            break
        if elapsed >= len(setup) * seconds / SETUP_PROBES and len(setup) < SETUP_PROBES:
            setup.append(probe_import())
            passes.last_ref = time_reference()
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(passes.run(tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(passes.run())
    while len(setup) < SETUP_PROBES:
        setup.append(probe_import())
    return plain, traced, setup


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path[:0] = [SRC, BENCH]
    import hilb2
    if not os.path.abspath(hilb2.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hilb2 was imported from {hilb2.__file__}, not {SRC}")
    import hilb2.cli  # the package does not import its front end

    import layers
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tracer = layers.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        ladder, ops = workloads.build(args.workload, hilb2, args.seed, scratch)
        passes = Passes(ops, args.seed)
        plain, traced, setup = measure(passes, args.seconds, tracer)

    kinds = kind_medians(plain)
    pass_ref = sum(kinds)
    completed = len(ops) - passes.failed / (len(plain) + len(traced))
    value, pct, count = tail(kinds)
    result = {
        "workload": args.workload,
        "passes": len(plain),
        "ops_per_pass": len(ops),
        "attempted": passes.attempted,
        "failed": passes.failed,
        "wrong": passes.wrong,
        "problems": {k: list(v) for k, v in passes.problems.items()},
        "known_failures": workloads.KNOWN_FAILURES,
        "setup_s": median(setup),
        "setup_samples": len(setup),
        "pass_ref": pass_ref,
        "ops_per_kref": 1000 * completed / pass_ref,
        "op_p50_ref": median(kinds),
        "op_tail_ref": value,
        "tail_percentile": pct,
        "tail_kinds": count,
        "pass_median_s": median(passes.walls),
        "ref_median_ms": 1000 * median(passes.refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        metrics = tracer.metrics(len(traced), len(ops))
        metrics.update((k, (v, "count")) for k, v in workloads.input_counts(ladder).items())
        metrics["trace.overhead_frac"] = (sum(kind_medians(traced)) / pass_ref, "ratio")
        result["layers"] = metrics
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, passes.labels)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
