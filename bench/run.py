"""Benchmark of the hilb2 pipeline: one command per workload.

    python3 bench/run.py --workload deep --seed 1 --seconds 35 --trace 0

Workloads: deep, wide, cli-mix (see workloads.py), or all of them in turn.
Run from a checkout: the program is imported from ./src. Each workload
runs in its own child process (worker.py) with one closed-loop caller, and
every answer is checked against an independent oracle. The lines printed
name each metric with its unit; the last line is one JSON object,
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.

Operation costs are in "ref": each call's wall time over that of a fixed
reference computation timed right beside it, so that the host's changes of
speed cancel; worker.py says how. setup_s is the time to `import hilb2` in
a fresh interpreter, timed inside it, the median of the probes spread over
the run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 170

END_TO_END = (("pass_ref", "ref"), ("ops_per_kref", "1/kref"), ("op_p50_ref", "ref"),
              ("op_tail_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run worker.py for one workload to completion; return its result."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(r: dict, trace: int) -> dict:
    """Print the human-readable block for one workload; return its metrics."""
    print(f"workload {r['workload']}: {r['passes']} timed passes of "
          f"{r['ops_per_pass']} operations")
    if trace:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in r["layers"].items()}
    else:
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"  1 ref = the reference computation, median {r['ref_median_ms']:.6g} ms "
              f"in this run; op_tail_ref is p{r['tail_percentile']:.2f} of "
              f"{r['tail_kinds']} operations' medians")
        print(f"  median pass wall time = {r['pass_median_s']:.6g} s; setup_s is the "
              f"median of {r['setup_samples']} imports")
    else:
        print(f"  spans written to {r['trace_file']}")
    print(f"  failed_frac = {r['failed'] / r['attempted']:.6g} "
          f"({r['failed']} of {r['attempted']} attempted, {r['wrong']} wrong answers)")
    for label, (count, what) in sorted(r["problems"].items()):
        known = " (known at the seed)" if label in r["known_failures"] else ""
        print(f"  failed {count}x {label}{known}: {what}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hilb2", "__init__.py")):
        print(f"error: no hilb2 sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    metrics = {}
    for w, r in results.items():
        for name, m in report(r, args.trace).items():
            metrics[name if len(names) == 1 else f"{w}.{name}"] = m
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
