"""Smoke test of the smallest rung of each workload, traced.

    python3 -m pytest bench/test_smoke.py

Keeps the generators, the answer checks and the layer trace from rotting
without running the timed benchmark.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import hilb2  # noqa: E402
import hilb2.cli  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import tail  # noqa: E402


def _run_traced(ops):
    """Run each op once under the tracer; return (tracer, problems)."""
    tracer = layers.Tracer()
    problems = {}
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            try:
                with tracer.operation(op_id):
                    result = op.call()
            except Exception as exc:  # a known failure at the seed
                problems[op.label] = type(exc).__name__
                continue
            problem = op.check(result)
            if problem:
                problems[op.label] = problem
    finally:
        tracer.uninstall()
    return tracer, problems


def test_check_rungs_are_right_and_traced(tmp_path):
    for workload in ("deep", "wide"):
        _, ops = workloads.build(workload, hilb2, 3, str(tmp_path))
        smallest = ops[:1]  # ladders ascend
        tracer, problems = _run_traced(smallest)
        assert problems == {}
        calls, self_s = tracer.layer_totals()
        assert calls["spaces.descriptor_violations"] == 2
        assert calls["kernel.kernel_generators"] == 4
        assert calls["verify.run_suite"] == 1
        assert all(v >= 0 for v in self_s.values())
    # the originals are back once the tracer is uninstalled
    for fn in (hilb2.spaces.descriptor_violations, hilb2.steenrod.validate,
               hilb2.validate_module, hilb2.cli.catalog_text):
        assert not hasattr(fn, "__wrapped__")


def test_cli_mix_p1_and_rejections(tmp_path):
    _, ops = workloads.build("cli-mix", hilb2, 3, str(tmp_path))
    picked = [op for op in ops
              if "p1" in op.label.split() or op.label.startswith("reject")]
    assert len(picked) == 11 + 11
    tracer, problems = _run_traced(picked)
    # the only tolerated failures are the known ones, and only as tracebacks
    assert set(problems) <= set(workloads.KNOWN_FAILURES)
    assert set(problems.values()) <= {"RecursionError", "UnicodeDecodeError"}
    calls, _ = tracer.layer_totals()
    assert calls["cli.main"] == len(picked)
    # cli.catalog_text is an alias of catalog.catalog_text and is traced too
    assert calls["catalog.catalog_text"] > 0


def test_oracles_agree_on_projective_space():
    for n in range(1, 33):
        b = [1 if k % 2 == 0 else 0 for k in range(2 * n + 1)]
        assert oracle.hilb2_projective(n) == oracle.hilb2_closed(b, n)


def test_tail_keeps_ten_samples_beyond():
    value, pct, m = tail(list(range(100)))
    assert (value, m) == (89, 100) and pct == 90.0
    assert sum(x > value for x in range(100)) == 10
