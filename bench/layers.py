"""Outside-in layer trace: spans around the public functions of each module.

The tracer rebinds module attributes of the loaded ``hilb2`` package to
timing wrappers, wherever the original function object appears (so both
``hilb2.cli.catalog_text`` and ``hilb2.catalog.catalog_text`` are covered),
and puts the originals back on ``uninstall``. No program code changes.
Hot inner helpers (``steenrod.sq``, ``F2Vector.__add__``, ``e_multiply``)
stay unwrapped, so their cost lands in the caller's self time.

Spans are (name, start, end, parent index, operation id) tuples kept in
memory; ``write`` dumps them once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# module -> public functions traced, in the order the layers are reported
LAYERS = {
    "cli": ("main",),
    "catalog": ("catalog_text",),
    "spaces": ("parse_descriptor", "descriptor_violations"),
    "steenrod": ("validate",),
    "kernel": ("kernel_generators", "kernel_dimensions", "corollary_check",
               "redundant_degrees"),
    "gf2": ("span_dims_by_degree",),
    "exdiv": ("betti_exceptional",),
    "betti": ("betti_config", "betti_sym2_f2", "betti_hilb2_exact",
              "betti_hilb2_closed", "integral_sym2"),
    "verify": ("run_suite",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_rank: dict = {}  # operation id -> kernel rank seen in it
        self._stack: list = []
        self._op = None
        self._bound: list = []  # (namespace, attribute, original)

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hilb2" or name.startswith("hilb2.")]
        for qualified in FUNCTIONS:
            mod, fn = qualified.split(".")
            original = getattr(sys.modules[f"hilb2.{mod}"], fn)
            wrapper = self._wrap(qualified, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._bound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._bound):
            setattr(m, attr, original)
        self._bound.clear()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            if observe:
                observe(self, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id):
        """Root span of one benchmark operation; its self time is the time
        spent outside every traced function."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, None, op_id)
            self._op = None

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name; self time is a span's
        duration minus the durations of its direct children."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        return calls, self_s

    def metrics(self, passes: int, ops_per_pass: int) -> dict:
        """name -> (value, unit): calls per operation, self time per pass,
        and the kernel counts per pass with the useful ratio rank / nonzero."""
        calls, self_s = self.layer_totals()
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (calls[name] / (passes * ops_per_pass), "calls/op")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s/pass")
        out["op.self_s"] = (self_s[OP_SPAN] / passes, "s/pass")
        nonzero = self.counts["kernel.nonzero"] / passes
        rank = sum(self.op_rank.values()) / passes
        out["kernel.generators"] = (self.counts["kernel.generators"] / passes, "count/pass")
        out["kernel.nonzero"] = (nonzero, "count/pass")
        out["kernel.rank_total"] = (rank, "count/pass")
        out["kernel.useful_ratio"] = (rank / nonzero if nonzero else 0.0, "ratio")
        return out

    def write(self, path: str, labels: list) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"operations": labels}, fh)
            fh.write("\n")
            for name, start, end, parent, op in self.spans:
                json.dump({"name": name, "start": start, "end": end,
                           "parent": parent, "op": op}, fh)
                fh.write("\n")


def _count_generators(tracer: Tracer, gens) -> None:
    tracer.counts["kernel.generators"] += len(gens)
    tracer.counts["kernel.nonzero"] += sum(not g.is_zero for g in gens)


def _record_rank(tracer: Tracer, dims) -> None:
    op = tracer._op
    tracer.op_rank[op] = max(tracer.op_rank.get(op, 0), sum(dims.values()))


_OBSERVERS = {
    "kernel.kernel_generators": _count_generators,
    "kernel.kernel_dimensions": _record_rank,
}
