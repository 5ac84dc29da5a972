"""Spans around the public functions of the spechtfan modules.

`Tracer.install` wraps every function a module lists in `__all__` and
defines itself, and rebinds each name wherever a loaded module of the
package holds it: modules bind names at import (`from .specht import
initial_ideal`), so patching only the defining module would miss most
calls. Each wrapper records a span (function, start, end, parent span) in
memory and, for a few functions, counts read off the returned object.
`summarize` turns the spans into calls, inclusive and self time per function.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Leaf helpers called per polynomial term (1.4M times in verify-n5): a span
# would cost more than the call itself, so their time stays in the caller.
UNTRACED = frozenset({"polyring.lex_key"})


def _count_minimalize(counts, args, kwargs, result):
    gens = args[0] if args else kwargs["gens"]
    if hasattr(gens, "__len__"):
        counts["specht.minimalize.gens_in"] += len(gens)
    counts["specht.minimalize.gens_out"] += len(result.min_gens)


def _count_fan(counts, args, kwargs, result):
    counts["fan.enumerate_fan.orders"] += result.total_orders
    counts["fan.enumerate_fan.classes"] += result.distinct_count


def _count_tableaux(counts, args, kwargs, result):
    counts["combinatorics.standard_tableaux.tableaux"] += len(result)


def _count_pairs(counts, args, kwargs, result):
    counts["oracle.certify_groebner.pairs_total"] += result.pairs_total
    counts["oracle.certify_groebner.pairs_skipped"] += result.pairs_skipped_coprime
    counts["oracle.certify_groebner.pairs_reduced"] += result.pairs_reduced


def _count_rows(counts, args, kwargs, result):
    counts["verify.run_verification.rows"] += len(result)


COUNTERS = {
    "specht.minimalize": _count_minimalize,
    "fan.enumerate_fan": _count_fan,
    "combinatorics.standard_tableaux": _count_tableaux,
    "oracle.certify_groebner": _count_pairs,
    "verify.run_verification": _count_rows,
}

COUNT_NAMES = (
    "specht.minimalize.gens_in",
    "specht.minimalize.gens_out",
    "fan.enumerate_fan.orders",
    "fan.enumerate_fan.classes",
    "combinatorics.standard_tableaux.tableaux",
    "oracle.certify_groebner.pairs_total",
    "oracle.certify_groebner.pairs_skipped",
    "oracle.certify_groebner.pairs_reduced",
    "verify.run_verification.rows",
)


class Tracer:
    """Span recorder for one process; spans stay in memory until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package: str) -> None:
        """Wrap the public functions of every loaded module of `package`."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and name not in UNTRACED
                ):
                    wrappers[fn] = self._wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def summarize(names: list[str], spans: list) -> dict[str, dict[str, float]]:
    """Calls, inclusive time and self time per function.

    Self time is a span's duration minus the durations of its direct child
    spans; calls in one thread nest, so the children never overlap. The
    inclusive time skips spans nested in a span of the same function.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i, (index, start, end, parent) in enumerate(spans):
        row = table[names[index]]
        row["calls"] += 1
        row["self_s"] += end - start - child[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != index:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total_s"] += end - start
    return table
