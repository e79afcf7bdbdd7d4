"""Spans and counts for the traced benchmark run.

The benchmark records one span around each public call it makes into
ovflow, from its own code; nothing inside ``src/`` is instrumented. Cost
objects are inputs to the program, so in a traced pass the benchmark hands
the program a ``CountingCost`` in place of each cost. Cost calls are far too
many to keep as spans (about 150k per sweep pass), so they are aggregated as
(calls, seconds) per method and per enclosing span.

An untraced pass uses ``NullTracer``, whose ``call`` is a plain call and
whose ``cost`` returns the cost unchanged.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# Spans whose self time is the flow integrator's work: solver loop,
# pack/unpack, layer products and trajectory assembly, plus the cost calls
# made inside them. flow.us_per_field divides it by their cost.gradient calls.
INTEGRATING_SPANS = ("flow.sweep", "flow.integrate")

COST_METHODS = ("value", "gradient", "deriv")


class NullTracer:
    """Tracing off: public calls and cost objects pass straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def cost(self, cost):
        return cost


class CountingCost:
    """Stands in for a cost object. Calls to the cost methods are counted
    and timed by the tracer; every other attribute comes from the wrapped
    cost. A scalar cost's ``as_matrix`` adapts the wrapper itself, so the
    ``deriv`` calls made inside ``integrate`` are counted too."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        for method in COST_METHODS:
            if hasattr(inner, method):
                setattr(self, method, tracer.timed(f"cost.{method}", getattr(inner, method)))
        if hasattr(inner, "as_matrix"):
            self.as_matrix = lambda: tracer.scalar_adapter(self)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Spans of one traced pass, kept in memory.

    A span is [name, start, end, parent index]; the run id is the pass
    number. ``scalar_adapter`` is ovflow's ``ScalarMatrixCost``.
    """

    def __init__(self, run_id: int, scalar_adapter):
        self.run_id = run_id
        self.scalar_adapter = scalar_adapter
        self.spans: list[list] = []
        self._open: list[int] = []
        self._wrapped: dict[int, CountingCost] = {}
        self.cost_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.cost_seconds: dict[tuple[str, str], float] = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def cost(self, cost):
        wrapped = self._wrapped.get(id(cost))
        if wrapped is None:
            wrapped = self._wrapped[id(cost)] = CountingCost(cost, self)
        return wrapped

    def timed(self, name: str, fn):
        calls, seconds, spans, open_ = self.cost_calls, self.cost_seconds, self.spans, self._open
        clock = time.perf_counter

        def counted(*args):
            start = clock()
            out = fn(*args)
            key = (name, spans[open_[-1]][0] if open_ else "")
            seconds[key] += clock() - start
            calls[key] += 1
            return out

        return counted

    def records(self) -> list[dict]:
        return [
            {"run": self.run_id, "name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Busy and self seconds per span name, cost seconds and calls per
        method, and flow.us_per_field. Returns (times, counts)."""
        times: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            times[f"{name}.s"] += end - start
            times[f"{name}.self_s"] += end - start - covered
        counts: dict[str, int] = defaultdict(int)
        for (method, _), n in self.cost_calls.items():
            counts[f"{method}.calls"] += n
        for (method, _), s in self.cost_seconds.items():
            times[f"{method}.s"] += s
        field_calls = sum(self.cost_calls.get(("cost.gradient", span), 0) for span in INTEGRATING_SPANS)
        field_self = sum(times.get(f"{span}.self_s", 0.0) for span in INTEGRATING_SPANS)
        times["flow.us_per_field"] = 1e6 * field_self / field_calls if field_calls else 0.0
        return dict(times), dict(counts)


def median_times(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each time, a missing span counting as 0."""
    names = {name for times in per_pass for name in times}
    return {name: statistics.median(times.get(name, 0.0) for times in per_pass) for name in names}
