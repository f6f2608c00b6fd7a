"""A small parent/child span recorder and the wrappers that feed it.

The traced run times each layer from outside the program: it replaces
public functions and methods of each layer with wrappers that open a
span around the original call, and restores the originals afterwards.
Nothing here is imported by the program, and nothing is installed in an
untraced run.

Spans are kept in memory.  A span belongs to the operation (trace id)
that is current on its thread; calls made outside any operation -- in a
forked worker, or during set-up -- are passed straight through and not
recorded, so worker processes (replicas, pool and fleet workers) run
untraced.  Coroutine methods of the service run on the event-loop thread,
where several requests interleave, so they are recorded as *detached*
spans (no parent) and attached to their client operation afterwards by
time containment and request identity.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

import numpy


class Span:
    """One timed call: name, interval, parent, trace id and counts."""

    __slots__ = ("id", "parent", "trace", "name", "start", "end", "counts", "attrs")

    def __init__(self, span_id, parent, trace, name, start, attrs=None):
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.end = start
        self.counts: Dict[str, float] = {}
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "trace": self.trace,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class SpanRecorder:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # A forked worker inherits the forking thread's open op; forget it
        # there, so workers run their calls unrecorded and at full speed.
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._local = threading.local()

    def _stack(self) -> Optional[list]:
        return getattr(self._local, "stack", None)

    def begin_op(self, trace_id: Any) -> Span:
        """Open the root span of an operation on the calling thread."""
        span = Span(next(self._ids), None, trace_id, "op", time.perf_counter())
        self._local.stack = [span]
        return span

    def end_op(self, span: Span) -> Span:
        span.end = time.perf_counter()
        self._local.stack = None
        with self._lock:
            self.spans.append(span)
        return span

    def root(self, trace_id: Any, start: float, end: float) -> Span:
        """Record a finished operation that opened no child spans."""
        span = Span(next(self._ids), None, trace_id, "op", start)
        span.end = end
        with self._lock:
            self.spans.append(span)
        return span

    def enter(self, name: str) -> Optional[Span]:
        """Open a child of the current span, or ``None`` outside an op."""
        stack = self._stack()
        if not stack:
            return None
        parent = stack[-1]
        span = Span(next(self._ids), parent.id, parent.trace, name, time.perf_counter())
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def detached(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record a finished span that has no parent yet."""
        span = Span(next(self._ids), None, None, name, start, attrs)
        span.end = end
        with self._lock:
            self.spans.append(span)
        return span

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def _covered(intervals: Iterable[tuple], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


class _NumpyProxy:
    """Stands in for ``numpy`` inside one module, with ``convolve`` wrapped.

    numpy's names are copied into the instance, so every other ``np.``
    lookup costs what a module attribute lookup costs.
    """

    def __init__(self, convolve):
        self.__dict__.update(vars(numpy))
        self.convolve = convolve


class Tracer:
    """Installs span wrappers into the program and removes them again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[tuple] = []

    # -- generic wrapping ----------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Wrap ``owner.attr`` (a function or a method) in a span."""
        original = owner.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.enter(name)
            if span is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.exit(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        self._replace(owner, attr, wrapper)

    def wrap_detached(self, owner, attr: str, name: str, attrs_of) -> None:
        """Wrap a coroutine method; record a detached span per call."""
        original = owner.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.detached(name, start, time.perf_counter(), **attrs_of(args, kwargs))

        self._replace(owner, attr, wrapper)

    def wrap_numpy_convolve(self, module, name: str) -> None:
        """Route ``module.np.convolve`` through a counting span."""
        recorder = self.recorder

        def convolve(a, v, *args, **kwargs):
            span = recorder.enter(name)
            if span is None:
                return numpy.convolve(a, v, *args, **kwargs)
            try:
                result = numpy.convolve(a, v, *args, **kwargs)
            finally:
                recorder.exit(span)
            span.counts.update(
                calls=1, macs=len(a) * len(v), support=result.shape[-1]
            )
            return result

        self._replace(module, "np", _NumpyProxy(convolve))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- the layer wrappers --------------------------------------------

    def install(self) -> "Tracer":
        """Wrap the public entry points of every layer the table names."""
        import repro.adaptive
        from repro.adaptive import search as adaptive_search
        from repro.core import batched, kernels, markov_spatial, regions, report_dist
        from repro.distributed import orchestrator
        from repro.experiments import sweeps
        from repro.service import server, supervisor
        from repro.simulation import fused, runner

        def conv_counts(args, kwargs, result):
            a, b = numpy.shape(args[0]), numpy.shape(args[1])
            return {
                "calls": 1,
                "macs": a[0] * a[1] * b[1],
                "support": result.shape[-1],
            }

        for module in (kernels, batched):
            self.wrap(module, "batch_convolve", "kernel.convolve", conv_counts)
        self.wrap(batched, "batch_convolve_power", "kernel.convolve_power")
        for module in (markov_spatial, report_dist, batched):
            self.wrap_numpy_convolve(module, "kernel.np_convolve")

        for module in (markov_spatial, batched, regions):
            for attr in ("head_subareas", "body_subareas", "tail_subareas"):
                self.wrap(module, attr, "stage.subareas")
        for module in (batched, report_dist):
            self.wrap(module, "conditional_report_pmf", "stage.conditional_report_pmf")
        self.wrap(markov_spatial, "stage_report_pmf", "stage.stage_report_pmf")
        self.wrap(batched, "batched_binomial_pmf", "stage.batched_binomial_pmf")

        self.wrap(
            markov_spatial.MarkovSpatialAnalysis,
            "detection_probability",
            "engine.scalar",
        )
        self.wrap(
            batched.BatchedMarkovSpatialAnalysis,
            "detection_probability_grid",
            "engine.batched",
        )
        for module in (repro.adaptive, adaptive_search):
            self.wrap(module, "adaptive_minimum_sensors", "adaptive.search")

        def coverage_counts(args, kwargs, result):
            return {
                "pairs_tested": int(result.size),
                "pairs_covered": int(numpy.count_nonzero(result)),
            }

        for module in (runner, fused):
            self.wrap(module, "segment_coverage", "sim.coverage", coverage_counts)
            self.wrap(module, "sample_detections", "sim.bernoulli")
        self.wrap(runner.MonteCarloSimulator, "run", "sim.run")
        self.wrap(fused.FusedMonteCarloEngine, "run", "sim.fused_run")

        self.wrap(sweeps, "distributed_grid_sweep", "dist.sweep")
        self.wrap(sweeps, "analytical_grid_sweep", "parallel.sweep")
        self._replace(orchestrator, "LocalFleet", _traced_fleet(orchestrator.LocalFleet, self.recorder))

        self.wrap_detached(
            server.AnalysisService,
            "dispatch",
            "svc.dispatch",
            lambda args, kwargs: {"path": args[2], "body": args[3] if len(args) > 3 else b""},
        )
        self.wrap_detached(
            supervisor.ReplicaSupervisor,
            "submit",
            "svc.submit",
            lambda args, kwargs: {"key": args[1], "fn": args[2], "args": args[3:]},
        )
        return self


def _traced_fleet(base, recorder: SpanRecorder):
    """A ``LocalFleet`` that notes its first merged row and its metrics."""

    class TracedFleet(base):
        def __init__(self, *args, **kwargs):
            stack = recorder._stack()
            self._trace_span = stack[-1] if stack else None
            self._first_row = None
            user_progress = kwargs.pop("on_progress", None)

            def on_progress(done, total):
                if self._first_row is None:
                    self._first_row = time.perf_counter()
                if user_progress is not None:
                    user_progress(done, total)

            kwargs["on_progress"] = on_progress
            super().__init__(*args, **kwargs)

        def join(self, timeout=None):
            try:
                return super().join(timeout)
            finally:
                span = self._trace_span
                if span is not None:
                    counters, _ = self.metrics.snapshot()
                    span.counts["dist_shards"] = counters.get("shards", 0)
                    span.counts["dist_steals"] = counters.get("steals", 0)
                    if self._first_row is not None:
                        span.counts["dist_first_row_at"] = self._first_row

    TracedFleet.__name__ = base.__name__
    return TracedFleet
