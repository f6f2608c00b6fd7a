"""Measurement helpers shared by the workloads.

The workloads all follow one shape: set up, then run whole *cycles* of
operations (a fixed mix, so every run measures the same composition)
until ``--seconds`` have passed, then check every answer.  This module
holds that loop, the host probes, the statistics, and the
per-layer aggregation of a traced run.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from tracing import Span, SpanRecorder, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


# Host probes.  The host's speed drifts with other tenants' load, by up
# to 1.7x over seconds to minutes (see ``workloads.md``).  A probe times
# a fixed piece of work that runs none of the program's code and returns
# the host's current *slowdown*: that time over the time the same work
# took on the host the bounds were set on (about its median there).  An
# operation's host-corrected time is its wall time over the slowdown
# measured just before it.

#: The CPU probe's time on the host the bounds were set on.
CPU_PROBE_REFERENCE_MS = 14.0

_CPU_PROBE_DATA = np.random.default_rng(0).random(50_000)


def cpu_slowdown() -> float:
    """The host's slowdown on computation: one pass of a fixed loop
    (numpy over a 50,000-element array, then a pure-Python sum)."""
    start = time.perf_counter()
    for _ in range(12):
        (np.sin(_CPU_PROBE_DATA) * _CPU_PROBE_DATA).sum()
    total = 0
    for i in range(80_000):
        total += i
    return (time.perf_counter() - start) * 1e3 / CPU_PROBE_REFERENCE_MS


@dataclass
class Op:
    """One timed operation and what it returned.

    ``slowdown`` is the host's slowdown measured just before the
    operation ran.
    """

    kind: str
    start: float
    end: float
    points: int
    output: Any = None
    span: Optional[Span] = None
    cycle: int = 0
    slowdown: float = 1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def corrected_seconds(self) -> float:
        return self.seconds / self.slowdown


@dataclass
class Phase:
    """The timed phase of one run.

    ``failures`` holds one reason per failed operation: one that raised
    (``errored``, not in ``ops``) or whose answer failed its check.
    """

    ops: List[Op]
    wall: float
    failures: List[str] = field(default_factory=list)
    errored: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.errored


def run_cycles(
    next_cycle: Callable[[], list],
    run_op: Callable[[Any], Op],
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
    prepare: Optional[Callable[[Any], None]] = None,
) -> Phase:
    """Run whole cycles until ``seconds`` have passed; time every op.

    ``prepare`` runs before each op outside its timing (for example to
    drop caches so every op pays its cold cost); the CPU probe runs
    after it, just before the op.
    """
    phase = Phase([], 0.0)
    start = time.perf_counter()
    cycle = 0
    while True:
        for item in next_cycle():
            if prepare is not None:
                prepare(item)
            slowdown = cpu_slowdown()
            span = recorder.begin_op(len(phase.ops)) if recorder is not None else None
            try:
                op = run_op(item)
            except Exception as exc:  # a refused or crashed op is a failed op
                phase.errored += 1
                phase.failures.append(f"{item!r} raised {exc!r}")
                continue
            finally:
                if span is not None:
                    recorder.end_op(span)
            if span is not None:
                span.start, span.end = op.start, op.end
                op.span = span
            op.cycle = cycle
            op.slowdown = slowdown
            phase.ops.append(op)
        cycle += 1
        if time.perf_counter() - start >= seconds:
            break
    phase.wall = time.perf_counter() - start
    return phase


def timed(kind: str, points: Callable[[Any], int], fn: Callable[[], Any]) -> Op:
    start = time.perf_counter()
    output = fn()
    end = time.perf_counter()
    return Op(kind, start, end, points(output), output)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(phase: Phase, tail_q: float, corrected: bool = True) -> Dict[str, float]:
    """The end-to-end metric values of an untraced phase, but ``setup_s``.

    Times are host-corrected, or, with ``corrected=False``, as the wall
    clock read them.  Throughputs are per second of operation time (the
    sum of the operations' times), so the probes between operations do
    not count.
    """
    seconds = [op.corrected_seconds if corrected else op.seconds for op in phase.ops]
    latencies_ms = [value * 1e3 for value in seconds]
    busy = sum(seconds)
    return {
        "latency_p50_ms": median(latencies_ms),
        "latency_tail_ms": percentile(latencies_ms, tail_q),
        "throughput_ops_per_s": len(phase.ops) / busy,
        "points_per_s": sum(op.points for op in phase.ops) / busy,
        "peak_rss_mb": peak_rss_mb(),
    }


def tail_note(phase: Phase, tail_q: float) -> str:
    latencies_ms = [op.corrected_seconds * 1e3 for op in phase.ops]
    cut = percentile(latencies_ms, tail_q)
    beyond = sum(1 for value in latencies_ms if value > cut)
    return f"p{tail_q:g} of {len(latencies_ms)} samples, {beyond} beyond it"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child's peak, in MB.

    ``getrusage`` gives the children's peak as that of the largest
    finished child, not of several running at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reap_children() -> None:
    """Wait up to 15 s for every child process to end; kill any that will not."""
    deadline = time.monotonic() + 15.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    for child in multiprocessing.active_children():
        if child.pid is not None:
            os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=5)


def import_seconds(modules: List[str]) -> float:
    """Time a fresh interpreter importing ``modules`` (measured inside it)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Traced-run aggregation
# ---------------------------------------------------------------------------


class Breakdown:
    """Self time and counts per span name, over a traced phase's ops."""

    def __init__(self, phase: Phase, spans: List[Span]):
        self.ops = [op for op in phase.ops if op.span is not None]
        by_id = {span.id: span for span in spans}
        self.roots = {op.span.id: op for op in self.ops}
        self.spans = [span for span in spans if self._root(span, by_id) in self.roots]
        self.self_time = self_times(self.spans)
        self.first_cycle = {
            op.span.id for op in self.ops if op.cycle == 0
        }
        self._root_of = {span.id: self._root(span, by_id) for span in self.spans}

    @staticmethod
    def _root(span: Span, by_id: Dict[int, Span]) -> Optional[int]:
        while span.parent is not None:
            parent = by_id.get(span.parent)
            if parent is None:
                return None
            span = parent
        return span.id

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_ms_per_op(self, *names: str) -> float:
        """Mean over ops of the self time spent in spans named ``names``."""
        total = sum(
            self.self_time[span.id] for span in self.spans if span.name in names
        )
        return 1e3 * total / max(len(self.ops), 1)

    def direct_ms_per_op(self, name: str) -> float:
        """Mean over ops of the inclusive time of the spans named ``name``
        whose parent is the op's root span."""
        spans = [span for span in self.named(name) if span.parent in self.roots]
        return 1e3 * sum(span.duration for span in spans) / max(len(self.ops), 1)

    def count(self, key: str, names: Iterable[str], first_cycle: bool = False) -> float:
        names = set(names)
        return sum(
            span.counts.get(key, 0)
            for span in self.spans
            if span.name in names
            and (not first_cycle or self._root_of[span.id] in self.first_cycle)
        )

    def max_count(self, key: str, names: Iterable[str]) -> float:
        """Largest count over the first cycle's spans named ``names``."""
        names = set(names)
        return max(
            (
                span.counts.get(key, 0)
                for span in self.spans
                if span.name in names and self._root_of[span.id] in self.first_cycle
            ),
            default=0,
        )

    def attributed_share(self) -> float:
        """Share of op wall time spent in named layer spans (not the root)."""
        total = sum(op.seconds for op in self.ops)
        root_self = sum(self.self_time[op.span.id] for op in self.ops)
        return (total - root_self) / total if total > 0 else 0.0


STAGES = (
    "stage.subareas",
    "stage.conditional_report_pmf",
    "stage.stage_report_pmf",
    "stage.batched_binomial_pmf",
)
CONVOLUTIONS = ("kernel.convolve", "kernel.np_convolve")


def span_layers(breakdown: Breakdown) -> Dict[str, float]:
    """Per-layer metrics read off the spans; zero where a layer is idle.

    Times are means per operation (self time, so they add up to the
    operation's wall time); computed counts are totals over the first
    cycle, which the seed fixes.
    """
    b = breakdown
    tested = b.count("pairs_tested", ["sim.coverage"])
    covered = b.count("pairs_covered", ["sim.coverage"])
    plain = sum(1 for op in b.ops if op.kind == "simulator")
    fused = sum(1 for op in b.ops if op.kind == "fused")
    return {
        "core.engine_scalar_ms": b.direct_ms_per_op("engine.scalar"),
        "core.engine_batched_ms": b.direct_ms_per_op("engine.batched"),
        "core.engine_self_ms": b.self_ms_per_op("engine.scalar", "engine.batched"),
        "core.stage_ms": b.self_ms_per_op(*STAGES),
        "core.stage.subareas_ms": b.self_ms_per_op("stage.subareas"),
        "core.stage.conditional_report_pmf_ms": b.self_ms_per_op("stage.conditional_report_pmf"),
        "core.stage.stage_report_pmf_ms": b.self_ms_per_op("stage.stage_report_pmf"),
        "core.stage.batched_binomial_pmf_ms": b.self_ms_per_op("stage.batched_binomial_pmf"),
        "core.kernels.conv_ms": b.self_ms_per_op(*CONVOLUTIONS),
        "core.kernels.power_self_ms": b.self_ms_per_op("kernel.convolve_power"),
        "core.kernels.conv_calls": b.count("calls", CONVOLUTIONS, first_cycle=True),
        "core.kernels.conv_macs": b.count("macs", CONVOLUTIONS, first_cycle=True),
        "core.kernels.max_support": b.max_count("support", CONVOLUTIONS),
        "adaptive.self_ms": b.self_ms_per_op("adaptive.search"),
        "simulation.sensing.coverage_ms": b.self_ms_per_op("sim.coverage"),
        "simulation.sensing.bernoulli_ms": b.self_ms_per_op("sim.bernoulli"),
        "simulation.sensing.pairs_tested": b.count(
            "pairs_tested", ["sim.coverage"], first_cycle=True
        ),
        "simulation.sensing.useful_ratio": covered / tested if tested else 0.0,
        "simulation.runner.self_ms": 1e3
        * sum(b.self_time[span.id] for span in b.named("sim.run"))
        / max(plain, 1),
        "simulation.fused.run_ms": 1e3
        * sum(span.duration for span in b.named("sim.fused_run"))
        / max(fused, 1),
        "trace.op_ms": 1e3 * sum(op.seconds for op in b.ops) / max(len(b.ops), 1),
        "trace.attributed_share": b.attributed_share(),
    }
