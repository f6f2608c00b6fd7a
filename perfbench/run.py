"""End-to-end benchmark of the repro analysis stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload svc-onr --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``svc-onr`` -- the analysis service on a socket, one closed-loop client;
* ``analysis-slow`` -- cold slow-target design questions in process;
* ``mc-onr`` -- serial Monte Carlo on the ONR scenario;
* ``fleet-sweep`` -- one analytical grid through the distributed fleet and
  the process pool.

``--trace 0`` sets up several times (``setup_s`` is their median), runs
the workload untraced for ``--seconds`` and prints the end-to-end
metrics, each time host-corrected by a probe of the host's speed run
just before it (see ``common.py`` and ``workloads.md``).  ``--trace 1``
runs it untraced and then traced (span wrappers installed around each
layer's public calls), prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.perfbench/traces/``.  Every answer
is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_per_s": "ops/s",
    "points_per_s": "points/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "service.transport.self_ms": "ms",
    "service.server.self_ms": "ms",
    "service.server.cache_hit_ratio": "ratio",
    "service.server.requests": "count",
    "service.server.coalesced": "count",
    "service.server.rejected": "count",
    "service.supervisor.submit_ms": "ms",
    "service.supervisor.ipc_ms": "ms",
    "service.supervisor.reroutes": "count",
    "service.supervisor.crashes": "count",
    "core.engine_scalar_ms": "ms",
    "core.engine_batched_ms": "ms",
    "core.engine_self_ms": "ms",
    "core.stage_ms": "ms",
    "core.stage.subareas_ms": "ms",
    "core.stage.conditional_report_pmf_ms": "ms",
    "core.stage.stage_report_pmf_ms": "ms",
    "core.stage.batched_binomial_pmf_ms": "ms",
    "core.kernels.conv_ms": "ms",
    "core.kernels.power_self_ms": "ms",
    "core.kernels.conv_calls": "count",
    "core.kernels.conv_macs": "count",
    "core.kernels.max_support": "count",
    "cache.analysis_hit_ratio": "ratio",
    "cache.analysis_lookups": "count",
    "adaptive.self_ms": "ms",
    "adaptive.evaluations": "count",
    "adaptive.fallbacks": "count",
    "simulation.sensing.coverage_ms": "ms",
    "simulation.sensing.bernoulli_ms": "ms",
    "simulation.sensing.pairs_tested": "count",
    "simulation.sensing.useful_ratio": "ratio",
    "simulation.runner.self_ms": "ms",
    "simulation.fused.run_ms": "ms",
    "simulation.trials_per_s": "trials/s",
    "distributed.first_row_s": "s",
    "distributed.shards": "count",
    "distributed.steals": "count",
    "distributed.sweep_ms": "ms",
    "distributed.scaling_efficiency": "ratio",
    "parallel.sweep_ms": "ms",
    "parallel.scaling_efficiency": "ratio",
    "experiments.serial_sweep_ms": "ms",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.attributed_share": "ratio",
    "trace.matched_share": "ratio",
}


def workloads() -> dict:
    import wl_analysis
    import wl_fleet
    import wl_montecarlo
    import wl_service

    return {
        module.Workload.name: module.Workload
        for module in (wl_service, wl_analysis, wl_montecarlo, wl_fleet)
    }


def host() -> str:
    import platform

    import numpy
    import scipy

    return (
        f"cpu_count={os.cpu_count()} python={platform.python_version()}"
        f" numpy={numpy.__version__} scipy={scipy.__version__}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def untraced(workload, seed: int, seconds: float):
    from common import cpu_slowdown, end_to_end, import_seconds, median

    # This process imports once, untimed; each set-up sample is one
    # in-process set-up plus a fresh interpreter's imports, each
    # host-corrected by the median of three CPU probes run just before
    # it (one probe is too noisy for a handful of samples).
    for module in workload.imports:
        importlib.import_module(module)

    def slowdown():
        return median(cpu_slowdown() for _ in range(3))

    setups = []
    for repeat in range(SETUP_REPEATS):
        before = slowdown()
        start = time.perf_counter()
        state = workload.setup(seed)
        setups.append((time.perf_counter() - start) / before)
        if repeat < SETUP_REPEATS - 1:
            workload.teardown(state)
    try:
        phase = workload.run(state, seconds)
    finally:
        workload.teardown(state)
    values = end_to_end(phase, workload.tail_percentile)
    # The import-timing interpreters start only now, after peak_rss_mb is
    # read, so their memory is not counted as the workload's.
    samples = []
    for setup in setups:
        before = slowdown()
        samples.append(setup + import_seconds(workload.imports) / before)
    values["setup_s"] = median(samples)
    return phase, values, samples


def traced(workload, seed: int, seconds: float):
    from common import Breakdown, median, span_layers
    from tracing import SpanRecorder, Tracer

    state = workload.setup(seed)
    try:
        plain = workload.run(state, seconds)
    finally:
        workload.teardown(state)

    recorder = SpanRecorder()
    tracer = Tracer(recorder).install()
    try:
        state = workload.setup(seed)
    except BaseException:
        tracer.restore()
        raise
    try:
        try:
            state["recorder"] = recorder
            phase = workload.run(state, seconds, recorder)
        finally:
            tracer.restore()
        breakdown = Breakdown(phase, recorder.spans)
        layers = span_layers(breakdown)
        layers.update(workload.layers(plain, phase, breakdown, state))
    finally:
        workload.teardown(state)
    plain_ms = 1e3 * sum(op.seconds for op in plain.ops) / max(len(plain.ops), 1)
    layers["trace.untraced_op_ms"] = plain_ms
    layers["trace.overhead_share"] = layers["trace.op_ms"] / plain_ms - 1.0 if plain_ms else 0.0
    layers.setdefault("trace.matched_share", 1.0 if breakdown.ops else 0.0)
    layers = {name: layers.get(name, 0.0) for name in PER_LAYER}
    out_dir = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    recorder.dump(os.path.join(out_dir, f"{workload.name}-seed{seed}.jsonl"))
    notes = {
        "untraced_p50_ms": median(op.seconds * 1e3 for op in plain.ops),
        "traced_p50_ms": median(op.seconds * 1e3 for op in phase.ops),
        "spans": len(recorder.spans),
    }
    return plain, phase, layers, notes


def run_all(args, names) -> int:
    """Run every workload in its own interpreter; one combined JSON line."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 1
    table = workloads()
    if args.workload == "all":
        return run_all(args, list(table))
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]()
    from common import reap_children

    print(f"# host: {host()}")
    try:
        return report(workload, args)
    finally:
        reap_children()


def report(workload, args) -> int:
    """Run one workload and print its metrics; the last line is the JSON."""
    from common import end_to_end, median, tail_note

    if args.trace == 0:
        phase, values, samples = untraced(workload, args.seed, args.seconds)
        phases = [phase]
        units = END_TO_END
        print(f"# {workload.name} seed={args.seed}: untraced, {len(phase.ops)} ops in {phase.wall:.2f} s")
        print(f"# latency_tail_ms is the {tail_note(phase, workload.tail_percentile)}")
        raw = end_to_end(phase, workload.tail_percentile, corrected=False)
        slowdowns = [op.slowdown for op in phase.ops]
        print(
            f"# wall clock, not host-corrected: p50 {raw['latency_p50_ms']:.3f} ms,"
            f" tail {raw['latency_tail_ms']:.3f} ms,"
            f" {raw['throughput_ops_per_s']:.4f} ops/s; host slowdown p50"
            f" {median(slowdowns):.3f}, range {min(slowdowns):.3f}-{max(slowdowns):.3f}"
        )
        print(f"# setup samples (s): {', '.join(f'{s:.3f}' for s in samples)}")
    else:
        plain, phase, values, notes = traced(workload, args.seed, args.seconds)
        phases = [plain, phase]
        units = PER_LAYER
        print(
            f"# {workload.name} seed={args.seed}: untraced {len(plain.ops)} ops,"
            f" traced {len(phase.ops)} ops, {notes['spans']} spans"
        )
        print(
            f"# tracing overhead: mean op {values['trace.untraced_op_ms']:.3f} ->"
            f" {values['trace.op_ms']:.3f} ms, p50 {notes['untraced_p50_ms']:.3f} ->"
            f" {notes['traced_p50_ms']:.3f} ms"
        )
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    print(f"# ops_failed_share = {failed}/{attempted} = {failed / max(attempted, 1):.6f} ratio")
    for p in phases:
        for reason in p.failures[:10]:
            print(f"# FAILED: {reason}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, value in metrics.items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
