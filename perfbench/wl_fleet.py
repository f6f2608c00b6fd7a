"""fleet-sweep: one analytical grid through the two multi-process paths.

One operation is one whole sweep of a 150-point speed x Rs x N grid
(``ms`` <= 16, so each point costs milliseconds), including worker
start-up.  A cycle is ``distributed_grid_sweep(workers=2)`` (the
work-stealing fleet: lease -> wire -> compute) followed by
``analytical_grid_sweep(workers=2, batch=False)`` (the ``repro.parallel``
pool).  Check: every sweep's canonical rows are byte-identical to the
serial path's.  The traced run also times the serial sweep, the
baseline of both scaling efficiencies.
"""

from __future__ import annotations

import statistics

import checks
import inputs
from common import Breakdown, Op, Phase, run_cycles, timed

TAIL_PERCENTILE = 70
IMPORTS = ["repro", "repro.experiments.sweeps", "repro.distributed"]
WORKERS = 2
SERIAL_REPEATS = 3


class Workload:
    name = "fleet-sweep"
    tail_percentile = TAIL_PERCENTILE
    imports = IMPORTS

    def setup(self, seed: int) -> dict:
        import repro
        from repro.experiments import sweeps

        grid = inputs.fleet_grid(seed)
        template = repro.Scenario.from_dict(inputs.fleet_template(grid))
        # Warm the fleet code paths on a two-point grid.
        sweeps.distributed_grid_sweep(template, {"num_sensors": [60, 61]}, workers=WORKERS)
        repro.clear_analysis_cache()
        return {"grid": grid, "template": template}

    def teardown(self, state: dict) -> None:
        pass

    def _sweep(self, kind: str, state: dict):
        from repro.experiments import sweeps

        if kind == "distributed":
            return sweeps.distributed_grid_sweep(
                state["template"], state["grid"], workers=WORKERS
            )
        workers = 1 if kind == "serial" else WORKERS
        return sweeps.analytical_grid_sweep(
            state["template"], state["grid"], workers=workers, batch=False
        )

    def run(self, state: dict, seconds: float, recorder=None) -> Phase:
        import repro
        from repro.experiments.sweeps import canonical_row

        def run_op(kind) -> Op:
            op = timed(kind, len, lambda: self._sweep(kind, state))
            op.output = checks.canonical_bytes(op.output, canonical_row)
            return op

        phase = run_cycles(
            lambda: ["distributed", "pool"],
            run_op,
            seconds,
            recorder,
            lambda kind: repro.clear_analysis_cache(),
        )
        serial = self.serial_baseline(state)
        phase.extra["serial_s"] = serial["seconds"]
        for op in phase.ops:
            reason = checks.check_sweep_rows(op.output, serial["bytes"])
            if reason is not None:
                phase.failures.append(f"{op.kind}: {reason}")
            op.output = None
        return phase

    def serial_baseline(self, state: dict) -> dict:
        """The single-process sweep: reference bytes and median wall time."""
        import repro
        from repro.experiments.sweeps import canonical_row

        seconds = []
        for _ in range(SERIAL_REPEATS):
            repro.clear_analysis_cache()
            op = timed("serial", len, lambda: self._sweep("serial", state))
            seconds.append(op.seconds)
        repro.clear_analysis_cache()
        return {
            "seconds": statistics.median(seconds),
            "bytes": checks.canonical_bytes(op.output, canonical_row),
        }

    def layers(self, untraced: Phase, traced: Phase, breakdown: Breakdown, state) -> dict:
        serial = untraced.extra["serial_s"]
        dist_s = statistics.median(op.seconds for op in untraced.ops if op.kind == "distributed")
        pool_s = statistics.median(op.seconds for op in untraced.ops if op.kind == "pool")
        dist_spans = breakdown.named("dist.sweep")
        first_rows = [
            span.counts["dist_first_row_at"] - span.start
            for span in dist_spans
            if "dist_first_row_at" in span.counts
        ]
        per_sweep = max(len(dist_spans), 1)
        return {
            "distributed.first_row_s": statistics.median(first_rows) if first_rows else 0.0,
            "distributed.shards": breakdown.count("dist_shards", ["dist.sweep"]) / per_sweep,
            "distributed.steals": breakdown.count("dist_steals", ["dist.sweep"]) / per_sweep,
            "distributed.sweep_ms": 1e3 * dist_s,
            "distributed.scaling_efficiency": serial / (WORKERS * dist_s),
            "parallel.sweep_ms": 1e3 * pool_s,
            "parallel.scaling_efficiency": serial / (WORKERS * pool_s),
            "experiments.serial_sweep_ms": 1e3 * serial,
        }
