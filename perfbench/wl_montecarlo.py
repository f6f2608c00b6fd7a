"""mc-onr: serial Monte Carlo on the paper's ONR scenario.

One operation is one ``FusedMonteCarloEngine.run`` over an N x k grid or
one ``MonteCarloSimulator.run``, each of 800 trials with ``workers=1``
on the torus boundary.  A cycle is a fused run and a plain run of the
same seed at ``N_max = 240``, at V = 4 and then at V = 10.  Checks: the
exact binomial (Clopper-Pearson) band of every estimate, 99.9%
family-wise over the run, holds the recorded high-trial reference, and
each plain run's report counts equal its fused partner's ``N_max``
column bit for bit.
"""

from __future__ import annotations

import json
import os

import checks
import inputs
from common import Breakdown, Op, Phase, run_cycles, timed

TAIL_PERCENTILE = 70
IMPORTS = ["repro", "repro.simulation"]
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "references.json")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)["mc"]


class Workload:
    name = "mc-onr"
    tail_percentile = TAIL_PERCENTILE
    imports = IMPORTS

    def setup(self, seed: int) -> dict:
        import repro
        from repro.simulation import FusedMonteCarloEngine

        references = load_references()
        warm = repro.Scenario.from_dict(inputs.onr_dict(10.0, 60, 3))
        repro.MonteCarloSimulator(warm, trials=64, seed=1).run(workers=1)
        FusedMonteCarloEngine(warm, num_sensors=[30, 60], trials=64, seed=1).run(workers=1)
        return {"stream": inputs.MonteCarloStream(seed), "references": references}

    def teardown(self, state: dict) -> None:
        pass

    def run(self, state: dict, seconds: float, recorder=None) -> Phase:
        import repro
        from repro.simulation import FusedMonteCarloEngine

        def run_op(op) -> Op:
            n_max = op.num_sensors[-1]
            scenario = repro.Scenario.from_dict(
                inputs.onr_dict(op.speed, n_max, op.thresholds[0])
            )
            if op.kind == "fused":
                engine = FusedMonteCarloEngine(
                    scenario,
                    num_sensors=op.num_sensors,
                    thresholds=op.thresholds,
                    trials=inputs.MC_TRIALS,
                    seed=op.seed,
                )
                result = timed("fused", lambda r: r.detections_grid().size, lambda: engine.run(workers=1))
                counts = result.output.report_counts[:, -1].copy()
                detections = result.output.detections_grid()
            else:
                simulator = repro.MonteCarloSimulator(
                    scenario, trials=inputs.MC_TRIALS, seed=op.seed
                )
                result = timed("simulator", lambda r: 1, lambda: simulator.run(workers=1))
                counts = result.output.report_counts.copy()
                detections = [[int((counts >= op.thresholds[0]).sum())]]
            result.output = {"op": op, "counts": counts, "detections": detections}
            return result

        phase = run_cycles(state["stream"].next_cycle, run_op, seconds, recorder)
        self._check(phase, state["references"])
        return phase

    @staticmethod
    def _check(phase: Phase, references: dict) -> None:
        ref_trials = references["trials"]

        def estimates(spec):
            for i, n in enumerate(spec.num_sensors):
                for j, k in enumerate(spec.thresholds):
                    p = references["detections"][f"{spec.speed}|{n}|{k}"] / ref_trials
                    yield i, j, n, k, p

        alpha = checks.bonferroni_alpha(
            checks.MC_CONFIDENCE,
            sum(1 for op in phase.ops for _ in estimates(op.output["op"])),
        )
        fused_counts = {}
        for op in phase.ops:
            out = op.output
            spec = out["op"]
            reasons = []
            for i, j, n, k, reference in estimates(spec):
                reason = checks.check_mc_estimate(
                    int(out["detections"][i][j]), inputs.MC_TRIALS, reference, alpha
                )
                if reason is not None:
                    reasons.append(f"V={spec.speed} N={n} k={k}: {reason}")
            if spec.kind == "fused":
                fused_counts[spec.seed] = out["counts"]
            elif spec.seed in fused_counts:
                reason = checks.check_fused_column(out["counts"], fused_counts[spec.seed])
                if reason is not None:
                    reasons.append(f"seed {spec.seed}: {reason}")
            if reasons:
                phase.failures.append("; ".join(reasons))
            del out["counts"]

    def layers(self, untraced: Phase, traced: Phase, breakdown: Breakdown, state) -> dict:
        return {
            "simulation.trials_per_s": inputs.MC_TRIALS * len(untraced.ops) / untraced.wall,
        }
