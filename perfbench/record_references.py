"""Record the reference answers the benchmark checks against.

Writes ``perfbench/data/references.json`` with:

* ``slow``: for every analysis-slow catalogue entry, the dense
  ``repro.core.design.minimum_sensors`` answer (the ascending scan the
  adaptive search must reproduce exactly) and ``P[X >= k]`` over the
  entry's fixed ``ref_n`` x ``ref_k`` cells;
* ``onr``: ``P[X >= k]`` over the svc-onr question space (V x N x k),
  which every ``/analyze`` and ``/sweep`` answer must match;
* ``mc``: high-trial Monte Carlo estimates of the ONR scenario over
  V x N x k, the centre of the Wilson bands mc-onr estimates must fall in.

Run once from the repository root (a few minutes on two cores)::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402

MC_REFERENCE_TRIALS = 300_000
MC_REFERENCE_SEED = 918_273
MC_REFERENCE_THRESHOLDS = tuple(range(1, 11))


def record_slow() -> dict:
    from repro.core.batched import BatchedMarkovSpatialAnalysis
    from repro.core.design import minimum_sensors
    from repro.core.scenario import Scenario

    answers, probabilities = {}, {}
    for entry in inputs.slow_catalogue():
        scenario = Scenario.from_dict(
            inputs.slow_dict(entry["speed"], entry["ms"], 1, entry["threshold"])
        )
        answers[entry["id"]] = minimum_sensors(
            scenario,
            entry["required_probability"],
            max_sensors=inputs.SLOW_MAX_SENSORS,
        )
        grid = BatchedMarkovSpatialAnalysis(scenario).detection_probability_grid(
            num_sensors=entry["ref_n"], thresholds=entry["ref_k"]
        )
        probabilities[entry["id"]] = grid.tolist()
    return {"minimum_sensors": answers, "probabilities": probabilities}


def record_onr() -> dict:
    from repro.core.batched import BatchedMarkovSpatialAnalysis
    from repro.core.scenario import Scenario

    n_low, n_high = inputs.ONR_N_RANGE
    k_low, k_high = inputs.ONR_K_RANGE
    grids = {}
    for speed in inputs.ONR_SPEEDS:
        engine = BatchedMarkovSpatialAnalysis(
            Scenario.from_dict(inputs.onr_dict(speed, n_low, k_low))
        )
        grids[str(speed)] = engine.detection_probability_grid(
            num_sensors=range(n_low, n_high + 1), thresholds=range(k_low, k_high + 1)
        ).tolist()
    return {"n_low": n_low, "k_low": k_low, "grids": grids}


def record_mc() -> dict:
    from repro.core.scenario import Scenario
    from repro.simulation import FusedMonteCarloEngine

    points = {}
    for speed in inputs.ONR_SPEEDS:
        scenario = Scenario.from_dict(
            inputs.onr_dict(speed, inputs.MC_N_VALUES[-1], 5)
        )
        result = FusedMonteCarloEngine(
            scenario,
            num_sensors=inputs.MC_N_VALUES,
            thresholds=MC_REFERENCE_THRESHOLDS,
            trials=MC_REFERENCE_TRIALS,
            seed=MC_REFERENCE_SEED,
        ).run(workers=2)
        grid = result.detections_grid()
        for i, n in enumerate(inputs.MC_N_VALUES):
            for j, k in enumerate(MC_REFERENCE_THRESHOLDS):
                points[f"{speed}|{n}|{k}"] = int(grid[i, j])
    return {
        "trials": MC_REFERENCE_TRIALS,
        "seed": MC_REFERENCE_SEED,
        "detections": points,
    }


def main() -> int:
    start = time.perf_counter()
    slow = record_slow()
    print(f"slow catalogue recorded in {time.perf_counter() - start:.1f} s", flush=True)
    onr = record_onr()
    print(f"onr grids recorded in {time.perf_counter() - start:.1f} s", flush=True)
    mc = record_mc()
    print(f"mc reference recorded in {time.perf_counter() - start:.1f} s", flush=True)
    path = os.path.join(HERE, "data", "references.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"slow": slow, "onr": onr, "mc": mc}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
