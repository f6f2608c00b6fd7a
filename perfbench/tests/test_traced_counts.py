"""Computed counts of the traced run repeat exactly for one seed."""

import json
import os

import pytest

import run

COUNTS = (
    "core.kernels.conv_calls",
    "core.kernels.conv_macs",
    "core.kernels.max_support",
    "simulation.sensing.pairs_tested",
    "adaptive.evaluations",
)


@pytest.mark.parametrize("name", ["analysis-slow", "mc-onr"])
def test_two_traced_runs_agree_on_computed_counts(name):
    workload = run.workloads()[name]()
    first = run.traced(workload, 5, 0.01)[2]
    second = run.traced(workload, 5, 0.01)[2]
    assert {key: first[key] for key in COUNTS} == {key: second[key] for key in COUNTS}
    busy = "core.kernels.conv_macs" if name == "analysis-slow" else "simulation.sensing.pairs_tested"
    assert first[busy] > 0


def test_benchmark_json_matches_the_metric_tables():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads())
