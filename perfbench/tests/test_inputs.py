"""The same seed generates identical inputs; another seed does not."""

import json
import math

import pytest

import inputs


def first_inputs(workload: str, seed: int, cycles: int = 3) -> str:
    """A canonical text form of a workload's first inputs."""
    if workload == "svc-onr":
        stream = inputs.ServiceRequestStream(seed)
        return json.dumps([[r.path, r.body.decode()] for r in (stream.next() for _ in range(200))])
    if workload == "analysis-slow":
        stream = inputs.QuestionStream(seed, inputs.slow_catalogue())
        return json.dumps(
            [
                [q.entry["id"], q.grid_n, q.grid_k, q.point_n, q.point_k]
                for _ in range(cycles)
                for q in stream.next_cycle()
            ]
        )
    if workload == "mc-onr":
        stream = inputs.MonteCarloStream(seed)
        return json.dumps(
            [
                [op.kind, op.speed, op.num_sensors, op.thresholds, op.seed]
                for _ in range(cycles)
                for op in stream.next_cycle()
            ]
        )
    return json.dumps(inputs.fleet_grid(seed), sort_keys=True)


WORKLOADS = ["svc-onr", "analysis-slow", "mc-onr", "fleet-sweep"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert first_inputs(workload, 7) == first_inputs(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert first_inputs(workload, 7) != first_inputs(workload, 8)


def test_catalogue_is_fixed_and_stratified():
    catalogue = inputs.slow_catalogue()
    assert catalogue == inputs.slow_catalogue()
    assert len({entry["id"] for entry in catalogue}) == len(catalogue)
    for entry in catalogue:
        low, high = inputs.slow_speed_interval(entry["ms"])
        assert low <= entry["speed"] <= high


def test_questions_use_new_geometries_within_a_run():
    stream = inputs.QuestionStream(3, inputs.slow_catalogue())
    cycles = inputs.SLOW_CATALOGUE_SIZE
    ids = [q.entry["id"] for _ in range(cycles) for q in stream.next_cycle()]
    assert len(ids) == len(set(ids))


def test_service_stream_repeats_a_fixed_share():
    stream = inputs.ServiceRequestStream(5)
    requests = [stream.next() for _ in range(4000)]
    repeats = len(requests) - len(set(requests))
    assert 0.2 < repeats / len(requests) < 0.3


def test_fleet_grid_size():
    grid = inputs.fleet_grid(11)
    assert math.prod(len(values) for values in grid.values()) == 150
