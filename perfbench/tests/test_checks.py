"""Each output check passes a right answer and fails a perturbed one."""

import json

import numpy as np

import checks
import inputs
import wl_analysis
import wl_service


def service_reference():
    grid = np.linspace(0.1, 0.9, 181 * 10).reshape(181, 10)
    return checks.ServiceReference({4.0: grid, 10.0: grid * 0.5}, 60, 1)


def analyze(reference, perturb=0.0):
    scenario = inputs.onr_dict(10.0, 100, 3)
    body = json.dumps({"scenario": scenario}).encode()
    answer = {"detection_probability": reference.value(scenario) + perturb}
    return body, json.dumps(answer).encode()


def test_service_answer_right_and_perturbed():
    reference = service_reference()
    body, answer = analyze(reference)
    assert checks.check_service_response("/analyze", body, 200, answer, reference) is None
    body, answer = analyze(reference, 1e-6)
    assert checks.check_service_response("/analyze", body, 200, answer, reference)
    assert checks.check_service_response("/analyze", body, 503, answer, reference)


def test_service_sweep_perturbed_row():
    reference = service_reference()
    scenario = inputs.onr_dict(4.0, 100, 3)
    request = {"scenario": scenario, "parameter": "threshold", "values": [1, 4, 9]}
    rows = [
        {"threshold": k, "detection_probability": reference.value(scenario, threshold=k)}
        for k in request["values"]
    ]
    body = json.dumps(request).encode()
    good = json.dumps({"rows": rows}).encode()
    assert checks.check_service_response("/sweep", body, 200, good, reference) is None
    rows[1]["detection_probability"] += 1e-8
    bad = json.dumps({"rows": rows}).encode()
    assert checks.check_service_response("/sweep", body, 200, bad, reference)


def test_cache_hit_must_repeat_bytes():
    assert checks.check_same_bytes(b'{"p": 0.5}', b'{"p": 0.5}') is None
    assert checks.check_same_bytes(b'{"p": 0.5}', b'{"p": 0.50}')


def test_question_checks():
    grid = np.array([[0.2, 0.1], [0.6, 0.4]])
    recorded = {(1, 1): 0.4, (0, 1): 0.1}
    assert checks.check_question(0.4, grid, (1, 1), recorded, 57, 57) is None
    assert checks.check_question(0.4 + 1e-7, grid, (1, 1), recorded, 57, 57)
    assert checks.check_question(0.4, grid, (1, 1), recorded, 58, 57)
    assert checks.check_question(0.4, grid, (1, 1), recorded, None, 57)
    # Both engines agree with each other but not with the recorded answer.
    moved = grid + 1e-7
    assert checks.check_question(0.4 + 1e-7, moved, (1, 1), recorded, 57, 57)
    # A recorded cell the scalar engine did not answer is still checked.
    moved = grid.copy()
    moved[0, 1] += 1e-7
    assert checks.check_question(0.4, moved, (1, 1), recorded, 57, 57)


def test_recorded_references_cover_every_input():
    references = wl_analysis.load_references()
    for entry in inputs.slow_catalogue():
        assert isinstance(references["minimum_sensors"][entry["id"]], int)
        cells = np.asarray(references["probabilities"][entry["id"]])
        assert cells.shape == (inputs.SLOW_REF_N, inputs.SLOW_REF_K)
    reference = wl_service.reference_grids()
    scenario = inputs.onr_dict(inputs.ONR_SPEEDS[-1], inputs.ONR_N_RANGE[1], inputs.ONR_K_RANGE[1])
    assert 0.0 < reference.value(scenario) < 1.0
    for grid in reference.grids.values():
        assert grid.shape == (
            inputs.ONR_N_RANGE[1] - inputs.ONR_N_RANGE[0] + 1,
            inputs.ONR_K_RANGE[1] - inputs.ONR_K_RANGE[0] + 1,
        )


def test_exact_band():
    alpha = checks.bonferroni_alpha(0.999, 1)
    assert checks.check_mc_estimate(500, 1000, 0.5, alpha) is None
    assert checks.check_mc_estimate(500, 1000, 0.6, alpha)
    # Bonferroni widens the band as the family grows.
    narrow = checks.clopper_pearson_interval(500, 1000, alpha)
    wide = checks.clopper_pearson_interval(500, 1000, checks.bonferroni_alpha(0.999, 100))
    assert wide[0] < narrow[0] and wide[1] > narrow[1]


def test_exact_band_near_the_edges():
    # 13 misses in 800 at a reference miss rate of 0.0033: the binomial
    # tail is about 5e-6, inside a band at a family-wise 99.9% over 3000
    # estimates, and outside one for a single estimate at alpha 1e-3.
    assert checks.check_mc_estimate(787, 800, 0.9967, checks.bonferroni_alpha(0.999, 3000)) is None
    assert checks.check_mc_estimate(787, 800, 0.9967, checks.bonferroni_alpha(0.999, 1))
    assert checks.clopper_pearson_interval(800, 800, 1e-3)[1] == 1.0
    assert checks.clopper_pearson_interval(0, 800, 1e-3)[0] == 0.0
    assert checks.check_mc_estimate(800, 800, 0.95, 1e-3)


def test_fused_column_bitwise():
    counts = np.arange(10)
    assert checks.check_fused_column(counts, counts.copy()) is None
    other = counts.copy()
    other[3] += 1
    assert checks.check_fused_column(counts, other)


def test_sweep_bytes():
    rows = [{"num_sensors": 60, "detection_probability": 0.25}]
    same = checks.canonical_bytes(rows, dict)
    assert checks.check_sweep_rows(same, checks.canonical_bytes(list(rows), dict)) is None
    moved = [{"num_sensors": 60, "detection_probability": 0.25 + 2**-50}]
    assert checks.check_sweep_rows(checks.canonical_bytes(moved, dict), same)
