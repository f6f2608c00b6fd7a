"""Unit tests for the batched M-S-approach kernel."""

import numpy as np
import pytest

from repro import obs
from repro.cache import clear_analysis_cache, grid_key
from repro.core.batched import (
    BatchedMarkovSpatialAnalysis,
    batch_convolve,
    batch_convolve_power,
    batched_binomial_pmf,
    detection_probability_grid,
)
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.report_dist import binomial_pmf, convolution_power
from repro.errors import AnalysisError


class TestHelpers:
    def test_batch_convolve_matches_numpy_rowwise(self, rng):
        a = rng.random((4, 7))
        b = rng.random((4, 3))
        out = batch_convolve(a, b)
        assert out.shape == (4, 9)
        for row in range(4):
            np.testing.assert_allclose(
                out[row], np.convolve(a[row], b[row]), atol=1e-15
            )

    def test_batch_convolve_shape_mismatch(self):
        with pytest.raises(AnalysisError, match="stacks"):
            batch_convolve(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(AnalysisError, match="stacks"):
            batch_convolve(np.ones(3), np.ones((1, 3)))

    def test_batch_convolve_power_matches_scalar(self, rng):
        base = rng.random((3, 4))
        for power in (0, 1, 2, 3, 7):
            out = batch_convolve_power(base, power)
            for row in range(3):
                np.testing.assert_allclose(
                    out[row], convolution_power(base[row], power), atol=1e-12
                )

    def test_batch_convolve_power_zero_is_unit(self):
        out = batch_convolve_power(np.ones((5, 3)), 0)
        np.testing.assert_array_equal(out, np.ones((5, 1)))

    def test_batch_convolve_power_validation(self):
        with pytest.raises(AnalysisError, match="non-negative"):
            batch_convolve_power(np.ones((1, 2)), -1)
        with pytest.raises(AnalysisError, match="non-empty"):
            batch_convolve_power(np.ones((1, 0)), 2)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9, 1.0])
    def test_batched_binomial_rows_match_scalar(self, p):
        trials = [0, 1, 3, 10, 200]
        max_count = 4
        stack = batched_binomial_pmf(trials, p, max_count)
        assert stack.shape == (len(trials), max_count + 1)
        for row, n in enumerate(trials):
            full = binomial_pmf(n, p)
            limit = min(max_count, n)
            expected = np.zeros(max_count + 1)
            expected[: limit + 1] = full[: limit + 1]
            np.testing.assert_allclose(stack[row], expected, atol=1e-14)

    def test_batched_binomial_counts_beyond_trials_are_zero(self):
        stack = batched_binomial_pmf([2], 0.5, 6)
        assert (stack[0, 3:] == 0.0).all()
        assert stack[0, :3].sum() == pytest.approx(1.0)

    def test_batched_binomial_validation(self):
        with pytest.raises(AnalysisError, match="1-D"):
            batched_binomial_pmf(np.ones((2, 2), dtype=int), 0.5, 3)
        with pytest.raises(AnalysisError, match="max_count"):
            batched_binomial_pmf([3], 0.5, -1)
        with pytest.raises(AnalysisError, match="success_prob"):
            batched_binomial_pmf([3], 1.5, 3)


class TestConstruction:
    def test_invalid_truncations_and_substeps(self, small):
        with pytest.raises(AnalysisError, match="body_truncation"):
            BatchedMarkovSpatialAnalysis(small, body_truncation=0)
        with pytest.raises(AnalysisError, match="head_truncation"):
            BatchedMarkovSpatialAnalysis(small, head_truncation=0)
        with pytest.raises(AnalysisError, match="substeps"):
            BatchedMarkovSpatialAnalysis(small, substeps=0)

    def test_requires_body_stage(self, small):
        short = small.replace(window=small.ms)
        with pytest.raises(AnalysisError, match="M > ms"):
            BatchedMarkovSpatialAnalysis(short)

    def test_one_engine_under_both_names(self):
        assert BatchedMarkovSpatialAnalysis is MarkovSpatialAnalysis

    def test_properties_mirror_scalar(self, small):
        engine = BatchedMarkovSpatialAnalysis(
            small, body_truncation=2, head_truncation=4, substeps=2
        )
        assert engine.scenario is small
        assert engine.body_truncation == 2
        assert engine.head_truncation == 4
        assert engine.substeps == 2


class TestGridEvaluation:
    def test_defaults_come_from_the_template_scenario(self, small):
        engine = BatchedMarkovSpatialAnalysis(small)
        grid = engine.detection_probability_grid()
        assert grid.shape == (1, 1)
        assert engine.detection_probability() == grid[0, 0]

    def test_axis_validation(self, small):
        engine = BatchedMarkovSpatialAnalysis(small)
        with pytest.raises(AnalysisError, match="num_sensors values"):
            engine.detection_probability_grid(num_sensors=[0])
        with pytest.raises(AnalysisError, match="num_sensors values"):
            engine.detection_probability_grid(num_sensors=[2.5])
        with pytest.raises(AnalysisError, match="num_sensors values"):
            engine.detection_probability_grid(num_sensors=[True])
        with pytest.raises(AnalysisError, match="thresholds values"):
            engine.detection_probability_grid(thresholds=[-1])
        with pytest.raises(AnalysisError, match="threshold"):
            engine.detection_probability(threshold=-1)

    @pytest.mark.parametrize("threshold", [2.5, True])
    def test_singleton_threshold_validated_like_axis(self, small, threshold):
        # Never truncated to an int: 2.5 must not answer P[X >= 2].
        with pytest.raises(AnalysisError, match="thresholds values"):
            BatchedMarkovSpatialAnalysis(small).detection_probability(
                threshold=threshold
            )

    def test_empty_axis_yields_empty_grid(self, small):
        engine = BatchedMarkovSpatialAnalysis(small)
        assert engine.detection_probability_grid(thresholds=[]).shape == (1, 0)
        assert engine.detection_probability_grid(num_sensors=[]).shape == (0, 1)

    def test_threshold_beyond_support_is_zero(self, small):
        engine = BatchedMarkovSpatialAnalysis(small)
        support = engine.report_count_distributions().shape[1]
        grid = engine.detection_probability_grid(
            thresholds=[0, support, support + 100]
        )
        assert grid[0, 0] == pytest.approx(1.0)
        assert grid[0, 1] == 0.0
        assert grid[0, 2] == 0.0
        assert engine.detection_probability(threshold=support + 100) == 0.0

    def test_zero_mass_error_names_truncations_and_counts(self, tiny):
        engine = BatchedMarkovSpatialAnalysis(
            tiny, body_truncation=1, head_truncation=1
        )
        with pytest.raises(AnalysisError) as excinfo:
            engine.detection_probability_grid(num_sensors=[12, 500_000])
        message = str(excinfo.value)
        assert "num_sensors=[500000]" in message
        assert "g=1" in message and "gh=1" in message
        assert "increase the truncations" in message
        # The unnormalised grid is still defined (it is just zero).
        raw = engine.detection_probability_grid(
            num_sensors=[500_000], normalize=False
        )
        assert raw[0, 0] == 0.0

    def test_duplicate_axis_values_give_identical_rows(self, small):
        grid = BatchedMarkovSpatialAnalysis(small).detection_probability_grid(
            num_sensors=[30, 30], thresholds=[2, 2]
        )
        assert (grid[0] == grid[1]).all()
        assert (grid[:, 0] == grid[:, 1]).all()

    def test_functional_form_matches_class(self, small):
        grid = detection_probability_grid(
            small, num_sensors=[20, 40], thresholds=[1, 3]
        )
        reference = BatchedMarkovSpatialAnalysis(
            small
        ).detection_probability_grid(num_sensors=[20, 40], thresholds=[1, 3])
        assert (grid == reference).all()


class TestCacheAndObs:
    def test_distributions_are_cached_and_frozen(self, small):
        clear_analysis_cache()
        engine = BatchedMarkovSpatialAnalysis(small)
        first = engine.report_count_distributions(num_sensors=[10, 20])
        second = engine.report_count_distributions(num_sensors=[10, 20])
        assert first is second
        assert not first.flags.writeable

    def test_grid_key_excludes_threshold(self, small):
        key_a = grid_key(small, 3, 3, 1, [10, 20])
        key_b = grid_key(small.replace(threshold=7), 3, 3, 1, [10, 20])
        assert key_a == key_b
        assert key_a != grid_key(small, 3, 3, 1, [10, 21])
        assert key_a != grid_key(small, 4, 3, 1, [10, 20])

    def test_batch_points_counter(self, small):
        instrumentation = obs.Instrumentation()
        with obs.activate(instrumentation):
            BatchedMarkovSpatialAnalysis(small).detection_probability_grid(
                num_sensors=[10, 20, 30], thresholds=[1, 2]
            )
        assert instrumentation.counters["batch.points"] == 6
