"""Property-based tests pinning the M-S-approach engine to its oracle.

The contracts the sweep/design/service layers rely on:

* **1e-12 oracle parity** — every entry of an ``(N, k)`` grid matches the
  literal Eq. 12 matrix product (:mod:`tests.oracles`) evaluated at that
  point (the engine convolves by squaring, the oracle multiplies
  matrices, so the agreement is to rounding, not bitwise);
* **batch invariance** — a singleton evaluation is *bitwise* equal to
  the corresponding grid row (this is what makes the sweep layer's
  batched and per-point dispatch paths byte-identical);
* **survival monotonicity** — ``P_M[X >= k]`` is non-increasing in ``k``;
* **convolution-vs-matrix parity**, lifted from the single fixture
  assert in ``tests/unit/test_markov_spatial.py`` into a sampled
  property, and extended to every row of a distribution stack.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.scenario import Scenario
from repro.deployment.field import SensorField
from tests.oracles import oracle_distribution, oracle_probability

PARITY_ATOL = 1e-12


def scenario_strategy():
    """Random sparse scenarios with M > ms, kept small enough that a
    property example costs a few milliseconds (ms <= 4, window <= ms + 5)."""

    @st.composite
    def build(draw):
        sensing_range = draw(st.floats(50.0, 300.0))
        ratio = draw(st.floats(0.3, 1.5))  # step / sensing diameter
        step = ratio * 2.0 * sensing_range
        ms = math.ceil(2.0 * sensing_range / step)
        window = ms + draw(st.integers(1, 5))
        num_sensors = draw(st.integers(5, 60))
        detect_prob = draw(st.floats(0.3, 1.0))
        aregion = 2 * window * sensing_range * step + math.pi * sensing_range**2
        side = math.sqrt(aregion) * draw(st.floats(4.0, 10.0))
        return Scenario(
            field=SensorField.square(side),
            num_sensors=num_sensors,
            sensing_range=sensing_range,
            target_speed=step,
            sensing_period=1.0,
            detect_prob=detect_prob,
            window=window,
            threshold=draw(st.integers(1, 4)),
        )

    return build()


def axes_strategy():
    """Small (N-axis, k-axis) grids; the k axis may run past the support."""
    return st.tuples(
        st.lists(st.integers(1, 80), min_size=1, max_size=3),
        st.lists(st.integers(0, 40), min_size=1, max_size=3),
    )


class TestBatchedScalarParity:
    @given(
        scenario=scenario_strategy(),
        axes=axes_strategy(),
        body_truncation=st.integers(1, 4),
        head_truncation=st.one_of(st.none(), st.integers(1, 4)),
        substeps=st.integers(1, 2),
        normalize=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_scalar_pointwise(
        self, scenario, axes, body_truncation, head_truncation, substeps, normalize
    ):
        num_sensors, thresholds = axes
        grid = BatchedMarkovSpatialAnalysis(
            scenario,
            body_truncation=body_truncation,
            head_truncation=head_truncation,
            substeps=substeps,
        ).detection_probability_grid(
            num_sensors=num_sensors, thresholds=thresholds, normalize=normalize
        )
        for i, count in enumerate(num_sensors):
            matrix = oracle_distribution(
                scenario.replace(num_sensors=count),
                body_truncation=body_truncation,
                head_truncation=head_truncation,
                substeps=substeps,
            )
            for j, threshold in enumerate(thresholds):
                reference = oracle_probability(matrix, threshold, normalize)
                assert abs(grid[i, j] - reference) <= PARITY_ATOL

    @given(scenario=scenario_strategy(), axes=axes_strategy())
    @settings(max_examples=25, deadline=None)
    def test_singleton_rows_bitwise_equal_grid_rows(self, scenario, axes):
        """Batch invariance: the sweep layer's byte-identity contract."""
        num_sensors, thresholds = axes
        grid = BatchedMarkovSpatialAnalysis(
            scenario
        ).detection_probability_grid(
            num_sensors=num_sensors, thresholds=thresholds
        )
        for i, count in enumerate(num_sensors):
            singleton = BatchedMarkovSpatialAnalysis(
                scenario.replace(num_sensors=count)
            ).detection_probability_grid(thresholds=thresholds)
            assert (singleton[0] == grid[i]).all()


class TestSurvivalMonotonicity:
    @given(
        scenario=scenario_strategy(),
        counts=st.lists(st.integers(1, 80), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_survival_non_increasing_in_k(self, scenario, counts):
        engine = BatchedMarkovSpatialAnalysis(scenario)
        survival = engine.survival_grid(num_sensors=counts)
        assert (np.diff(survival, axis=1) <= 1e-15).all()
        # And through the normalised grid over an explicit ascending k axis.
        thresholds = list(range(0, survival.shape[1] + 2))
        grid = engine.detection_probability_grid(
            num_sensors=counts, thresholds=thresholds
        )
        assert (np.diff(grid, axis=1) <= 1e-15).all()
        assert (grid >= 0.0).all() and (grid <= 1.0 + 1e-12).all()


class TestMethodParity:
    @given(
        scenario=scenario_strategy(),
        body_truncation=st.integers(1, 3),
        substeps=st.integers(1, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_convolution_matches_matrix(
        self, scenario, body_truncation, substeps
    ):
        """The unit suite's single fixture assert, sampled over scenarios."""
        convolution = MarkovSpatialAnalysis(
            scenario, body_truncation=body_truncation, substeps=substeps
        ).report_count_distribution()
        matrix = oracle_distribution(
            scenario, body_truncation=body_truncation, substeps=substeps
        )
        np.testing.assert_allclose(
            convolution, matrix[: convolution.size], rtol=0, atol=1e-12
        )
        assert abs(matrix[convolution.size :].sum()) <= 1e-15

    @given(
        scenario=scenario_strategy(),
        counts=st.lists(st.integers(1, 80), min_size=1, max_size=3),
        body_truncation=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_distribution_matches_matrix(
        self, scenario, counts, body_truncation
    ):
        """Eq. 12 parity extended to the stack: each row of
        ``report_count_distributions`` is the matrix result for its N."""
        stack = BatchedMarkovSpatialAnalysis(
            scenario, body_truncation=body_truncation
        ).report_count_distributions(num_sensors=counts)
        for row, count in zip(stack, counts):
            matrix = oracle_distribution(
                scenario.replace(num_sensors=count),
                body_truncation=body_truncation,
            )
            np.testing.assert_allclose(
                row, matrix[: row.size], rtol=0, atol=1e-12
            )
