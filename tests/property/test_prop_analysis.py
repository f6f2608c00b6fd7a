"""Property-based tests for the analytical models (scenario-level invariants)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.scenario import Scenario
from repro.deployment.field import SensorField
from tests.oracles import oracle_distribution


def scenario_strategy():
    """Random sparse scenarios with M > ms (the analysed regime)."""

    @st.composite
    def build(draw):
        sensing_range = draw(st.floats(50.0, 500.0))
        ratio = draw(st.floats(0.15, 1.5))  # step / sensing diameter
        step = ratio * 2.0 * sensing_range
        ms = math.ceil(2.0 * sensing_range / step)
        window = ms + draw(st.integers(1, 12))
        num_sensors = draw(st.integers(5, 80))
        detect_prob = draw(st.floats(0.3, 1.0))
        threshold = draw(st.integers(1, 6))
        # Field large enough to keep the scenario sparse.
        aregion = 2 * window * sensing_range * step + math.pi * sensing_range**2
        side = math.sqrt(aregion) * draw(st.floats(4.0, 12.0))
        return Scenario(
            field=SensorField.square(side),
            num_sensors=num_sensors,
            sensing_range=sensing_range,
            target_speed=step,
            sensing_period=1.0,
            detect_prob=detect_prob,
            window=window,
            threshold=threshold,
        )

    return build()


class TestAnalysisInvariants:
    @given(scenario=scenario_strategy())
    @settings(max_examples=40, deadline=None)
    def test_ms_engines_agree(self, scenario):
        analysis = MarkovSpatialAnalysis(scenario, body_truncation=2)
        conv = analysis.report_count_distribution()
        import numpy as np

        matrix = oracle_distribution(scenario, body_truncation=2)
        np.testing.assert_allclose(
            conv, matrix[: conv.size], rtol=0, atol=1e-10
        )

    @given(scenario=scenario_strategy())
    @settings(max_examples=40, deadline=None)
    def test_detection_probability_valid_and_bounded_by_normalised(self, scenario):
        analysis = MarkovSpatialAnalysis(scenario, body_truncation=2)
        raw = analysis.detection_probability(normalize=False)
        normalised = analysis.detection_probability(normalize=True)
        assert 0.0 <= raw <= normalised <= 1.0

    @given(scenario=scenario_strategy())
    @settings(max_examples=30, deadline=None)
    def test_ms_converges_to_exact_oracle(self, scenario):
        """With truncations at N, the M-S result matches the exact oracle up
        to the NEDR-independence approximation, which vanishes in the sparse
        limit — allow a small absolute tolerance."""
        exact = ExactSpatialAnalysis(scenario).detection_probability()
        full = MarkovSpatialAnalysis(
            scenario,
            body_truncation=min(scenario.num_sensors, 25),
        ).detection_probability()
        assert full == pytest.approx(exact, abs=0.02)

    @given(scenario=scenario_strategy())
    @settings(max_examples=30, deadline=None)
    def test_accuracy_increases_with_truncation(self, scenario):
        etas = [
            MarkovSpatialAnalysis(scenario, g).analysis_accuracy()
            for g in (1, 2, 4)
        ]
        assert etas == sorted(etas)
        assert 0.0 < etas[-1] <= 1.0 + 1e-9

    @given(scenario=scenario_strategy())
    @settings(max_examples=30, deadline=None)
    def test_exact_tail_monotone_in_threshold(self, scenario):
        exact = ExactSpatialAnalysis(scenario)
        values = [exact.detection_probability(k) for k in range(0, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestSensitivityProperties:
    @given(scenario=scenario_strategy())
    @settings(max_examples=10, deadline=None)
    def test_elasticity_report_well_formed(self, scenario):
        """Elasticities exist and the report is internally consistent for
        random analysable scenarios."""
        from repro.core.sensitivity import parameter_elasticities
        from repro.errors import AnalysisError

        # Guard: perturbing M needs headroom over ms, and the detection
        # probability must be non-zero.
        if scenario.window <= scenario.ms + 1:
            return
        try:
            report = parameter_elasticities(scenario, truncation=2)
        except AnalysisError:
            return  # zero detection probability at this operating point
        assert report.detection_probability > 0.0
        assert set(report.ranked_parameters()) == set(report.elasticities)
        # Raising k never helps; extending M never hurts.
        assert report.threshold_step_effect <= 1e-9
        assert report.window_step_effect >= -1e-9
