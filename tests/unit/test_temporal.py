"""Unit tests for repro.core.temporal (the state-explosion argument)."""

import pytest

from repro.core.temporal import (
    t_approach_state_count,
    t_approach_state_count_detailed,
)
from repro.errors import AnalysisError
from repro.experiments.presets import onr_scenario


class TestStateCount:
    def test_formula(self, onr):
        # (M*Z + 1) * (g+1)^ms with Z = (ms+1)*g = 15, ms = 4, g = 3.
        expected = (20 * 15 + 1) * 4**4
        assert t_approach_state_count(onr, 3) == expected

    def test_explodes_for_slow_targets(self, onr, onr_slow):
        # ms jumps from 4 to 9; the occupancy factor goes 4^4 -> 4^9.
        assert t_approach_state_count(onr_slow, 3) > 100 * t_approach_state_count(
            onr, 3
        )

    def test_paper_claim_millions_of_states(self, onr_slow):
        # "the Markov chain needs to use millions or more states" (Sec. 3.2).
        assert t_approach_state_count(onr_slow, 3) > 1_000_000

    def test_detailed_count_dominates(self, onr):
        assert t_approach_state_count_detailed(onr, 3) >= t_approach_state_count(
            onr, 3
        )

    def test_ms_approach_is_exponentially_smaller(self, onr):
        from repro.markov.counting import ms_state_count

        msa_states = ms_state_count(onr.window, onr.ms, 3)
        assert t_approach_state_count(onr, 3) > 200 * msa_states

    def test_invalid_truncation_rejected(self, onr):
        with pytest.raises(AnalysisError):
            t_approach_state_count(onr, 0)
        with pytest.raises(AnalysisError):
            t_approach_state_count_detailed(onr, 0)
