"""The Eq. 12 matrix oracle the M-S-approach engine is pinned against.

It shares no arithmetic with the engine past the region geometry: the
stage pmfs come from the scalar Algorithm-1 helper
:func:`repro.core.report_dist.stage_report_pmf` (one occupancy binomial
per call, not the engine's log-gamma stack), and the chain is the literal
matrix product :func:`repro.markov.counting.ms_chain_distribution`, not
convolution by squaring.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.regions import body_subareas, head_subareas, tail_subareas
from repro.core.report_dist import stage_report_pmf
from repro.core.scenario import Scenario
from repro.markov.counting import ms_chain_distribution, ms_state_count


def oracle_distribution(
    scenario: Scenario,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
) -> np.ndarray:
    """Eq. 12 report-count distribution over ``ms_state_count`` states."""
    head_truncation = (
        body_truncation if head_truncation is None else head_truncation
    )

    def slice_pmf(subareas, truncation):
        return stage_report_pmf(
            np.asarray(subareas, dtype=float) / substeps,
            scenario.field_area,
            scenario.num_sensors,
            scenario.detect_prob,
            truncation,
        )

    return ms_chain_distribution(
        slice_pmf(head_subareas(scenario), head_truncation),
        slice_pmf(body_subareas(scenario), body_truncation),
        scenario.body_steps,
        [
            slice_pmf(tail_subareas(scenario, j), body_truncation)
            for j in range(1, scenario.ms + 1)
        ],
        ms_state_count(
            scenario.window,
            scenario.ms,
            max(head_truncation, body_truncation),
            substeps,
        ),
        substeps=substeps,
    )


def oracle_probability(
    distribution: np.ndarray, threshold: int, normalize: bool = True
) -> float:
    """``P_M[X >= k]`` from an oracle distribution (Eq. 13)."""
    tail = float(distribution[threshold:].sum())
    return tail / float(distribution.sum()) if normalize else tail
