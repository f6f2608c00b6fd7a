"""The paper's contribution: analytical models of group based detection.

Public entry points:

* :class:`~repro.core.scenario.Scenario` — the parameter bundle
  ``(S, N, Rs, V, t, Pd, M, k)``.
* :func:`~repro.core.single_period.detection_probability_single_period` —
  the ``M = 1`` preliminary case (Section 3.1).
* :class:`~repro.core.spatial.SApproach` — the exact-but-expensive
  S-approach (Section 3.3).
* :class:`~repro.core.markov_spatial.MarkovSpatialAnalysis` — the
  M-S-approach, the paper's headline method (Section 3.4), for one point
  or a whole ``(N, k)`` grid in stacked kernels
  (``BatchedMarkovSpatialAnalysis`` is the same class).
* :class:`~repro.core.exact_spatial.ExactSpatialAnalysis` — untruncated
  exact reference (our addition; see DESIGN.md).
* :class:`~repro.core.multinode.MultiNodeAnalysis` — the ">= k reports from
  >= h nodes" extension sketched at the end of Section 4.
* :mod:`~repro.core.false_alarms` — the Section 6 future-work false-alarm
  model (minimum safe ``k``).
"""

from repro.core.scenario import Scenario
from repro.core.single_period import (
    detection_probability_single_period,
    report_count_pmf_single_period,
)
from repro.core.spatial import SApproach
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.exact_spatial import ExactSpatialAnalysis
from repro.core.latency import DetectionLatencyAnalysis
from repro.core.multinode import MultiNodeAnalysis
from repro.core.accuracy import (
    required_body_truncation,
    required_head_truncation,
    required_s_approach_truncation,
    stage_accuracy,
)
from repro.core.design import (
    DesignPoint,
    design_deployment,
    maximum_threshold,
    minimum_sensors,
    rule_frontier,
)

__all__ = [
    "BatchedMarkovSpatialAnalysis",
    "DetectionLatencyAnalysis",
    "ExactSpatialAnalysis",
    "MarkovSpatialAnalysis",
    "DesignPoint",
    "MultiNodeAnalysis",
    "SApproach",
    "Scenario",
    "design_deployment",
    "maximum_threshold",
    "minimum_sensors",
    "rule_frontier",
    "detection_probability_single_period",
    "report_count_pmf_single_period",
    "required_body_truncation",
    "required_head_truncation",
    "required_s_approach_truncation",
    "stage_accuracy",
]
