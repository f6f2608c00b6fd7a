"""The M-S-approach (Section 3.4): the paper's headline contribution.

This is the paper-facing import path of the one engine that computes it,
:class:`repro.core.batched.MarkovSpatialAnalysis` (see that module for the
Head/Body/Tail stage decomposition, Eq. 12 and Eq. 13).  ``/analyze``,
``/sweep``, the design queries, sweeps and figures all run that class, so
they return the same bits for the same question.  The literal Eq. 12
matrix product is an oracle only:
:func:`repro.markov.counting.ms_chain_distribution`.
"""

from __future__ import annotations

# The stage helpers stay module attributes here: ``perfbench/tracing.py``
# patches them per module to attribute time to layers.
import numpy as np  # noqa: F401

from repro.core.batched import BatchedMarkovSpatialAnalysis, MarkovSpatialAnalysis
from repro.core.regions import body_subareas, head_subareas, tail_subareas  # noqa: F401
from repro.core.report_dist import stage_report_pmf  # noqa: F401

__all__ = ["BatchedMarkovSpatialAnalysis", "MarkovSpatialAnalysis"]
