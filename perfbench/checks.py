"""Output checks, one family per workload.

Each check returns ``None`` when the answer is right and a one-line
reason when it is wrong; the workloads count every wrong answer as a
failed operation.  The checks use only numpy, scipy and the standard
library, so a perturbed answer can be fed to them directly in tests.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import beta

#: Absolute tolerance between an engine answer and its reference.
ANSWER_TOLERANCE = 1e-9
#: Family-wise confidence of the Monte Carlo bands in one run.
MC_CONFIDENCE = 0.999


# ---------------------------------------------------------------------------
# svc-onr
# ---------------------------------------------------------------------------


class ServiceReference:
    """Reference ``P[X >= k]`` over the ONR question space, per speed.

    ``grids[speed][n - n_low, k - k_low]`` holds the recorded answer; the
    service's scalar ``/analyze`` engine and its ``/sweep`` engine must
    both agree with it within :data:`ANSWER_TOLERANCE`.
    """

    def __init__(self, grids: Dict[float, np.ndarray], n_low: int, k_low: int):
        self.grids = grids
        self.n_low = n_low
        self.k_low = k_low

    def value(self, scenario: dict, num_sensors=None, threshold=None) -> float:
        n = scenario["num_sensors"] if num_sensors is None else num_sensors
        k = scenario["threshold"] if threshold is None else threshold
        grid = self.grids[float(scenario["target_speed"])]
        return float(grid[int(n) - self.n_low, int(k) - self.k_low])


def check_service_response(
    path: str, request_body: bytes, status: int, body: bytes, reference: ServiceReference
) -> Optional[str]:
    """A 200 whose every probability matches the reference."""
    if status != 200:
        return f"{path} answered HTTP {status}"
    try:
        request = json.loads(request_body)
        answer = json.loads(body)
    except ValueError as exc:
        return f"{path} answered malformed JSON: {exc}"
    scenario = request["scenario"]
    if path == "/analyze":
        pairs = [(answer["detection_probability"], reference.value(scenario))]
    else:
        parameter = request["parameter"]
        rows = answer["rows"]
        if [row[parameter] for row in rows] != request["values"]:
            return f"/sweep rows do not follow the requested {parameter} axis"
        pairs = [
            (row["detection_probability"], reference.value(scenario, **{parameter: row[parameter]}))
            for row in rows
        ]
    for got, want in pairs:
        if not abs(got - want) <= ANSWER_TOLERANCE:
            return f"{path} answered {got!r}, reference {want!r}"
    return None


def check_same_bytes(first: bytes, again: bytes) -> Optional[str]:
    """A repeated request (cache hit, coalesced follower) repeats its bytes."""
    if first != again:
        return "a repeated request answered different bytes"
    return None


# ---------------------------------------------------------------------------
# analysis-slow
# ---------------------------------------------------------------------------


def check_question(
    scalar: float,
    grid: np.ndarray,
    point: Tuple[int, int],
    reference: Dict[Tuple[int, int], float],
    adaptive_n: Optional[int],
    reference_n: Optional[int],
) -> Optional[str]:
    """Both engines match the recorded cells; adaptive equals the dense answer.

    ``point`` is the grid cell the scalar engine answered; ``reference``
    maps recorded grid cells to their recorded values.
    """
    batched = float(grid[point])
    if not abs(scalar - batched) <= ANSWER_TOLERANCE:
        return f"scalar {scalar!r} and batched {batched!r} engines disagree"
    if not abs(scalar - reference[point]) <= ANSWER_TOLERANCE:
        return f"scalar {scalar!r}, reference {reference[point]!r}"
    for cell, want in reference.items():
        if not abs(float(grid[cell]) - want) <= ANSWER_TOLERANCE:
            return f"batched cell {cell} is {float(grid[cell])!r}, reference {want!r}"
    if not np.all(np.isfinite(grid)) or grid.min() < 0.0 or grid.max() > 1.0:
        return "batched grid holds values outside [0, 1]"
    if adaptive_n != reference_n:
        return f"adaptive minimum N {adaptive_n} != recorded dense answer {reference_n}"
    return None


# ---------------------------------------------------------------------------
# mc-onr
# ---------------------------------------------------------------------------


def bonferroni_alpha(confidence: float, tests: int) -> float:
    """Per-test two-sided alpha for a family of ``tests`` at ``confidence``."""
    return (1.0 - confidence) / max(tests, 1)


def clopper_pearson_interval(successes: int, trials: int, alpha: float):
    """Exact two-sided binomial (Clopper-Pearson) band at level ``alpha``."""
    low = 0.0 if successes == 0 else beta.ppf(alpha / 2.0, successes, trials - successes + 1)
    high = (
        1.0
        if successes == trials
        else beta.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes)
    )
    return float(low), float(high)


def check_mc_estimate(
    successes: int, trials: int, reference_p: float, alpha: float
) -> Optional[str]:
    """The reference lies inside the estimate's Clopper-Pearson band."""
    low, high = clopper_pearson_interval(successes, trials, alpha)
    if not low <= reference_p <= high:
        return (
            f"estimate {successes}/{trials} has exact band [{low:.4f}, {high:.4f}]"
            f" without the reference {reference_p:.4f}"
        )
    return None


def check_fused_column(
    plain_counts: np.ndarray, fused_counts: np.ndarray
) -> Optional[str]:
    """A plain run equals the fused ``N_max`` column of the same seed."""
    if not np.array_equal(plain_counts, fused_counts):
        return "plain run and fused N_max column differ for one seed"
    return None


# ---------------------------------------------------------------------------
# fleet-sweep
# ---------------------------------------------------------------------------


def canonical_bytes(rows: Sequence[dict], canonical_row) -> bytes:
    """The rows as canonical JSON bytes (``canonical_row`` per row)."""
    return json.dumps([canonical_row(row) for row in rows], sort_keys=True).encode()


def check_sweep_rows(got: bytes, want: bytes) -> Optional[str]:
    if got != want:
        return "sweep rows differ from the serial path's bytes"
    return None
