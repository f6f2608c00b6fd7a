"""Adaptive design-space search: exact answers from O(log) oracle points.

The dense scans in :mod:`repro.core.design` answer sizing questions by
evaluating whole candidate axes.  The searches here answer the *same*
questions from a logarithmic number of oracle points by exploiting the
model's monotonicities (detection probability is non-decreasing in
``N`` and ``Rs``, non-increasing in ``k``), and they are **exact, not
approximate**:

* every evaluation goes through the same evaluator seam the dense scans
  use, so individual values are bitwise identical to dense-grid cells;
* the bisections maintain a verified bracket (both endpoints evaluated),
  so under monotonicity the answer *is* the dense scan's answer;
* every evaluated point is checked against the claimed monotonicity.
  If any sampled pair violates it, the search abandons bisection and
  falls back to a dense scan of the **original** search range over the
  same memoised oracle — counting ``adaptive.fallbacks`` — which
  reproduces the dense answer by construction.  The original range
  matters: a violation can surface only after the bracket has narrowed,
  and a scan of the shrunken bracket could miss the dense answer.

``tests/integration/test_adaptive_matrix.py`` (the oracle-equivalence
tier) pins adaptive == dense for every query type on pinned scenarios
across the in-process, cached, and distributed evaluator backends;
``tests/property/test_prop_adaptive.py`` proves the bisection cores on
random synthetic oracles, including injected violations.

``design_deployment`` is deliberately *not* here: its objective is not
monotone in ``N`` (the false-alarm-safe threshold grows with the fleet),
so it keeps its dense candidate scan.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.adaptive.evaluators import Evaluator, InProcessEvaluator
from repro.adaptive.ledger import EvaluationLedger
from repro.core.design import _SCAN_CHUNK
from repro.core.scenario import Scenario
from repro.errors import AnalysisError
from repro.experiments.sweeps import canonical_row

__all__ = [
    "MonotoneOracle",
    "adaptive_design_slice",
    "adaptive_maximum_threshold",
    "adaptive_minimum_sensors",
    "adaptive_rule_frontier",
    "bisect_first_meeting",
    "bisect_last_meeting",
    "dense_design_slice",
    "dense_rule_frontier",
]


class MonotoneOracle:
    """Memoised index -> value oracle with a claimed monotone direction.

    Wraps a batch evaluation callable (indexes -> values).  Every value
    ever evaluated is kept, both to avoid re-paying for a point (the
    dense fallback only evaluates indexes bisection has not already
    bought) and to check the monotonicity claim across *all* sampled
    points after every batch.

    Args:
        batch_evaluate: called with a list of distinct indexes; must
            return the oracle values in the same order.
        direction: ``+1`` for non-decreasing values, ``-1`` for
            non-increasing.
    """

    def __init__(
        self,
        batch_evaluate: Callable[[List[int]], Sequence[float]],
        direction: int,
    ):
        if direction not in (1, -1):
            raise AnalysisError(f"direction must be +1 or -1, got {direction}")
        self._batch = batch_evaluate
        self.direction = direction
        self.known: Dict[int, float] = {}

    def get(self, indexes: Sequence[int]) -> List[float]:
        """Values for ``indexes`` (evaluating only what is not memoised)."""
        todo = []
        seen = set()
        for index in indexes:
            if index not in self.known and index not in seen:
                seen.add(index)
                todo.append(index)
        if todo:
            values = self._batch(todo)
            for index, value in zip(todo, values):
                self.known[index] = float(value)
        return [self.known[index] for index in indexes]

    def consistent(self) -> bool:
        """Do all sampled points respect the claimed monotonicity?"""
        ordered = sorted(self.known.items())
        values = [value for _, value in ordered]
        if self.direction > 0:
            return all(a <= b for a, b in zip(values, values[1:]))
        return all(a >= b for a, b in zip(values, values[1:]))


def _interior_cuts(lo: int, hi: int, round_points: int) -> List[int]:
    """Up to ``round_points`` distinct indexes strictly inside (lo, hi).

    Evenly spaced section points: with ``round_points=1`` this is plain
    bisection; larger values trade evaluations for rounds (useful when a
    round is a fleet dispatch and per-round latency dominates).
    """
    span = hi - lo
    cuts = min(round_points, span - 1)
    mids = sorted(
        {lo + span * (j + 1) // (cuts + 1) for j in range(cuts)} - {lo, hi}
    )
    return mids


def bisect_first_meeting(
    oracle: MonotoneOracle,
    lo: int,
    hi: int,
    target: float,
    ledger: EvaluationLedger,
    round_points: int = 1,
) -> Optional[int]:
    """Smallest index in ``[lo, hi]`` with value >= ``target``, or ``None``.

    For a non-decreasing oracle (``direction=+1``).  Both endpoints are
    evaluated up front, so the bracket invariant ``v[lo] < target <=
    v[hi]`` is *verified*, not assumed; every later round re-checks all
    sampled points and falls back to a dense ascending scan on any
    violation.  The fallback always scans the **original** ``[lo, hi]``
    (over the same memo, so already-bought points are free): a violation
    detected after the bracket has narrowed may mean an earlier
    narrowing step trusted a lie, so the shrunken bracket cannot be
    assumed to contain the dense answer.

    Evaluations: at most ``ceil(log2(hi - lo)) + 2`` with
    ``round_points=1`` (property-tested).
    """
    if lo > hi:
        raise AnalysisError(f"empty search range [{lo}, {hi}]")
    orig_lo, orig_hi = lo, hi
    ledger.note_bisection()
    v_lo, v_hi = oracle.get([lo, hi])
    if not oracle.consistent():
        return _dense_first_meeting(oracle, orig_lo, orig_hi, target, ledger)
    if v_lo >= target:
        return lo
    if v_hi < target:
        return None
    while hi - lo > 1:
        mids = _interior_cuts(lo, hi, round_points)
        values = oracle.get(mids)
        if not oracle.consistent():
            return _dense_first_meeting(
                oracle, orig_lo, orig_hi, target, ledger
            )
        for mid, value in zip(mids, values):
            if value >= target:
                hi = mid
                break
            lo = mid
    return hi


def bisect_last_meeting(
    oracle: MonotoneOracle,
    lo: int,
    hi: int,
    target: float,
    ledger: EvaluationLedger,
    round_points: int = 1,
) -> Optional[int]:
    """Dense ``maximum_threshold`` semantics from O(log) evaluations.

    For a non-increasing oracle (``direction=-1``): the dense scan takes
    the index just before the *first failing* one — ``None`` when the
    first index already fails, ``hi`` when nothing fails.  Under
    monotonicity that is the last meeting index, which this bisection
    finds; on a sampled violation it falls back to a dense scan of the
    **original** ``[lo, hi]`` (not the narrowed bracket — see
    :func:`bisect_first_meeting`) applying the first-failing rule
    literally, so fallback answers match the dense path even on a
    non-monotone oracle.
    """
    if lo > hi:
        raise AnalysisError(f"empty search range [{lo}, {hi}]")
    orig_lo, orig_hi = lo, hi
    ledger.note_bisection()
    v_lo, v_hi = oracle.get([lo, hi])
    if not oracle.consistent():
        return _dense_last_meeting(oracle, orig_lo, orig_hi, target, ledger)
    if v_lo < target:
        return None
    if v_hi >= target:
        return hi
    while hi - lo > 1:
        mids = _interior_cuts(lo, hi, round_points)
        values = oracle.get(mids)
        if not oracle.consistent():
            return _dense_last_meeting(
                oracle, orig_lo, orig_hi, target, ledger
            )
        for mid, value in zip(mids, values):
            if value < target:
                hi = mid
                break
            lo = mid
    return lo


def _dense_first_meeting(
    oracle: MonotoneOracle,
    lo: int,
    hi: int,
    target: float,
    ledger: EvaluationLedger,
) -> Optional[int]:
    """Fallback: the dense ascending scan's literal answer."""
    ledger.note_fallback()
    values = oracle.get(list(range(lo, hi + 1)))
    for index, value in zip(range(lo, hi + 1), values):
        if value >= target:
            return index
    return None


def _dense_last_meeting(
    oracle: MonotoneOracle,
    lo: int,
    hi: int,
    target: float,
    ledger: EvaluationLedger,
) -> Optional[int]:
    """Fallback: predecessor of the first failing index, dense rule."""
    ledger.note_fallback()
    values = oracle.get(list(range(lo, hi + 1)))
    for index, value in zip(range(lo, hi + 1), values):
        if value < target:
            return None if index == lo else index - 1
    return hi


# ---------------------------------------------------------------------------
# Scenario-level queries
# ---------------------------------------------------------------------------


def _resolve(evaluator, truncation, backend) -> Evaluator:
    if evaluator is not None:
        return evaluator
    return InProcessEvaluator(truncation=truncation, backend=backend)


def _check_probability(required_probability: float) -> None:
    if not 0.0 < required_probability < 1.0:
        raise AnalysisError(
            f"required_probability must be in (0, 1), got {required_probability}"
        )


def _dense_chunk_cost(result: Optional[int], max_sensors: int) -> int:
    """Points the dense chunked ``minimum_sensors`` scan would evaluate."""
    if result is None:
        return max_sensors
    chunks = (result - 1) // _SCAN_CHUNK + 1
    return min(max_sensors, chunks * _SCAN_CHUNK)


def adaptive_minimum_sensors(
    scenario: Scenario,
    required_probability: float,
    max_sensors: int = 2_000,
    truncation: int = 3,
    backend: Optional[str] = None,
    evaluator: Optional[Evaluator] = None,
    round_points: int = 1,
) -> Optional[int]:
    """:func:`repro.core.design.minimum_sensors`, bisected along ``N``.

    Identical answer (the model's detection probability is non-decreasing
    in ``N``; verified per query, dense fallback otherwise) from
    ``O(log max_sensors)`` oracle points instead of the ascending chunked
    scan.
    """
    _check_probability(required_probability)
    if max_sensors < 1:
        raise AnalysisError(f"max_sensors must be >= 1, got {max_sensors}")
    ev = _resolve(evaluator, truncation, backend)
    oracle = MonotoneOracle(
        lambda indexes: ev.evaluate(
            scenario, [{"num_sensors": int(n)} for n in indexes]
        ),
        direction=+1,
    )
    before = ev.ledger.evaluations
    result = bisect_first_meeting(
        oracle, 1, max_sensors, required_probability, ev.ledger, round_points
    )
    spent = ev.ledger.evaluations - before
    ev.ledger.note_skipped(_dense_chunk_cost(result, max_sensors) - spent)
    return result


def _threshold_ceiling(scenario: Scenario) -> int:
    """The dense scan's ``k`` axis ceiling: every sensor reports always."""
    return scenario.num_sensors * (scenario.ms + 1)


def adaptive_maximum_threshold(
    scenario: Scenario,
    required_probability: float,
    truncation: int = 3,
    backend: Optional[str] = None,
    evaluator: Optional[Evaluator] = None,
    round_points: int = 1,
) -> Optional[int]:
    """:func:`repro.core.design.maximum_threshold`, bisected along ``k``.

    The dense path answers the whole ``k`` axis from one survival
    function; this touches ``O(log k_max)`` points instead — the win is
    the *evaluation count* (what a fleet or a budget meters), pinned
    identical in answer by the oracle-equivalence tier.
    """
    _check_probability(required_probability)
    ev = _resolve(evaluator, truncation, backend)
    ceiling = _threshold_ceiling(scenario)
    oracle = MonotoneOracle(
        lambda indexes: ev.evaluate(
            scenario, [{"threshold": int(k)} for k in indexes]
        ),
        direction=-1,
    )
    before = ev.ledger.evaluations
    result = bisect_last_meeting(
        oracle, 1, ceiling, required_probability, ev.ledger, round_points
    )
    spent = ev.ledger.evaluations - before
    ev.ledger.note_skipped(ceiling - spent)
    return result


def adaptive_rule_frontier(
    scenario: Scenario,
    targets: Sequence[float],
    truncation: int = 3,
    backend: Optional[str] = None,
    evaluator: Optional[Evaluator] = None,
    round_points: int = 1,
) -> List[dict]:
    """Largest safe ``k`` for each detection target, O(log) points per target.

    The multi-target frontier a designer actually asks for ("what rule
    can I afford at 0.8?  at 0.9?").  All targets share one memoised
    oracle, so overlapping bisection paths are bought once — and with a
    :class:`~repro.adaptive.evaluators.CachedEvaluator`, repeated calls
    re-buy nothing at all.

    Returns canonical rows (:func:`repro.experiments.sweeps.canonical_row`)
    ``{"required_probability", "threshold", "detection_probability"}``,
    byte-identical to :func:`dense_rule_frontier` on the same scenario.
    """
    targets = list(targets)
    for target in targets:
        _check_probability(target)
    ev = _resolve(evaluator, truncation, backend)
    ceiling = _threshold_ceiling(scenario)
    oracle = MonotoneOracle(
        lambda indexes: ev.evaluate(
            scenario, [{"threshold": int(k)} for k in indexes]
        ),
        direction=-1,
    )
    before = ev.ledger.evaluations
    rows = []
    for target in targets:
        threshold = bisect_last_meeting(
            oracle, 1, ceiling, target, ev.ledger, round_points
        )
        rows.append(_frontier_row(oracle, target, threshold))
    spent = ev.ledger.evaluations - before
    ev.ledger.note_skipped(ceiling - spent)
    return rows


def dense_rule_frontier(
    scenario: Scenario,
    targets: Sequence[float],
    truncation: int = 3,
    backend: Optional[str] = None,
    evaluator: Optional[Evaluator] = None,
) -> List[dict]:
    """The dense reference for :func:`adaptive_rule_frontier`.

    Evaluates the full ``k`` axis once (one evaluator ``grid`` call, so
    the ledger records the dense cost) and reads every target off it with
    the same first-failing rule the dense ``maximum_threshold`` scan
    applies.
    """
    targets = list(targets)
    for target in targets:
        _check_probability(target)
    ev = _resolve(evaluator, truncation, backend)
    ceiling = _threshold_ceiling(scenario)
    thresholds = list(range(1, ceiling + 1))
    row = ev.grid(scenario, thresholds=thresholds)[0]
    rows = []
    for target in targets:
        threshold: Optional[int] = ceiling
        for k, value in zip(thresholds, row):
            if value < target:
                threshold = None if k == 1 else k - 1
                break
        rows.append(
            canonical_row(
                {
                    "required_probability": float(target),
                    "threshold": threshold,
                    "detection_probability": (
                        None
                        if threshold is None
                        else float(row[threshold - 1])
                    ),
                }
            )
        )
    return rows


def _frontier_row(
    oracle: MonotoneOracle, target: float, threshold: Optional[int]
) -> dict:
    value = None if threshold is None else oracle.get([threshold])[0]
    return canonical_row(
        {
            "required_probability": float(target),
            "threshold": threshold,
            "detection_probability": value,
        }
    )


# ---------------------------------------------------------------------------
# Coarse-to-fine (V, Rs) slices
# ---------------------------------------------------------------------------


def _validate_slice_axes(speeds, sensing_ranges) -> None:
    if not speeds:
        raise AnalysisError("speeds must be non-empty")
    if not sensing_ranges:
        raise AnalysisError("sensing_ranges must be non-empty")
    if any(b <= a for a, b in zip(sensing_ranges, sensing_ranges[1:])):
        raise AnalysisError(
            "sensing_ranges must be strictly increasing (the Rs axis is "
            "the monotone search axis)"
        )


def adaptive_design_slice(
    template: Scenario,
    speeds: Sequence[float],
    sensing_ranges: Sequence[float],
    required_probability: float,
    truncation: int = 3,
    backend: Optional[str] = None,
    evaluator: Optional[Evaluator] = None,
    round_points: int = 1,
) -> List[dict]:
    """Minimal feasible ``Rs`` per target speed, coarse-to-fine.

    One frontier column per speed: the smallest sensing range on the
    given (ascending) axis that meets the detection requirement, found by
    bisection along ``Rs`` (detection probability is non-decreasing in
    the sensing range).  Columns warm-start from the previous speed's
    boundary: when the frontier moves slowly across speeds, verifying the
    old bracket costs two points instead of a fresh ``O(log)`` search —
    and because the bracket is *verified* (both sides evaluated), the
    warm path cannot change the answer, only the cost.

    Returns canonical rows ``{"target_speed", "sensing_range",
    "detection_probability"}``, byte-identical to
    :func:`dense_design_slice`.
    """
    _check_probability(required_probability)
    speeds = list(speeds)
    ranges = list(sensing_ranges)
    _validate_slice_axes(speeds, ranges)
    ev = _resolve(evaluator, truncation, backend)
    before = ev.ledger.evaluations
    last = len(ranges) - 1
    rows = []
    previous: Optional[int] = None
    for speed in speeds:
        oracle = MonotoneOracle(
            lambda indexes, _speed=speed: ev.evaluate(
                template,
                [
                    {
                        "target_speed": float(_speed),
                        "sensing_range": float(ranges[i]),
                    }
                    for i in indexes
                ],
            ),
            direction=+1,
        )
        answer = None
        warmed = False
        if previous is not None:
            warm = _warm_start(oracle, previous, required_probability)
            if warm is not None:
                answer = warm
                warmed = True
        if not warmed:
            answer = bisect_first_meeting(
                oracle, 0, last, required_probability, ev.ledger, round_points
            )
        rows.append(
            canonical_row(
                {
                    "target_speed": float(speed),
                    "sensing_range": (
                        None if answer is None else float(ranges[answer])
                    ),
                    "detection_probability": (
                        None if answer is None else oracle.get([answer])[0]
                    ),
                }
            )
        )
        previous = answer
    spent = ev.ledger.evaluations - before
    ev.ledger.note_skipped(len(speeds) * len(ranges) - spent)
    return rows


def _warm_start(
    oracle: MonotoneOracle, previous: int, target: float
) -> Optional[int]:
    """Try the previous column's boundary as a verified bracket.

    Returns the answer index when the bracket verifies (``v[previous] >=
    target`` and, unless ``previous == 0``, ``v[previous - 1] <
    target``), else ``None`` to request a full bisection.  Never trusted
    blindly: both sides are evaluated, so an accepted warm answer
    satisfies exactly the condition that defines the dense scan's first
    meeting index under monotonicity.
    """
    probes = [previous] if previous == 0 else [previous - 1, previous]
    values = oracle.get(probes)
    if not oracle.consistent():
        return None
    if previous == 0:
        return 0 if values[0] >= target else None
    below, at = values
    if at >= target and below < target:
        return previous
    return None


def dense_design_slice(
    template: Scenario,
    speeds: Sequence[float],
    sensing_ranges: Sequence[float],
    required_probability: float,
    truncation: int = 3,
    backend: Optional[str] = None,
    evaluator: Optional[Evaluator] = None,
) -> List[dict]:
    """The dense reference for :func:`adaptive_design_slice`.

    Evaluates the full ``speeds x sensing_ranges`` product through the
    evaluator (charging the dense cost to its ledger) and applies the
    same first-meeting rule per column.
    """
    _check_probability(required_probability)
    speeds = list(speeds)
    ranges = list(sensing_ranges)
    _validate_slice_axes(speeds, ranges)
    ev = _resolve(evaluator, truncation, backend)
    rows = []
    for speed in speeds:
        points = [
            {"target_speed": float(speed), "sensing_range": float(radius)}
            for radius in ranges
        ]
        values = ev.evaluate(template, points)
        answer = None
        for index, value in enumerate(values):
            if value >= required_probability:
                answer = index
                break
        rows.append(
            canonical_row(
                {
                    "target_speed": float(speed),
                    "sensing_range": (
                        None if answer is None else float(ranges[answer])
                    ),
                    "detection_probability": (
                        None if answer is None else float(values[answer])
                    ),
                }
            )
        )
    return rows
