"""Seeded input generation for every workload.

Everything the program receives is made here from the benchmark seed, and
nothing else: the same seed gives the same inputs, byte for byte.  This
module imports only numpy and the standard library, so the input streams
can be generated and tested without importing the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections import deque
from typing import Deque, Dict, List, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# The paper's ONR scenario (Section 4) as a plain scenario dict.
# ---------------------------------------------------------------------------

ONR_FIELD = 32_000.0
ONR_RANGE = 1_000.0
ONR_PERIOD = 60.0
ONR_PD = 0.9
ONR_WINDOW = 20
ONR_SPEEDS = (4.0, 10.0)
ONR_N_RANGE = (60, 240)
ONR_K_RANGE = (1, 10)


def onr_dict(speed: float, num_sensors: int, threshold: int) -> Dict[str, float]:
    """An ONR scenario in ``Scenario.to_dict`` form."""
    return {
        "field_width": ONR_FIELD,
        "field_height": ONR_FIELD,
        "num_sensors": int(num_sensors),
        "sensing_range": ONR_RANGE,
        "target_speed": float(speed),
        "sensing_period": ONR_PERIOD,
        "detect_prob": ONR_PD,
        "window": ONR_WINDOW,
        "threshold": int(threshold),
    }


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed), int(stream)])


# ---------------------------------------------------------------------------
# svc-onr: a request stream for /analyze and /sweep.
# ---------------------------------------------------------------------------

# No request trace exists for the service, so the mix below is chosen,
# not measured (workloads.md gives the reasons in full).  Requests fall in
# three latency classes: cache hits, /analyze misses and /sweep misses,
# in rising order.  The two shares put the median in the middle of the
# /analyze-miss class: hits take the bottom 0.25 of the distribution and
# /sweep misses the top (1 - 0.25) * 0.3 = 0.225.

#: Share of requests that repeat an earlier request (response-cache hits).
SVC_REPEAT_SHARE = 0.25
#: Repeats draw from this many most recent fresh requests, well inside the
#: service's default 1024-entry response cache, so they are served from it.
SVC_REPEAT_WINDOW = 256
#: Share of fresh requests that are ``/sweep`` (the rest are ``/analyze``).
SVC_SWEEP_SHARE = 0.3
#: Values per ``/sweep`` axis: enough that a sweep miss costs a few
#: /analyze misses, so the classes stay apart.
SVC_SWEEP_N_VALUES = 8
SVC_SWEEP_K_VALUES = 6


@dataclass(frozen=True)
class Request:
    """One HTTP request: endpoint path and exact body bytes."""

    path: str
    body: bytes


def _body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class ServiceRequestStream:
    """An endless, seeded stream of ``/analyze`` and ``/sweep`` requests.

    A fixed share of requests repeats one of the last
    :data:`SVC_REPEAT_WINDOW` fresh requests, chosen uniformly.  Fresh
    ``/analyze`` requests walk a seeded permutation of the whole ONR
    question space (V x N x k), so they are distinct until the
    space is used up, after which a new permutation starts.  Fresh
    ``/sweep`` requests draw a random ``num_sensors`` or ``threshold``
    axis.  Not thread-safe: callers serialise :meth:`next`.
    """

    def __init__(self, seed: int):
        self._rng = _rng(seed, 1)
        self._fresh: Deque[Request] = deque(maxlen=SVC_REPEAT_WINDOW)
        self._space: List[Tuple[float, int, int]] = [
            (speed, n, k)
            for speed in ONR_SPEEDS
            for n in range(ONR_N_RANGE[0], ONR_N_RANGE[1] + 1)
            for k in range(ONR_K_RANGE[0], ONR_K_RANGE[1] + 1)
        ]
        self._order: List[int] = []

    def _next_analyze(self) -> Request:
        if not self._order:
            self._order = list(self._rng.permutation(len(self._space)))
        speed, n, k = self._space[self._order.pop()]
        return Request("/analyze", _body({"scenario": onr_dict(speed, n, k)}))

    def _next_sweep(self) -> Request:
        rng = self._rng
        speed = ONR_SPEEDS[int(rng.integers(len(ONR_SPEEDS)))]
        n = int(rng.integers(ONR_N_RANGE[0], ONR_N_RANGE[1] + 1))
        k = int(rng.integers(ONR_K_RANGE[0], ONR_K_RANGE[1] + 1))
        if rng.random() < 0.5:
            values = sorted(
                int(v)
                for v in rng.choice(
                    np.arange(ONR_N_RANGE[0], ONR_N_RANGE[1] + 1),
                    SVC_SWEEP_N_VALUES,
                    replace=False,
                )
            )
            parameter = "num_sensors"
        else:
            values = sorted(
                int(v)
                for v in rng.choice(
                    np.arange(ONR_K_RANGE[0], ONR_K_RANGE[1] + 1),
                    SVC_SWEEP_K_VALUES,
                    replace=False,
                )
            )
            parameter = "threshold"
        payload = {
            "scenario": onr_dict(speed, n, k),
            "parameter": parameter,
            "values": values,
        }
        return Request("/sweep", _body(payload))

    def next(self) -> Request:
        rng = self._rng
        if self._fresh and rng.random() < SVC_REPEAT_SHARE:
            return self._fresh[int(rng.integers(len(self._fresh)))]
        if rng.random() < SVC_SWEEP_SHARE:
            request = self._next_sweep()
        else:
            request = self._next_analyze()
        self._fresh.append(request)
        return request


# ---------------------------------------------------------------------------
# analysis-slow: slow-target design questions from a recorded catalogue.
# ---------------------------------------------------------------------------

#: ``ms`` of each stratum; one question per stratum makes one cycle.
SLOW_STRATA = (17, 22, 28, 36, 48)
#: Catalogue entries per stratum (each a distinct geometry).
SLOW_CATALOGUE_SIZE = 40
#: The catalogue is fixed: it is drawn once from this seed and its dense
#: ``minimum_sensors`` answers are recorded in ``data/references.json``.
SLOW_CATALOGUE_SEED = 20080617
SLOW_FIELD = 16_000.0
SLOW_EXTRA_PERIODS = 4
SLOW_MAX_SENSORS = 128
SLOW_GRID_N = 8
SLOW_GRID_K = 4
#: Axes the grid's N and k values are drawn from.
SLOW_N_AXIS = tuple(range(20, SLOW_MAX_SENSORS + 1))
SLOW_K_AXIS = tuple(range(1, 9))
#: Per catalogue entry, the grid always holds these many N and k values
#: fixed by the catalogue, whose answers are recorded; the seed draws the
#: rest of the grid and which recorded cell the scalar engine answers.
SLOW_REF_N = 4
SLOW_REF_K = 2


def slow_speed_interval(ms: int) -> Tuple[float, float]:
    """Speeds whose ``ms = ceil(2 Rs / (V t))`` equals ``ms``, with margin."""
    low = 2.0 * ONR_RANGE / (ONR_PERIOD * ms)
    high = 2.0 * ONR_RANGE / (ONR_PERIOD * (ms - 1))
    span = high - low
    return low + 0.05 * span, high - 0.05 * span


def slow_dict(speed: float, ms: int, num_sensors: int, threshold: int) -> dict:
    """A slow-target scenario dict (window ``ms + 4`` on a 16 km field)."""
    return {
        "field_width": SLOW_FIELD,
        "field_height": SLOW_FIELD,
        "num_sensors": int(num_sensors),
        "sensing_range": ONR_RANGE,
        "target_speed": float(speed),
        "sensing_period": ONR_PERIOD,
        "detect_prob": ONR_PD,
        "window": int(ms + SLOW_EXTRA_PERIODS),
        "threshold": int(threshold),
    }


def slow_catalogue() -> List[dict]:
    """The fixed catalogue of design questions (no references).

    Each entry: stratum ``ms``, target speed, the adaptive query's
    threshold and required probability, and the fixed ``ref_n`` x
    ``ref_k`` cells whose probabilities are recorded.  Entry ids are
    ``"<ms>-<index>"``.
    """
    rng = _rng(SLOW_CATALOGUE_SEED, 2)
    cells = _rng(SLOW_CATALOGUE_SEED, 6)
    entries = []
    for ms in SLOW_STRATA:
        low, high = slow_speed_interval(ms)
        for index in range(SLOW_CATALOGUE_SIZE):
            entries.append(
                {
                    "id": f"{ms}-{index}",
                    "ms": ms,
                    "speed": float(rng.uniform(low, high)),
                    "threshold": int(rng.integers(2, 7)),
                    "required_probability": round(float(rng.uniform(0.55, 0.85)), 6),
                    "ref_n": _draw(cells, SLOW_N_AXIS, SLOW_REF_N),
                    "ref_k": _draw(cells, SLOW_K_AXIS, SLOW_REF_K),
                }
            )
    return entries


def _draw(rng: np.random.Generator, axis: Tuple[int, ...], count: int, exclude=()) -> List[int]:
    """``count`` distinct sorted values of ``axis`` outside ``exclude``."""
    pool = np.asarray([v for v in axis if v not in exclude])
    return sorted(int(v) for v in rng.choice(pool, count, replace=False))


@dataclass(frozen=True)
class Question:
    """One analysis-slow operation."""

    entry: dict
    grid_n: Tuple[int, ...]
    grid_k: Tuple[int, ...]
    point_n: int
    point_k: int

    def scenario(self, num_sensors: int, threshold: int) -> dict:
        return slow_dict(
            self.entry["speed"], self.entry["ms"], num_sensors, threshold
        )


class QuestionStream:
    """Cycles of questions, one per stratum, in stratum order.

    Catalogue entries are drawn per stratum without replacement (a new
    seeded permutation starts if a run exhausts a stratum).  The N x k
    grid holds the entry's recorded cells plus values drawn from the
    seed; the scalar point is a recorded cell drawn from the seed.
    """

    def __init__(self, seed: int, catalogue: List[dict]):
        self._rng = _rng(seed, 3)
        self._by_stratum = {
            ms: [e for e in catalogue if e["ms"] == ms] for ms in SLOW_STRATA
        }
        self._order: Dict[int, List[int]] = {ms: [] for ms in SLOW_STRATA}

    def _question(self, ms: int) -> Question:
        rng = self._rng
        if not self._order[ms]:
            self._order[ms] = list(rng.permutation(len(self._by_stratum[ms])))
        entry = self._by_stratum[ms][self._order[ms].pop()]
        ref_n, ref_k = entry["ref_n"], entry["ref_k"]
        grid_n = tuple(sorted(ref_n + _draw(rng, SLOW_N_AXIS, SLOW_GRID_N - SLOW_REF_N, ref_n)))
        grid_k = tuple(sorted(ref_k + _draw(rng, SLOW_K_AXIS, SLOW_GRID_K - SLOW_REF_K, ref_k)))
        point_n = ref_n[int(rng.integers(len(ref_n)))]
        point_k = ref_k[int(rng.integers(len(ref_k)))]
        return Question(entry, grid_n, grid_k, point_n, point_k)

    def next_cycle(self) -> List[Question]:
        return [self._question(ms) for ms in SLOW_STRATA]


# ---------------------------------------------------------------------------
# mc-onr: Monte Carlo operations on the ONR scenario.
# ---------------------------------------------------------------------------

MC_TRIALS = 800
MC_N_VALUES = tuple(range(60, 241, 30))
MC_K_VALUES = tuple(range(2, 11))
MC_FUSED_N = 4


@dataclass(frozen=True)
class MonteCarloOp:
    """One Monte Carlo operation: a fused grid or a plain simulator run.

    A cycle pairs a fused run with a plain run of the same seed at the
    fused engine's ``N_max``, whose report counts must equal the fused
    ``N_max`` column bit for bit.
    """

    kind: str  # "fused" | "simulator"
    speed: float
    num_sensors: Tuple[int, ...]
    thresholds: Tuple[int, ...]
    seed: int


class MonteCarloStream:
    """Cycles of four operations: fused + plain at V = 4, then at V = 10."""

    def __init__(self, seed: int):
        self._rng = _rng(seed, 4)

    def next_cycle(self) -> List[MonteCarloOp]:
        rng = self._rng
        ops = []
        for speed in ONR_SPEEDS:
            smaller = sorted(
                int(v)
                for v in rng.choice(
                    np.asarray(MC_N_VALUES[:-1]), MC_FUSED_N - 1, replace=False
                )
            )
            axis = tuple(smaller) + (MC_N_VALUES[-1],)
            op_seed = int(rng.integers(2**31 - 1))
            k = int(rng.choice(np.asarray(MC_K_VALUES)))
            ops.append(MonteCarloOp("fused", speed, axis, MC_K_VALUES, op_seed))
            ops.append(
                MonteCarloOp("simulator", speed, (MC_N_VALUES[-1],), (k,), op_seed)
            )
        return ops


# ---------------------------------------------------------------------------
# fleet-sweep: one analytical grid over speed x Rs x N.
# ---------------------------------------------------------------------------

#: The grid's speeds and ranges are fixed, so every seed sweeps the same
#: ``ms`` mix (3..16) and costs the same; the seed draws the N axis and
#: the template's threshold.
FLEET_SPEEDS = (2.5, 4.0, 5.0, 7.0, 10.0)
FLEET_RANGES = (800.0, 1000.0, 1200.0)
FLEET_N = 10


def fleet_grid(seed: int) -> Dict[str, List]:
    """The run's sweep grid: 5 speeds x 3 ranges x 10 N = 150 points.

    Every value is a plain JSON number so the distributed path's point
    fingerprint matches the serial path's.
    """
    rng = _rng(seed, 5)
    counts = sorted(
        int(v) for v in rng.choice(np.arange(60, 241, 5), FLEET_N, replace=False)
    )
    return {
        "target_speed": list(FLEET_SPEEDS),
        "sensing_range": list(FLEET_RANGES),
        "num_sensors": counts,
        "threshold": [int(rng.integers(3, 8))],
    }


def fleet_template(grid: Dict[str, List]) -> dict:
    """Template scenario for the sweep: ONR with the grid's first values."""
    return onr_dict(grid["target_speed"][0], grid["num_sensors"][0], grid["threshold"][0])
