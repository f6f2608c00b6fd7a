"""PERF-BATCH: batched grid evaluation vs the per-point loop.

Times the two ways of answering a ``(N, k)`` detection-probability grid
on the paper's validation scenario, both on the one M-S-approach engine:

* **scalar** — one singleton
  :class:`repro.core.markov_spatial.MarkovSpatialAnalysis` call per point
  (the distribution stack is cached per ``N``, so a new ``k`` at a seen
  ``N`` is a survival lookup);
* **batched** — one ``detection_probability_grid`` call for the whole
  grid (stacked stage pmfs, exponentiation-by-squaring body power, every
  ``k`` from one survival function).

Both passes start from a cold analysis cache.  At the full grid
(``REPRO_BENCH_GRID`` = 16, i.e. 256 points) the batched path must be
>= 10x faster and agree with the scalar loop to 1e-12 — the ISSUE 5
acceptance gates, asserted here so the committed record can never drift
from a run that didn't meet them.

Environment knobs:

* ``REPRO_BENCH_GRID`` — grid side length (default 16; the speedup and
  parity gates apply whenever ``side**2 >= 256``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cache import clear_analysis_cache
from repro.core.batched import BatchedMarkovSpatialAnalysis
from repro.core.kernels import FFT_MIN_WIDTH, resolve_backend
from repro.core.markov_spatial import MarkovSpatialAnalysis
from repro.experiments.presets import onr_scenario
from repro.experiments.records import ExperimentRecord

#: Parity bound between the two paths (one engine, batch-invariant
#: kernels: they agree bitwise, well inside the bound).
PARITY_ATOL = 1e-12

#: Required speedup at the full 256-point grid.
MIN_SPEEDUP = 10.0


def _grid_axes(side: int):
    """``side`` fleet sizes spanning the Fig. 9 range, ``side`` thresholds."""
    num_sensors = [int(n) for n in np.linspace(40, 280, side)]
    thresholds = list(range(1, side + 1))
    return num_sensors, thresholds


def test_batched_grid_speedup(emit_record):
    side = int(os.environ.get("REPRO_BENCH_GRID", "16"))
    num_sensors, thresholds = _grid_axes(side)
    points = len(num_sensors) * len(thresholds)
    scenario = onr_scenario(num_sensors=num_sensors[0], speed=10.0)

    # Warm the numpy/scipy code paths with a different geometry so
    # neither timed pass pays first-import costs.
    MarkovSpatialAnalysis(
        onr_scenario(num_sensors=60, speed=4.0), 3
    ).detection_probability()
    BatchedMarkovSpatialAnalysis(
        onr_scenario(num_sensors=60, speed=4.0), 3
    ).detection_probability()

    clear_analysis_cache()
    start = time.perf_counter()
    scalar = np.empty((len(num_sensors), len(thresholds)))
    for i, count in enumerate(num_sensors):
        analysis = MarkovSpatialAnalysis(
            scenario.replace(num_sensors=count), 3
        )
        for j, threshold in enumerate(thresholds):
            scalar[i, j] = analysis.detection_probability(threshold=threshold)
    scalar_seconds = time.perf_counter() - start

    clear_analysis_cache()
    start = time.perf_counter()
    batched = BatchedMarkovSpatialAnalysis(
        scenario, 3
    ).detection_probability_grid(
        num_sensors=num_sensors, thresholds=thresholds
    )
    batched_seconds = time.perf_counter() - start

    max_deviation = float(np.abs(batched - scalar).max())
    speedup = scalar_seconds / batched_seconds

    assert max_deviation <= PARITY_ATOL, (
        f"batched grid deviates from the scalar loop by {max_deviation:.3e}"
        f" (> {PARITY_ATOL})"
    )
    if points >= 256:
        assert speedup >= MIN_SPEEDUP, (
            f"batched evaluation of {points} points is only {speedup:.1f}x "
            f"faster than the scalar loop (need >= {MIN_SPEEDUP}x)"
        )

    record = ExperimentRecord(
        experiment_id="PERF-BATCH",
        title="Batched (N, k) grid evaluation vs per-point scalar loop",
        parameters={
            "grid_side": side,
            "points": points,
            "num_sensors_axis": num_sensors,
            "thresholds_axis": thresholds,
            "speed": 10.0,
            "truncation": 3,
            "backend": resolve_backend(None),
            "fft_min_width": FFT_MIN_WIDTH,
            "cpu_count": os.cpu_count(),
        },
    )
    record.add_row(
        path="scalar",
        seconds=scalar_seconds,
        per_point_ms=scalar_seconds / points * 1e3,
        speedup=1.0,
        max_abs_deviation=0.0,
    )
    record.add_row(
        path="batched",
        seconds=batched_seconds,
        per_point_ms=batched_seconds / points * 1e3,
        speedup=speedup,
        max_abs_deviation=max_deviation,
    )
    emit_record(record)
