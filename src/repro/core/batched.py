"""The M-S-approach engine (Section 3.4): one implementation of Eqs. 12-13.

The ARegion is processed one NEDR per period.  Each stage's report-count
pmf is computed over at most ``gh`` (Head) or ``g`` (Body/Tail) sensors in
that NEDR, and a counting Markov chain accumulates the total:

* **Head stage** — period 1, NEDR is the whole first DR, subareas
  ``AreaH(i)`` (Eq. 6), truncation ``gh``;
* **Body stage** — periods ``2 .. M - ms``, crescent NEDR of area
  ``2*Rs*V*t``, subareas ``AreaB(i)`` (Eq. 8), truncation ``g``, all
  ``M - ms - 1`` steps share one transition matrix;
* **Tail stage** — periods ``M - ms + 1 .. M``, same NEDR area but subareas
  ``AreaT_j(i)`` (Eq. 10), one distinct matrix per step.

``Result = u * TH * TB^(M-ms-1) * prod_j TT_j`` (Eq. 12), and the detection
probability normalises by the captured mass (Eq. 13).  Every transition
matrix is a pure counting shift, so the product is a chain of stage-pmf
convolutions; the literal matrix product survives only as an oracle
(:func:`repro.markov.counting.ms_chain_distribution`).

The engine evaluates whole ``(N, k)`` grids at once.  For scenarios
sharing their geometry (``Rs``, ``V * t``, ``M``) and detection physics
(``Pd``, field area, truncations), the analysis factorises:

* the region decomposition (Eqs. 6/8/10) and the *conditional* per-sensor
  report pmfs depend on neither ``N`` nor ``k`` — computed once per grid;
* the occupancy binomials (Eqs. 7/9's truncated ``Binomial(N, area/S)``)
  are evaluated for every ``N`` at once via vectorised log-gamma;
* the Body stage's ``TB^(M-ms-1)`` power is applied by
  exponentiation-by-squaring on the convolution representation —
  ``O(log body_steps)`` stacked convolutions;
* every threshold ``k`` is answered from *one* survival function per
  scenario (a reverse cumulative sum).

A single question is the ``1 x 1`` grid: the singleton accessors
(:meth:`MarkovSpatialAnalysis.detection_probability`, the stage pmfs and
accuracies) are views of the template-``N`` row.

One engine, the same bits everywhere
------------------------------------

Every kernel reduction runs in a fixed per-row order that does not depend
on the batch shape, so a grid evaluation and a sequence of singleton
evaluations produce **bitwise identical** values row by row.  Since
``/analyze``, ``/sweep``, the design queries, the sweeps and the figures
all call this one class, the same question gets the same bits from every
entry point (pinned in ``tests/integration/test_sweep_matrix.py``).
The convolutions are dispatched through :mod:`repro.core.kernels` under a
``backend=`` seam (``reference`` | ``fft`` | ``auto`` | ``numba``): every
backend computes rows independently, so batch invariance holds under all
of them, but only ``reference`` (and the jitted ``numba`` mirror of it)
is bitwise-stable across releases — the FFT path re-associates the sums
and agrees with the reference to its guarded round-off bound (< 1e-13 per
call) instead.  ``tests/property/test_prop_batched.py`` pins the engine
to the Eq. 12 matrix oracle at 1e-12.

The per-``N`` report-count distributions are memoized in
:func:`repro.cache.analysis_cache` under :func:`repro.cache.grid_key`
(thresholds excluded, as everywhere in the cache; the *resolved* backend
included, so stacks from different kernels never alias), and each grid
evaluation counts its points into the active instrumentation's
``batch.points`` counter.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from repro import obs
from repro.cache import cached_array, grid_key
from repro.core.kernels import (
    batch_convolve,
    batch_convolve_power,
    normalize_backend,
    resolve_backend,
)
from repro.core.regions import body_subareas, head_subareas, tail_subareas
from repro.core.report_dist import conditional_report_pmf
from repro.core.scenario import Scenario
from repro.errors import AnalysisError

__all__ = [
    "BatchedMarkovSpatialAnalysis",
    "MarkovSpatialAnalysis",
    "batched_binomial_pmf",
    "batch_convolve",
    "batch_convolve_power",
    "detection_probability_grid",
]


def batched_binomial_pmf(
    trials: Sequence[int], success_prob: float, max_count: int
) -> np.ndarray:
    """Truncated ``Binomial(trials[b], p)`` pmfs, one row per trial count.

    The batched counterpart of :func:`repro.core.report_dist.occupancy_pmf`
    composed with :func:`~repro.core.report_dist.binomial_pmf`: row ``b``
    holds ``P[X = c]`` for ``c = 0 .. max_count`` with ``X ~
    Binomial(trials[b], p)`` (entries with ``c > trials[b]`` are zero).
    Evaluated with vectorised log-gamma, matching the scalar path's
    log-space formula elementwise.

    Args:
        trials: integer array of trial counts (``N`` values), each >= 0.
        success_prob: shared success probability in ``[0, 1]``.
        max_count: truncation ``g``; columns run ``0 .. max_count``.

    Returns:
        Array of shape ``(len(trials), max_count + 1)``.
    """
    counts_1d = np.asarray(trials)
    if counts_1d.ndim != 1:
        raise AnalysisError(
            f"trials must be a 1-D array, got shape {counts_1d.shape}"
        )
    if max_count < 0:
        raise AnalysisError(f"max_count must be >= 0, got {max_count}")
    if not 0.0 <= success_prob <= 1.0:
        raise AnalysisError(
            f"success_prob must be in [0, 1], got {success_prob}"
        )
    n = counts_1d[:, None].astype(float)
    c = np.arange(max_count + 1, dtype=float)[None, :]
    valid = c <= n
    safe_c = np.where(valid, c, 0.0)
    if success_prob == 0.0:
        pmf = np.where(c == 0.0, 1.0, 0.0) * np.ones_like(n)
    elif success_prob == 1.0:
        pmf = np.where(c == n, 1.0, 0.0)
    else:
        log_comb = gammaln(n + 1.0) - gammaln(safe_c + 1.0) - gammaln(
            n - safe_c + 1.0
        )
        log_p = np.where(
            safe_c > 0, safe_c * math.log(max(success_prob, 1e-300)), 0.0
        )
        log_q = np.where(
            n - safe_c > 0,
            (n - safe_c) * math.log(max(1.0 - success_prob, 1e-300)),
            0.0,
        )
        pmf = np.exp(log_comb + log_p + log_q)
    return np.where(valid, pmf, 0.0)


def _int_axis(values: Iterable, name: str, minimum: int) -> np.ndarray:
    """Validate a grid axis of integers, preserving order (duplicates ok)."""
    out = []
    for value in values:
        if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)
        ):
            raise AnalysisError(
                f"{name} values must be integers, got {value!r}"
            )
        if value < minimum:
            raise AnalysisError(
                f"{name} values must be >= {minimum}, got {value}"
            )
        out.append(int(value))
    return np.asarray(out, dtype=int)


class MarkovSpatialAnalysis:
    """M-S-approach analysis of ``P_M[X >= k]``, one point or a whole grid.

    The template ``scenario`` supplies the geometry (``Rs``, ``V``, ``t``,
    ``M``), the detection physics (``Pd``, field), and the *default*
    ``N``/``k`` when an axis is omitted; the grid methods broadcast over
    explicit ``num_sensors`` and ``thresholds`` axes, and the singleton
    accessors answer at the template's ``N``.

    Args:
        scenario: the model parameters; requires ``M > ms`` (the general
            case the paper analyses).
        body_truncation: ``g`` — maximum sensors per Body/Tail NEDR
            considered.  The paper uses 3 for all reported results.
        head_truncation: ``gh`` — maximum sensors in the Head NEDR;
            defaults to ``body_truncation``.
        substeps: split each NEDR into this many equal-probability slices
            and convolve per-slice pmfs — the refinement Section 3.4.5
            sketches ("further dividing the computation in that step into
            multiple substeps") to reach a given accuracy with a smaller
            per-slice truncation.  1 (default) is the paper's base method.
        backend: the convolution kernel (see :mod:`repro.core.kernels`);
            ``None`` (the default) defers to the process-wide default at
            evaluation time, so a CLI-level ``--backend`` choice reaches
            engines constructed anywhere below it.

    Raises:
        AnalysisError: on invalid truncations, ``substeps < 1``,
            ``M <= ms``, or an unknown ``backend`` name.
    """

    def __init__(
        self,
        scenario: Scenario,
        body_truncation: int = 3,
        head_truncation: Optional[int] = None,
        substeps: int = 1,
        backend: Optional[str] = None,
    ):
        if body_truncation < 1:
            raise AnalysisError(
                f"body_truncation must be >= 1, got {body_truncation}"
            )
        head_truncation = (
            body_truncation if head_truncation is None else head_truncation
        )
        if head_truncation < 1:
            raise AnalysisError(
                f"head_truncation must be >= 1, got {head_truncation}"
            )
        if substeps < 1:
            raise AnalysisError(f"substeps must be >= 1, got {substeps}")
        if not scenario.has_body_stage:
            raise AnalysisError(
                f"the M-S-approach stage decomposition requires M > ms "
                f"(M={scenario.window}, ms={scenario.ms}); use "
                "ExactSpatialAnalysis, whose window_regions generalisation "
                "handles short windows"
            )
        self._scenario = scenario
        self._g = body_truncation
        self._gh = head_truncation
        self._substeps = substeps
        self._backend = normalize_backend(backend)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    @property
    def scenario(self) -> Scenario:
        """The template scenario."""
        return self._scenario

    @property
    def body_truncation(self) -> int:
        """``g``."""
        return self._g

    @property
    def head_truncation(self) -> int:
        """``gh``."""
        return self._gh

    @property
    def substeps(self) -> int:
        """NEDR slices per stage (Section 3.4.5's refinement)."""
        return self._substeps

    @property
    def backend(self) -> Optional[str]:
        """The requested kernel backend (``None`` = process default)."""
        return self._backend

    # ------------------------------------------------------------------
    # Stage pmf stacks
    # ------------------------------------------------------------------

    def _assembled_stage_pmf(
        self, subareas: np.ndarray, truncation: int, counts: np.ndarray
    ) -> np.ndarray:
        """``(B, L)`` stage pmfs for one NEDR, one row per ``N``.

        Row ``b`` is :func:`repro.core.report_dist.stage_report_pmf` for
        ``num_sensors = counts[b]``: the conditional per-sensor pmf and
        its ``n``-fold convolutions are shared across rows (they do not
        depend on ``N``); only the occupancy binomial mixing weights vary.
        """
        areas = np.asarray(subareas, dtype=float)
        per_sensor = conditional_report_pmf(areas, self._scenario.detect_prob)
        max_coverage = per_sensor.size - 1
        occupancy = batched_binomial_pmf(
            counts,
            float(areas.sum()) / self._scenario.field_area,
            truncation,
        )
        out = np.zeros((counts.size, truncation * max_coverage + 1))
        n_fold = np.array([1.0])
        for sensor_count in range(truncation + 1):
            if sensor_count > 0:
                n_fold = np.convolve(n_fold, per_sensor)
            out[:, : n_fold.size] += (
                occupancy[:, sensor_count : sensor_count + 1] * n_fold
            )
        return out

    def _batched_stage_pmf(
        self,
        subareas: np.ndarray,
        truncation: int,
        counts: np.ndarray,
        backend: str,
    ) -> np.ndarray:
        """Stage pmf stack, optionally assembled from equal-probability slices.

        With ``substeps = Q > 1`` the NEDR is cut into ``Q`` slices of
        area ``area / Q`` each (a uniform sensor is in a given slice with
        probability ``area / (Q * S)``, independently per the model's
        occupancy approximation); the stage pmf is the Q-fold convolution
        of per-slice pmfs truncated at the same ``g`` — capturing up to
        ``Q * g`` sensors per NEDR for the price of the small per-slice
        enumeration.
        """
        if self._substeps == 1:
            return self._assembled_stage_pmf(subareas, truncation, counts)
        slice_pmf = self._assembled_stage_pmf(
            np.asarray(subareas, dtype=float) / self._substeps,
            truncation,
            counts,
        )
        combined = slice_pmf
        for _ in range(self._substeps - 1):
            combined = batch_convolve(combined, slice_pmf, backend=backend)
        return combined

    def _template_stage_pmf(
        self, subareas: np.ndarray, truncation: int
    ) -> np.ndarray:
        """One stage pmf at the template ``N`` (row 0 of a 1-row stack)."""
        return self._batched_stage_pmf(
            subareas,
            truncation,
            self._num_sensors_axis(None),
            resolve_backend(self._backend),
        )[0]

    def head_stage_pmf(self) -> np.ndarray:
        """``p_{h:m}``: report pmf of the Head NEDR (substochastic)."""
        return self._template_stage_pmf(head_subareas(self._scenario), self._gh)

    def body_stage_pmf(self) -> np.ndarray:
        """``p_{b:m}``: report pmf of one Body NEDR (substochastic)."""
        return self._template_stage_pmf(body_subareas(self._scenario), self._g)

    def tail_stage_pmf(self, tail_index: int) -> np.ndarray:
        """``p_{tj:m}``: report pmf of Tail NEDR ``T_j`` (substochastic)."""
        return self._template_stage_pmf(
            tail_subareas(self._scenario, tail_index), self._g
        )

    # ------------------------------------------------------------------
    # Accuracy (Eqs. 7, 9, 14)
    # ------------------------------------------------------------------

    def head_stage_accuracy(self) -> float:
        """``xi_h`` (Eq. 7): probability of at most ``gh`` sensors in the Head NEDR."""
        return float(self.head_stage_pmf().sum())

    def body_stage_accuracy(self) -> float:
        """``xi`` (Eq. 9): probability of at most ``g`` sensors in a Body NEDR."""
        return float(self.body_stage_pmf().sum())

    def analysis_accuracy(self) -> float:
        """``eta_MS = xi_h * xi^(M-1)`` (Eq. 14).

        The paper notes this is a *lower bound* on the achieved accuracy
        once the Eq. 13 normalisation is applied.
        """
        return self.head_stage_accuracy() * self.body_stage_accuracy() ** (
            self._scenario.window - 1
        )

    # ------------------------------------------------------------------
    # Grid evaluation
    # ------------------------------------------------------------------

    def _num_sensors_axis(self, num_sensors) -> np.ndarray:
        if num_sensors is None:
            return np.asarray([self._scenario.num_sensors], dtype=int)
        return _int_axis(num_sensors, "num_sensors", 1)

    def _thresholds_axis(self, thresholds) -> np.ndarray:
        if thresholds is None:
            return np.asarray([self._scenario.threshold], dtype=int)
        return _int_axis(thresholds, "thresholds", 0)

    def _compute_distributions(
        self, counts: np.ndarray, backend: str
    ) -> np.ndarray:
        scenario = self._scenario
        head = self._batched_stage_pmf(
            head_subareas(scenario), self._gh, counts, backend
        )
        body = self._batched_stage_pmf(
            body_subareas(scenario), self._g, counts, backend
        )
        result = batch_convolve(
            head,
            batch_convolve_power(body, scenario.body_steps, backend=backend),
            backend=backend,
        )
        for tail_index in range(1, scenario.ms + 1):
            result = batch_convolve(
                result,
                self._batched_stage_pmf(
                    tail_subareas(scenario, tail_index), self._g, counts,
                    backend,
                ),
                backend=backend,
            )
        return result

    def report_count_distributions(self, num_sensors=None) -> np.ndarray:
        """``(B, L)`` stack of substochastic total-report-count pmfs.

        Row ``b`` is the Eq. 12 result distribution for
        ``num_sensors[b]``; memoized per ``(geometry, N-axis, backend)``
        in the process-wide analysis cache (read-only — copy before
        mutating).  The backend is resolved here — ``None`` picks up the
        process default at call time — and keyed into the cache so
        stacks from different kernels never alias.
        """
        counts = self._num_sensors_axis(num_sensors)
        backend = resolve_backend(self._backend)
        return cached_array(
            grid_key(
                self._scenario,
                self._g,
                self._gh,
                self._substeps,
                counts,
                backend=backend,
            ),
            lambda: self._compute_distributions(counts, backend),
        )

    def report_count_distribution(self) -> np.ndarray:
        """The (substochastic) pmf of the total report count after ``M``
        periods at the template ``N`` — row 0 of
        :meth:`report_count_distributions` (read-only)."""
        return self.report_count_distributions()[0]

    def survival_grid(self, num_sensors=None) -> np.ndarray:
        """``(B, L)`` survival functions: ``surv[b, k] = P_M[X >= k]``.

        Unnormalised (the Eq. 13 division is applied by
        :meth:`detection_probability_grid`).  One reverse cumulative sum
        answers every threshold at once.
        """
        distributions = self.report_count_distributions(num_sensors)
        return np.cumsum(distributions[:, ::-1], axis=1)[:, ::-1]

    def detection_probability_grid(
        self,
        num_sensors=None,
        thresholds=None,
        normalize: bool = True,
    ) -> np.ndarray:
        """``P_M[X >= k]`` (Eq. 13) over the ``num_sensors x thresholds`` grid.

        Args:
            num_sensors: iterable of ``N`` values (default: the template
                scenario's ``N``) — the grid's row axis.
            thresholds: iterable of ``k`` values >= 0 (default: the
                template's ``k``) — the grid's column axis.
            normalize: divide each row's tail mass by its captured total
                mass (Eq. 13); ``False`` reproduces Fig. 9(b).

        Returns:
            Array of shape ``(len(num_sensors), len(thresholds))``; entry
            ``[i, j]`` is bitwise equal to the singleton
            ``MarkovSpatialAnalysis(scenario.replace(num_sensors=N_i))
            .detection_probability(threshold=k_j)``.

        Raises:
            AnalysisError: on invalid axis values, or — with
                ``normalize=True`` — when the truncations capture zero
                probability mass for some ``N`` (the error names the
                offending truncations and counts).
        """
        counts = self._num_sensors_axis(num_sensors)
        ks = self._thresholds_axis(thresholds)
        ob = obs.current()
        if ob.enabled:
            ob.incr("batch.points", int(counts.size * ks.size))
        if counts.size == 0 or ks.size == 0:
            return np.zeros((counts.size, ks.size))
        distributions = self.report_count_distributions(counts)
        survival = np.cumsum(distributions[:, ::-1], axis=1)[:, ::-1]
        support = distributions.shape[1]
        tail = np.zeros((counts.size, ks.size))
        in_range = ks < support
        if in_range.any():
            tail[:, in_range] = survival[:, ks[in_range]]
        if not normalize:
            return tail
        total = distributions.sum(axis=1)
        empty = np.flatnonzero(total <= 0.0)
        if empty.size:
            # Name the counts in the shape the caller gave them.
            shown = (
                self._scenario.num_sensors
                if num_sensors is None
                else counts[empty].tolist()
            )
            raise AnalysisError(
                "captured probability mass is zero for num_sensors="
                f"{shown}: body_truncation g={self._g}, "
                f"head_truncation gh={self._gh} (substeps="
                f"{self._substeps}) admit no sensor configuration across "
                f"the {self._scenario.window} stages; increase the "
                "truncations"
            )
        return tail / total[:, None]

    def detection_probability(
        self,
        threshold: Optional[int] = None,
        normalize: bool = True,
    ) -> float:
        """``P_M[X >= k]`` (Eq. 13) at the template ``N``, as a float.

        Evaluates the same kernel on a 1x1 grid, so the value is bitwise
        identical to the corresponding grid entry, and ``threshold`` is
        validated like a grid axis entry.

        Args:
            threshold: ``k``; defaults to the scenario's threshold.
            normalize: divide the tail mass by the captured total mass
                (``sum`` in Eq. 13).  ``False`` reproduces Fig. 9(b).
        """
        thresholds = None if threshold is None else [threshold]
        return float(
            self.detection_probability_grid(
                thresholds=thresholds, normalize=normalize
            )[0, 0]
        )


#: The grid methods' historical name; the same class.
BatchedMarkovSpatialAnalysis = MarkovSpatialAnalysis


def detection_probability_grid(
    scenario: Scenario,
    num_sensors=None,
    thresholds=None,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
    normalize: bool = True,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Functional form of
    :meth:`MarkovSpatialAnalysis.detection_probability_grid`."""
    return MarkovSpatialAnalysis(
        scenario,
        body_truncation=body_truncation,
        head_truncation=head_truncation,
        substeps=substeps,
        backend=backend,
    ).detection_probability_grid(
        num_sensors=num_sensors, thresholds=thresholds, normalize=normalize
    )
