"""Counting chains: the shift-structured Markov chains of Figs. 5-7.

The M-S-approach tracks one number — how many detection reports have been
generated so far.  Each stage adds an independent, non-negative increment
whose pmf is the stage's report-count distribution, so every transition
matrix has the Toeplitz "shift" structure ``T[s, s + m] = pmf[m]``
(Figs. 5-7 of the paper).  Propagating a distribution through such a matrix
is exactly a discrete convolution; this module provides both views.  The
analytical engine (:mod:`repro.core.batched`) runs the convolution view;
:func:`ms_chain_distribution` is the literal Eq. 12 matrix product, kept as
the oracle the tests and ``repro validate`` pin the engine against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DistributionError

__all__ = [
    "validate_pmf",
    "convolve_pmf",
    "counting_transition_matrix",
    "propagate_counts",
    "merge_tail",
    "ms_chain_distribution",
    "ms_state_count",
]

_TOLERANCE = 1e-9


def validate_pmf(pmf: Sequence[float], substochastic: bool = False) -> np.ndarray:
    """Validate a pmf over counts ``0..len(pmf)-1``.

    Args:
        pmf: candidate probability mass function.
        substochastic: allow total mass below 1 (truncated distributions).

    Returns:
        The pmf as a float array.

    Raises:
        DistributionError: on negative entries, empty input, or a total mass
            outside the allowed range.
    """
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DistributionError(f"pmf must be a non-empty 1-D array, got shape {arr.shape}")
    if (arr < -_TOLERANCE).any():
        raise DistributionError("pmf has negative entries")
    total = arr.sum()
    if total > 1.0 + _TOLERANCE:
        raise DistributionError(f"pmf mass {total} exceeds 1")
    if not substochastic and abs(total - 1.0) > 1e-6:
        raise DistributionError(
            f"pmf mass {total} differs from 1 (pass substochastic=True for "
            "truncated distributions)"
        )
    return np.clip(arr, 0.0, None)


def convolve_pmf(first: Sequence[float], second: Sequence[float]) -> np.ndarray:
    """Pmf of the sum of two independent counts (full convolution)."""
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.size == 0 or b.size == 0:
        raise DistributionError("cannot convolve an empty pmf")
    return np.convolve(a, b)


def counting_transition_matrix(
    step_pmf: Sequence[float], num_states: int, absorb_overflow: bool = True
) -> np.ndarray:
    """Build the shift-structured transition matrix ``T[s, s+m] = pmf[m]``.

    Args:
        step_pmf: pmf of the per-stage report count (may be substochastic).
        num_states: number of count states ``0..num_states-1``.
        absorb_overflow: when ``True``, increments that would push the count
            past the last state accumulate in the last state (the paper's
            merged ">= k" tail state behaves this way); when ``False`` the
            overflowing mass is dropped, making the matrix substochastic
            even for a proper ``step_pmf``.

    Returns:
        ``(num_states, num_states)`` transition matrix.

    Raises:
        DistributionError: for an invalid pmf or non-positive state count.
    """
    pmf = validate_pmf(step_pmf, substochastic=True)
    if num_states <= 0:
        raise DistributionError(f"num_states must be positive, got {num_states}")
    matrix = np.zeros((num_states, num_states))
    for state in range(num_states):
        for increment, mass in enumerate(pmf):
            if mass == 0.0:
                continue
            target = state + increment
            if target < num_states:
                matrix[state, target] += mass
            elif absorb_overflow:
                matrix[state, num_states - 1] += mass
    return matrix


def propagate_counts(
    distribution: Sequence[float], step_pmf: Sequence[float]
) -> np.ndarray:
    """Convolution view of one counting-chain step.

    Equivalent to ``distribution @ counting_transition_matrix(...)`` with a
    state space large enough that nothing overflows; the result grows by
    ``len(step_pmf) - 1`` entries.
    """
    dist = np.asarray(distribution, dtype=float)
    pmf = validate_pmf(step_pmf, substochastic=True)
    if dist.ndim != 1 or dist.size == 0:
        raise DistributionError("distribution must be a non-empty 1-D array")
    return np.convolve(dist, pmf)


def merge_tail(distribution: Sequence[float], threshold: int) -> np.ndarray:
    """Merge all states ``>= threshold`` into a single final state.

    The paper notes (Fig. 5 discussion) that when only ``P[X >= k]``
    matters, states ``k .. MZ`` can be merged.  The returned vector has
    ``threshold + 1`` entries; the last one carries the merged mass.

    Raises:
        DistributionError: if ``threshold`` is negative.
    """
    dist = np.asarray(distribution, dtype=float)
    if threshold < 0:
        raise DistributionError(f"threshold must be non-negative, got {threshold}")
    if dist.size <= threshold:
        out = np.zeros(threshold + 1)
        out[: dist.size] = dist
        return out
    out = np.empty(threshold + 1)
    out[:threshold] = dist[:threshold]
    out[threshold] = dist[threshold:].sum()
    return out


def ms_state_count(window: int, ms: int, truncation: int, substeps: int = 1) -> int:
    """``M * Z + 1`` count states, ``Z = (ms + 1) * truncation * substeps``.

    The M-S-approach chain's state space (Fig. 5 discussion): each stage
    registers at most ``truncation = max(gh, g)`` sensors per NEDR slice,
    each covering at most ``ms + 1`` periods, over ``M`` stages.
    """
    return window * (ms + 1) * truncation * substeps + 1


def ms_chain_distribution(
    head_pmf: Sequence[float],
    body_pmf: Sequence[float],
    body_steps: int,
    tail_pmfs: Sequence[Sequence[float]],
    num_states: int,
    substeps: int = 1,
) -> np.ndarray:
    """Eq. 12 literally: ``u * TH * TB^(M-ms-1) * prod_j TT_j``.

    Builds each stage's dense :func:`counting_transition_matrix` and
    multiplies the start vector ``u = [1 0 ... 0]`` (Eq. 11) through them
    one step at a time.  With ``substeps = Q`` the pmfs are the per-slice
    pmfs and each stage applies its matrix ``Q`` times.  This is the oracle
    for the convolution engine, not a production path: it costs
    ``O(num_states^2)`` per step.

    Returns:
        The (substochastic) report-count distribution over
        ``0 .. num_states - 1``.

    Raises:
        DistributionError: for an invalid pmf or state count.
    """
    stages = [(head_pmf, 1), (body_pmf, body_steps)]
    stages += [(pmf, 1) for pmf in tail_pmfs]
    distribution = np.zeros(num_states)
    distribution[0] = 1.0
    for pmf, steps in stages:
        matrix = counting_transition_matrix(pmf, num_states)
        for _ in range(steps * substeps):
            distribution = distribution @ matrix
    return distribution
