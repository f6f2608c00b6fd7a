"""Convolution kernel backends: the raw-speed tier under the batched engine.

:mod:`repro.core.batched` evaluates Eq. 12 as a chain of row-wise pmf
convolutions.  This module owns those convolutions and the ``backend=``
seam that selects *how* they run:

``reference``
    The fixed-reduction-order shift-and-add loop.  Every output element
    accumulates its terms in ascending-shift order, independent of the
    batch shape, so it is **bitwise batch-invariant** — the conformance
    oracle every other backend is tested against, and the backend that
    reproduces the PR 5 goldens exactly.
``fft``
    Real-FFT convolution (``rfft``/``irfft`` on a
    :func:`scipy.fft.next_fast_len` grid): ``O(B L log L)`` instead of
    the shift-and-add ``O(B n_short L)``.  Still per-row, so still batch
    invariant — but it *re-associates* the sums, so agreement with
    ``reference`` is to rounding, not bitwise.  An a-priori round-off
    bound (:func:`fft_roundoff_bound`) guards every call: when the bound
    exceeds :data:`FFT_GUARD_ATOL` the call silently falls back to the
    reference loop (counted in ``kernel.fallbacks``), so the FFT path
    can never deviate from the reference by more than the guard allows.
``auto``
    Size-dispatched: shift-and-add below :data:`FFT_MIN_WIDTH` (small
    supports stay bitwise-stable *and* are faster that way), FFT above
    it.  The process-wide default.
``numba``
    A JIT-compiled shift-and-add with the same fixed reduction order —
    bitwise identical to ``reference`` — for hosts with ``numba``
    installed.  When numba is absent (or ``REPRO_DISABLE_NUMBA`` is
    set) selecting it degrades gracefully to ``auto`` with a one-time
    warning instead of failing.

The process-wide default backend (:func:`set_default_backend`, surfaced
as the CLI's ``--backend``) is what
:class:`~repro.core.markov_spatial.MarkovSpatialAnalysis` uses when
constructed without an explicit ``backend=``.  Dispatch decisions are
counted into the active instrumentation: ``kernel.fft_dispatch`` (calls
routed to the FFT), ``kernel.fallbacks`` (guard-triggered reference
fallbacks), ``kernel.numba_unavailable`` (degraded ``numba``
selections) — see ``docs/observability.md``.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Optional

import numpy as np

from repro import obs
from repro.errors import AnalysisError

__all__ = [
    "DEFAULT_BACKEND",
    "FFT_GUARD_ATOL",
    "FFT_MIN_WIDTH",
    "KERNEL_BACKENDS",
    "available_backends",
    "batch_convolve",
    "batch_convolve_power",
    "fft_roundoff_bound",
    "get_default_backend",
    "normalize_backend",
    "numba_available",
    "resolve_backend",
    "set_default_backend",
]

#: Every selectable backend name.  ``auto`` and ``fft`` are dispatch
#: policies over the two real kernels; ``numba`` is optional.
KERNEL_BACKENDS = ("auto", "reference", "fft", "numba")

#: The process-wide default policy.
DEFAULT_BACKEND = "auto"

#: ``auto`` routes a convolution to the FFT only when *both* operands'
#: supports reach this width.  The shift-and-add loop costs
#: ``O(B * n_short * L)`` and the FFT ``O(B * L log L)``, so the shorter
#: operand's width is the quantity the crossover depends on; below it the
#: reference loop is both faster and bitwise-stable.
FFT_MIN_WIDTH = 64

#: Maximum a-priori round-off bound (absolute, per element) under which
#: the FFT result is accepted.  :func:`fft_roundoff_bound` majorises the
#: true max-abs deviation from the shift-and-add reference; anything that
#: could exceed this falls back to the reference loop, which keeps every
#: FFT-backed result within an order of magnitude below the engine's
#: 1e-12 conformance contract.
FFT_GUARD_ATOL = 1e-13

_default_backend = DEFAULT_BACKEND

_numba_kernel = None
_numba_checked = False
_numba_warned = False


def normalize_backend(backend: Optional[str]) -> Optional[str]:
    """Validate a backend name; ``None`` (inherit the default) passes through.

    Raises:
        AnalysisError: for a name not in :data:`KERNEL_BACKENDS`.
    """
    if backend is None:
        return None
    if backend not in KERNEL_BACKENDS:
        raise AnalysisError(
            f"unknown kernel backend {backend!r}; choose from "
            f"{list(KERNEL_BACKENDS)}"
        )
    return backend


def set_default_backend(backend: str) -> None:
    """Set the process-wide default backend (the CLI's ``--backend``)."""
    global _default_backend
    if backend is None or backend not in KERNEL_BACKENDS:
        raise AnalysisError(
            f"unknown kernel backend {backend!r}; choose from "
            f"{list(KERNEL_BACKENDS)}"
        )
    _default_backend = backend


def get_default_backend() -> str:
    """The process-wide default backend name."""
    return _default_backend


def numba_available() -> bool:
    """Whether the optional numba backend can compile.

    ``REPRO_DISABLE_NUMBA`` (any non-empty value) forces ``False`` — the
    switch CI uses to prove the degraded path on hosts that *do* have
    numba.  The import check runs once per process.
    """
    global _numba_checked, _numba_kernel
    if os.environ.get("REPRO_DISABLE_NUMBA"):
        return False
    if not _numba_checked:
        _numba_checked = True
        try:  # pragma: no cover - exercised only where numba is installed
            import numba

            @numba.njit(cache=False)
            def _shift_add(a, b, out):  # pragma: no cover
                rows, width = a.shape
                short = b.shape[1]
                for row in range(rows):
                    for shift in range(short):
                        scale = b[row, shift]
                        for i in range(width):
                            out[row, shift + i] += a[row, i] * scale

            _numba_kernel = _shift_add
        except ImportError:
            _numba_kernel = None
    return _numba_kernel is not None


def available_backends() -> tuple:
    """The backends selectable on this host (``numba`` only if importable)."""
    names = [name for name in KERNEL_BACKENDS if name != "numba"]
    if numba_available():
        names.append("numba")
    return tuple(names)


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a request to a concrete policy for this call.

    ``None`` resolves to the process default; ``numba`` degrades to
    ``auto`` (one warning per process, ``kernel.numba_unavailable``
    counted) when numba cannot be imported.
    """
    global _numba_warned
    choice = normalize_backend(backend)
    if choice is None:
        choice = _default_backend
    if choice == "numba" and not numba_available():
        ob = obs.current()
        if ob.enabled:
            ob.incr("kernel.numba_unavailable")
        if not _numba_warned:
            _numba_warned = True
            warnings.warn(
                "kernel backend 'numba' requested but numba is not "
                "importable; degrading to 'auto'",
                RuntimeWarning,
                stacklevel=2,
            )
        return "auto"
    return choice


def _validated_stacks(a, b):
    """Shared operand validation; returns ``(long, short)`` float stacks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise AnalysisError(
            f"batch_convolve needs two (B, n) stacks, got {a.shape} and {b.shape}"
        )
    if b.shape[1] > a.shape[1]:
        a, b = b, a
    return a, b


def _convolve_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fixed-order shift-and-add: the bitwise conformance oracle.

    ``a`` is the longer operand.  Each output element accumulates its
    ``a[:, j - shift] * b[:, shift]`` terms in ascending ``shift`` order
    regardless of the batch size — the batch-invariance contract.
    """
    rows, width = a.shape
    out = np.zeros((rows, width + b.shape[1] - 1))
    for shift in range(b.shape[1]):
        out[:, shift : shift + width] += a * b[:, shift : shift + 1]
    return out


def _convolve_numba(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """JIT shift-and-add with the reference's exact accumulation order."""
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    _numba_kernel(
        np.ascontiguousarray(a), np.ascontiguousarray(b), out
    )  # pragma: no cover - requires numba
    return out  # pragma: no cover - requires numba


def fft_roundoff_bound(a: np.ndarray, b: np.ndarray) -> float:
    """A-priori bound on the FFT path's max-abs deviation from reference.

    A (generous) Higham-style forward-error majorant for length-``n``
    real-FFT convolution: ``eps * (4 log2 n + 16) * max_rows(||a||_1 *
    ||b||_1)``.  For the engine's pmf rows (``||.||_1 <= 1``) this sits
    around 1e-14 — well under :data:`FFT_GUARD_ATOL` — while
    mixed-magnitude stacks whose norms could amplify round-off past the
    guard are sent back to the exact loop.
    """
    length = a.shape[1] + b.shape[1] - 1
    norm = float(
        (np.abs(a).sum(axis=1) * np.abs(b).sum(axis=1)).max(initial=0.0)
    )
    return float(
        np.finfo(float).eps * (4.0 * math.log2(max(length, 2)) + 16.0) * norm
    )


def _convolve_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise convolution via real FFTs on a fast composite length."""
    from scipy.fft import irfft, next_fast_len, rfft

    length = a.shape[1] + b.shape[1] - 1
    n = next_fast_len(length, real=True)
    out = irfft(rfft(a, n, axis=1) * rfft(b, n, axis=1), n, axis=1)[:, :length]
    if (a >= 0.0).all() and (b >= 0.0).all():
        # Round-off can leave ~1e-17-scale negatives where the true mass
        # is zero; pmf consumers (survival sums, normalisation) expect
        # non-negative rows, and the reference never produces negatives.
        np.maximum(out, 0.0, out=out)
    return out


def batch_convolve(
    a: np.ndarray, b: np.ndarray, backend: Optional[str] = None
) -> np.ndarray:
    """Row-wise convolution of two pmf stacks under the selected backend.

    Both inputs are ``(B, *)`` stacks; the result is ``(B, a_len + b_len
    - 1)``.  Every backend computes each row independently, so the result
    is batch-invariant under all of them; only ``reference`` (and
    ``numba``) guarantee *bitwise* agreement with each other, while the
    FFT path agrees to the :func:`fft_roundoff_bound` guard.

    Args:
        a / b: the operand stacks (equal row counts).
        backend: one of :data:`KERNEL_BACKENDS`, or ``None`` for the
            process default (:func:`get_default_backend`).

    Raises:
        AnalysisError: on malformed stacks or an unknown backend name.
    """
    a, b = _validated_stacks(a, b)
    choice = resolve_backend(backend)
    if choice == "reference":
        return _convolve_reference(a, b)
    if choice == "numba":
        return _convolve_numba(a, b)
    if choice == "auto" and b.shape[1] < FFT_MIN_WIDTH:
        return _convolve_reference(a, b)
    ob = obs.current()
    bound = fft_roundoff_bound(a, b)
    if not math.isfinite(bound) or bound > FFT_GUARD_ATOL:
        if ob.enabled:
            ob.incr("kernel.fallbacks")
        return _convolve_reference(a, b)
    if ob.enabled:
        ob.incr("kernel.fft_dispatch")
    return _convolve_fft(a, b)


def batch_convolve_power(
    base: np.ndarray, power: int, backend: Optional[str] = None
) -> np.ndarray:
    """Row-wise ``power``-fold self-convolution by binary exponentiation.

    The batched counterpart of
    :func:`repro.core.report_dist.convolution_power`: ``O(log power)``
    stacked convolutions instead of ``power`` sequential ones, each
    dispatched through :func:`batch_convolve` under ``backend``.
    ``power == 0`` returns the unit pmf ``[1.0]`` in every row.
    """
    if power < 0:
        raise AnalysisError(f"power must be non-negative, got {power}")
    base = np.asarray(base, dtype=float)
    if base.ndim != 2 or base.shape[1] == 0:
        raise AnalysisError(
            f"base must be a non-empty (B, n) stack, got shape {base.shape}"
        )
    result = np.ones((base.shape[0], 1))
    while power:
        if power & 1:
            result = batch_convolve(result, base, backend=backend)
        power >>= 1
        if power:
            base = batch_convolve(base, base, backend=backend)
    return result
