"""Sensor drift: deployments that move between missions.

Section 2 of the paper justifies the uniform-random deployment assumption
partly by "sensor drift due to ocean flows" — moored or floating undersea
sensors do not stay where they were dropped.  This module models that
drift (independent Gaussian displacement per sensor per mission) and makes
the paper's implicit argument precise:

    a uniform deployment subjected to i.i.d. drift *wrapped on the torus*
    is again exactly uniform,

so detection performance is drift-invariant — the network never "wears
out" geometrically, no matter how large the accumulated drift (EXT-DRIFT
measures this).  On a bounded field with reflecting boundaries the
distribution stays near-uniform but develops edge effects, which the same
experiment quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.deployment.field import SensorField
from repro.deployment.strategies import _as_rng, _RngLike
from repro.errors import DeploymentError

__all__ = ["apply_drift", "drift_deployment_strategy"]


def apply_drift(
    positions: np.ndarray,
    sigma: float,
    field: SensorField,
    rng: _RngLike = None,
    boundary: str = "torus",
) -> np.ndarray:
    """One mission's worth of drift applied to a deployment.

    Args:
        positions: ``(N, 2)`` current sensor positions.
        sigma: standard deviation of the per-axis Gaussian displacement.
        field: the deployment field.
        rng: ``None``, an integer seed, or a numpy Generator.
        boundary: ``'torus'`` (wrap — preserves uniformity exactly) or
            ``'reflect'`` (bounce off field edges).

    Returns:
        New ``(N, 2)`` positions inside the field.

    Raises:
        DeploymentError: on malformed positions, negative ``sigma``, or an
            unknown boundary mode.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise DeploymentError(
            f"positions must have shape (N, 2), got {positions.shape}"
        )
    if sigma < 0:
        raise DeploymentError(f"sigma must be non-negative, got {sigma}")
    if boundary not in ("torus", "reflect"):
        raise DeploymentError(
            f"boundary must be 'torus' or 'reflect', got {boundary!r}"
        )
    if sigma == 0 or positions.size == 0:
        return positions.copy()

    generator = _as_rng(rng)
    moved = positions + generator.normal(0.0, sigma, size=positions.shape)
    if boundary == "torus":
        xs, ys = field.wrap_xy(moved[:, 0], moved[:, 1])
        return np.column_stack([xs, ys])
    # Reflect: fold coordinates into [0, L] with mirror symmetry (handles
    # displacements larger than the field via the 2L-periodic triangle wave).
    def reflect(values: np.ndarray, length: float) -> np.ndarray:
        period = 2.0 * length
        folded = np.mod(values, period)
        return np.where(folded <= length, folded, period - folded)

    return np.column_stack(
        [reflect(moved[:, 0], field.width), reflect(moved[:, 1], field.height)]
    )


def drift_deployment_strategy(
    sigma: float, missions: int = 1, boundary: str = "torus"
):
    """A deployment callable for :class:`~repro.simulation.runner.MonteCarloSimulator`.

    Deploys uniformly, then applies ``missions`` rounds of drift — the
    state of the network after that much time in the water.

    Args:
        sigma: per-mission per-axis drift standard deviation.
        missions: how many drift rounds have accumulated.
        boundary: see :func:`apply_drift`.

    Returns:
        ``(field, num_sensors, rng) -> (N, 2)`` positions.
    """
    if missions < 0:
        raise DeploymentError(f"missions must be non-negative, got {missions}")

    def deploy(field: SensorField, num_sensors: int, rng) -> np.ndarray:
        generator = _as_rng(rng)
        positions = generator.uniform(
            (0.0, 0.0), (field.width, field.height), size=(num_sensors, 2)
        )
        # Accumulated i.i.d. Gaussian drift is Gaussian with scaled sigma.
        if missions and sigma:
            total_sigma = sigma * np.sqrt(missions)
            positions = apply_drift(
                positions, total_sigma, field, generator, boundary
            )
        return positions

    return deploy
