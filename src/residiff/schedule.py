"""Diffusion variance schedule and derived scalar sequences.

Convention used throughout the package (pinned here once): ``alpha_step[t]``
is the single-step signal retention 1 - beta_t, and ``alpha_cum[t]`` is the
cumulative product of the steps with ``alpha_cum[0] = 1``.  The posterior
variance ``beta_tilde[t] = (1 - alpha_cum[t-1]) * beta_t / (1 - alpha_cum[t])``
is zero at t = 1 because alpha_cum[0] = 1; callers never need to special-case
the first step.  ``build_linear_schedule`` is the one builder; it refuses a
beta outside (0, 1) and any schedule without 1 = alpha_cum[0] > ... >
alpha_cum[T] > 0 in float64, so every derived sequence is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["NoiseSchedule", "build_linear_schedule"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable variance schedule over T steps; safe to share across threads.

    Arrays are float64.  ``beta``, ``alpha_step`` and ``beta_tilde`` have
    length T and are indexed by step t via ``[t-1]``; ``alpha_cum`` has
    length T+1 and is indexed directly by t (``alpha_cum[0] == 1``).
    """

    T: int
    beta: np.ndarray
    alpha_step: np.ndarray
    alpha_cum: np.ndarray
    beta_tilde: np.ndarray


def build_linear_schedule(T: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linear interpolation between the minimum and maximum noise levels.

    beta[t] = beta_min + (t-1)/(T-1) * (beta_max - beta_min); for T = 1
    ``np.linspace`` gives the single value beta_min, and beta_max only has
    to pass the range check.
    """
    if T < 1:
        raise ConfigError(f"step count must be >= 1, got {T}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})"
        )
    beta = np.linspace(beta_min, beta_max, T, dtype=np.float64)
    alpha_step = 1.0 - beta
    alpha_cum = np.concatenate(([1.0], np.cumprod(alpha_step)))
    # 1 - beta rounds to 1 below float64 resolution; a long product underflows
    stalled = np.flatnonzero((np.diff(alpha_cum) >= 0) | (alpha_cum[1:] <= 0))
    if stalled.size:
        k = int(stalled[0]) + 1
        raise ConfigError(f"schedule ({T}, {beta_min}, {beta_max}) must decay strictly from "
                          f"alpha_cum[0] = 1 to above 0, but alpha_cum[{k}] = {alpha_cum[k]:.3g}")
    beta_tilde = (1.0 - alpha_cum[:-1]) * beta / (1.0 - alpha_cum[1:])
    return NoiseSchedule(T, beta, alpha_step, alpha_cum, beta_tilde)

