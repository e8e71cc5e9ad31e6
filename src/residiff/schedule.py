"""Diffusion variance schedule and derived scalar sequences.

Convention used throughout the package (pinned here once): ``alpha_step[t]``
is the single-step signal retention 1 - beta_t, and ``alpha_cum[t]`` is the
cumulative product of the steps with ``alpha_cum[0] = 1``.  The posterior
variance ``beta_tilde[t] = (1 - alpha_cum[t-1]) * beta_t / (1 - alpha_cum[t])``
is zero at t = 1 because alpha_cum[0] = 1; callers never need to special-case
the first step.
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

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError(f"step count must be >= 1, got {self.T}")
        if self.beta.shape != (self.T,):
            raise ConfigError("beta must have length T")
        if np.any(self.beta <= 0.0) or np.any(self.beta >= 1.0):
            raise ConfigError("beta values must lie strictly in (0, 1)")
        if self.alpha_cum.shape != (self.T + 1,) or self.alpha_cum[0] != 1.0:
            raise ConfigError("alpha_cum must have length T+1 with alpha_cum[0] = 1")

    @classmethod
    def from_beta(cls, beta: np.ndarray) -> "NoiseSchedule":
        beta = np.asarray(beta, dtype=np.float64)
        alpha_step = 1.0 - beta
        alpha_cum = np.concatenate(([1.0], np.cumprod(alpha_step)))
        beta_tilde = (1.0 - alpha_cum[:-1]) * beta / (1.0 - alpha_cum[1:])
        return cls(
            T=beta.shape[0],
            beta=beta,
            alpha_step=alpha_step,
            alpha_cum=alpha_cum,
            beta_tilde=beta_tilde,
        )


def build_linear_schedule(T: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linear interpolation between the minimum and maximum noise levels.

    beta[t] = beta_min + (t-1)/(T-1) * (beta_max - beta_min); for T = 1 the
    schedule is the single value beta_min (== beta_max is then required).
    """
    if T < 1:
        raise ConfigError(f"step count must be >= 1, got {T}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})"
        )
    if T == 1:
        beta = np.array([beta_min], dtype=np.float64)
    else:
        beta = np.linspace(beta_min, beta_max, T, dtype=np.float64)
    return NoiseSchedule.from_beta(beta)

