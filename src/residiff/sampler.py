"""Reverse sampling of the residual and assembly of probabilistic imputations.

Two samplers share the same checkpoint and denoiser, and each runs one step
function per reverse step; the derivation audits check those same functions.

  * ancestral (``ancestral_step``): full-length reverse chain; each step
    takes the posterior mean, parameterized by the noise estimate or, for
    clean-residual checkpoints, by the predicted residual, and adds noise
    with the posterior std (zero at the last step).
  * accelerated (``accelerated_step``): non-Markovian jumps over an evenly
    spaced descending subsequence of steps ending at 1, with coefficients
    from ``jump_coeffs``.  The jump noise std defaults to the generalized
    posterior std between consecutive subsequence elements, scaled by eta in
    [0, 1] (eta = 0 gives the deterministic limit).

Under the conditioned forward marginal both chains end at residual +
condition (z0m + z0c, with the condition zeroed under ``no_cond_forward``),
not at the residual alone.  ``_SamplerSetup.finalize`` removes the condition
from the terminal state before combining the residual with the rough fill.

Each sample chain owns an RNG stream derived from (root seed, sample index),
so results are independent of batching and chunk sizes.  Non-visible cells
are initialized from standard normal noise on target cells only; visible
cells pass through untouched in every sample.  The chain state is checked
once per reverse step; a non-finite one raises ``NumericError`` naming the
step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as dt
from . import denoiser as dn
from . import initial as ini
from .errors import ConfigError, NumericError
from .forward import posterior_mean_eps, posterior_mean_z0
from .schedule import NoiseSchedule

__all__ = [
    "ImputationResult",
    "ancestral_step",
    "ancestral_impute",
    "initial_only_impute",
    "jump_coeffs",
    "substep_schedule",
    "substep_noise_std",
    "accelerated_step",
    "accelerated_impute",
]


def substep_schedule(T: int, K: int) -> list[int]:
    """Evenly spaced descending steps, always including T and 1."""
    if not 1 <= K <= T:
        raise ConfigError(f"substep count {K} outside 1..{T}")
    steps = np.unique(np.round(np.linspace(T, 1, K)).astype(int))
    return [int(s) for s in steps[::-1]]


def substep_noise_std(sched: NoiseSchedule, t: int, t_prev: int, eta: float = 1.0) -> float:
    """Generalized posterior std for a jump t -> t_prev, scaled by eta.

    Treating the effective single step as alpha_cum_t / alpha_cum_prev, the
    posterior variance is (1 - alpha_cum_prev)(1 - a_eff)/(1 - alpha_cum_t);
    at t_prev = t - 1 and eta = 1 this is exactly beta_tilde_t, and it
    vanishes at t_prev = 0.
    """
    acum = float(sched.alpha_cum[t])
    acum_prev = float(sched.alpha_cum[t_prev])
    a_eff = acum / acum_prev
    var = (1.0 - acum_prev) * (1.0 - a_eff) / (1.0 - acum)
    return float(eta) * float(np.sqrt(var))


def ancestral_step(z_t, z0c, t: int, net_out, sched: NoiseSchedule,
                   rng: np.random.Generator | None = None,
                   target_mask=None, noise=None, predict_x0: bool = False):
    """One reverse transition; adds posterior-std noise except at t = 1.

    ``net_out`` is the noise estimate, or the clean residual when
    ``predict_x0`` is set; the posterior mean then takes its moment form.
    Noise is drawn from ``rng`` only when it is needed and not given.
    """
    maskf = None if target_mask is None else np.asarray(target_mask, dtype=np.float64)
    if predict_x0:
        z0m = net_out if maskf is None else net_out * maskf
        mean = posterior_mean_z0(z_t, z0m, z0c, t, sched, target_mask)
    else:
        mean = posterior_mean_eps(z_t, z0c, net_out, t, sched, target_mask)
    if t == 1:
        return mean
    sigma = float(np.sqrt(sched.beta_tilde[t - 1]))
    if noise is None:
        noise = rng.standard_normal(np.shape(mean))
    if maskf is not None:
        noise = noise * maskf
    return mean + sigma * noise


def jump_coeffs(t: int, t_prev: int, d: float, sched: NoiseSchedule) -> tuple[float, float]:
    """Coefficients (c_z, c_eps) of the jump t -> t_prev with noise std d.

    z_prev = c_z z_t + c_eps eps_hat + d noise, with c_z = sqrt(acum_prev/acum)
    and c_eps = sqrt(1 - acum_prev - d^2) - sqrt(acum_prev (1 - acum)/acum).
    Under the forward marginal the state keeps signal sqrt(acum_prev) and
    noise variance (c_z sqrt(1 - acum) + c_eps)^2 + d^2 = 1 - acum_prev, so
    d^2 may not exceed 1 - acum_prev.
    """
    if not 0 <= t_prev < t <= sched.T:
        raise IndexError(f"jump {t}->{t_prev} outside {sched.T}..0")
    acum = float(sched.alpha_cum[t])
    acum_prev = float(sched.alpha_cum[t_prev])
    radicand = 1.0 - acum_prev - d * d
    if radicand < 0:
        raise ValueError(f"noise std {d} too large for jump {t}->{t_prev}")
    c_eps = np.sqrt(radicand) - np.sqrt(acum_prev * (1.0 - acum) / acum)
    return float(np.sqrt(acum_prev / acum)), float(c_eps)


def accelerated_step(z_t, eps_hat, t: int, t_prev: int, d: float,
                     sched: NoiseSchedule, noise=None, target_mask=None):
    """Non-Markovian jump t -> t_prev expressed through the noise estimate."""
    c_z, c_eps = jump_coeffs(t, t_prev, d, sched)
    out = c_z * np.asarray(z_t) + c_eps * np.asarray(eps_hat)
    if d > 0 and noise is not None:
        n = np.asarray(noise)
        if target_mask is not None:
            n = n * np.asarray(target_mask, dtype=np.float64)
        out = out + d * n
    if target_mask is not None:
        out = out * np.asarray(target_mask, dtype=np.float64)
    return out


@dataclass
class ImputationResult:
    """Per-sample imputations with median, quantile band, and metrics."""

    samples: np.ndarray  # (S, L, N), data units
    median: np.ndarray
    q_low: np.ndarray
    q_high: np.ndarray
    q_levels: tuple[float, float]
    metrics: dict | None


class _SamplerSetup:
    """Shared preprocessing for both samplers."""

    def __init__(self, checkpoint, x: dt.MaskedGrid, graph):
        cfg = checkpoint.config
        self.sched = checkpoint.sched
        self.params = checkpoint.denoiser
        self.config = checkpoint.denoiser_config
        self.flags = cfg
        self.x = x
        self.stats = checkpoint.stats
        self.values_norm = dt.normalize(x, self.stats)[0].values
        self.visible = x.visible_mask
        self.target = ~self.visible
        self.targetf = self.target.astype(np.float64)
        self.sign = cfg.residual_sign
        adjacency = getattr(graph, "adjacency", graph)
        self.a_hat = dn.normalized_adjacency(adjacency)

        # windows start at multiples of n_window, so the denoiser's default
        # time index, arange(length) % n_window, is each window's phase
        L = x.shape[0]
        n_window = self.config.n_window
        self.slices = [slice(i, min(i + n_window, L)) for i in range(0, L, n_window)]

        # the rough fill is computed per window, exactly as during training,
        # so the condition follows the distribution the denoiser was fit on
        x_init = np.empty_like(self.values_norm)
        for sl in self.slices:
            x_init[sl] = ini.impute_initial(self.values_norm[None, sl],
                                            self.visible[None, sl], adjacency,
                                            checkpoint.initial)[0]
        self.x_init_eff = np.zeros_like(x_init) if cfg.no_residual else x_init
        _, self.z0c = ini.residual_and_condition(x_init, None, self.target,
                                                 training=False)
        self.z0c_chain = np.zeros_like(self.z0c) if cfg.no_cond_forward else self.z0c

    def predict(self, z_full: np.ndarray, t: int, chunk: int = 128) -> np.ndarray:
        """Denoiser output for a whole (S, L, N) state, windowed and chunked."""
        s_count = z_full.shape[0]
        out = np.empty_like(z_full)
        by_len: dict[int, list[slice]] = {}
        for sl in self.slices:
            by_len.setdefault(sl.stop - sl.start, []).append(sl)
        for sls in by_len.values():
            z_batch = np.concatenate(
                [z_full[:, sl, :] for sl in sls], axis=0
            )  # (S*W, Lw, N)
            cond = np.concatenate(
                [np.broadcast_to(self.z0c_chain[sl], (s_count,) + self.z0c_chain[sl].shape)
                 for sl in sls],
                axis=0,
            )
            preds = np.empty_like(z_batch)
            for lo in range(0, z_batch.shape[0], chunk):
                hi = min(lo + chunk, z_batch.shape[0])
                preds[lo:hi] = dn.forward(
                    self.params, self.config,
                    z_batch[lo:hi], cond[lo:hi], t, self.a_hat,
                )
            for w, sl in enumerate(sls):
                out[:, sl, :] = preds[w * s_count : (w + 1) * s_count]
        return out

    def eps_from_output(self, net_out: np.ndarray, z: np.ndarray, t: int) -> np.ndarray:
        """Map the network output to a noise estimate (handles x0 prediction)."""
        if not self.flags.predict_x0:
            return net_out
        acum = float(self.sched.alpha_cum[t])
        return (z - np.sqrt(acum) * (net_out + self.z0c_chain)) / np.sqrt(1.0 - acum)

    def finalize(self, terminal: np.ndarray, q_levels=(0.05, 0.95)) -> ImputationResult:
        """Combine terminal chain states with the rough fill and score.

        A chain ends at residual + condition; the condition the chain ran
        with is subtracted here, so the imputation is fill - sign * residual.
        """
        residuals = terminal - self.z0c_chain
        s_count = residuals.shape[0]
        samples = np.empty_like(residuals)
        for s in range(s_count):
            imput_norm = self.x_init_eff - self.sign * residuals[s]
            full = np.where(self.visible, self.values_norm, imput_norm)
            denorm = dt.denormalize(full, self.stats)
            samples[s] = np.where(self.visible, self.x.values, denorm)
        median = np.median(samples, axis=0)
        q_low = np.quantile(samples, q_levels[0], axis=0)
        q_high = np.quantile(samples, q_levels[1], axis=0)
        scores = None
        if self.x.eval_mask.any():
            scores = dt.metrics(median, self.x.values, self.x.eval_mask)
        return ImputationResult(
            samples=samples, median=median, q_low=q_low, q_high=q_high,
            q_levels=tuple(q_levels), metrics=scores,
        )


def initial_only_impute(checkpoint, x: dt.MaskedGrid, graph) -> np.ndarray:
    """Rough-fill-only imputation in data units (stage-one baseline).

    Uses the same windowed fill as the samplers, so comparisons against the
    refined imputations are like for like.
    """
    setup = _SamplerSetup(checkpoint, x, graph)
    # the condition is the rough fill on every non-visible cell, whatever
    # the ablation flags
    full = np.where(setup.visible, setup.values_norm, setup.z0c)
    denorm = dt.denormalize(full, setup.stats)
    return np.where(setup.visible, x.values, denorm)


def _sample_rngs(rng: np.random.Generator, s_count: int) -> list[np.random.Generator]:
    seq = rng.bit_generator.seed_seq.spawn(s_count)
    return [np.random.default_rng(s) for s in seq]


def _draw(rngs: list[np.random.Generator], shape) -> np.ndarray:
    """One standard-normal grid per sample chain, from that chain's stream."""
    return np.stack([r.standard_normal(shape) for r in rngs])


def _check_finite(z: np.ndarray, step: str) -> None:
    """One pass over the chain state; a diverged chain is a NumericError."""
    if not np.isfinite(z).all():
        raise NumericError(f"sampling chain went non-finite at {step}")


def ancestral_impute(checkpoint, x: dt.MaskedGrid, graph, S: int,
                     rng: np.random.Generator, chunk: int = 128) -> ImputationResult:
    """Full-length reverse sampling of S imputations (Alg-style ancestral)."""
    if S < 1:
        raise ConfigError("sample count must be >= 1")
    setup = _SamplerSetup(checkpoint, x, graph)
    sched = setup.sched
    rngs = _sample_rngs(rng, S)
    z = _draw(rngs, x.shape) * setup.targetf
    for t in range(sched.T, 0, -1):
        net_out = setup.predict(z, t, chunk)
        noise = _draw(rngs, x.shape) if t > 1 else None
        z = ancestral_step(z, setup.z0c_chain, t, net_out, sched,
                           target_mask=setup.target, noise=noise,
                           predict_x0=setup.flags.predict_x0)
        _check_finite(z, f"ancestral step t={t}")
    return setup.finalize(z)


def accelerated_impute(checkpoint, x: dt.MaskedGrid, graph, K: int,
                       S: int, rng: np.random.Generator, eta: float = 1.0,
                       chunk: int = 128) -> ImputationResult:
    """Accelerated sampling over K evenly spaced sub-steps."""
    if S < 1:
        raise ConfigError("sample count must be >= 1")
    setup = _SamplerSetup(checkpoint, x, graph)
    sched = setup.sched
    steps = substep_schedule(sched.T, K)
    rngs = _sample_rngs(rng, S)
    z = _draw(rngs, x.shape) * setup.targetf
    for i, t in enumerate(steps):
        t_prev = steps[i + 1] if i + 1 < len(steps) else 0
        d = substep_noise_std(sched, t, t_prev, eta)
        net_out = setup.predict(z, t, chunk)
        eps_hat = setup.eps_from_output(net_out, z, t)
        noise = _draw(rngs, x.shape) if d > 0 else None
        z = accelerated_step(z, eps_hat, t, t_prev, d, sched, noise, setup.target)
        _check_finite(z, f"accelerated step {t}->{t_prev}")
    return setup.finalize(z)
