"""Reverse sampling of the residual and assembly of probabilistic imputations.

Each sampler has one chain driver that owns its whole loop (steps, noise
stds and draws, mask, finiteness check).  ``impute`` and the derivation
audits run the same drivers, each with its own start state, noise estimate
``eps_fn(z, t)`` and noise ``draw()``.

  * ancestral (``ancestral_chain``): full-length reverse chain; each
    ``ancestral_step`` takes the noise-parameterized posterior mean and adds
    noise with the posterior std (zero at the last step).
  * accelerated (``accelerated_chain``): non-Markovian ``accelerated_step``
    jumps over a descending subsequence of steps ending at 1, with
    coefficients from ``jump_coeffs`` and noise std the generalized
    posterior std between consecutive elements times eta in [0, 1].

Under the conditioned forward marginal both chains end at residual +
condition (z0m + z0c, with the condition zeroed under ``no_cond_forward``),
not at the residual alone.  ``_SamplerSetup.finalize`` removes the condition
from the terminal state before combining the residual with the rough fill.

The series is cut once into whole windows plus at most one shorter tail,
and each part's condition batch is built once per impute; a reshape turns
each part of the chain state into a window batch for the denoiser, which
``dn.call_slices`` splits into calls of as many windows as the call budget
allows (with 24-step windows and 4 heads: 5 windows at 20 nodes, one from 50
nodes up), so each op's operands stay in cache.  What a tape-free call holds
in scores is bounded by ``ad.attention``'s blocks, not by the call size.  Each
sample chain owns an RNG stream derived from (root seed, sample index), and a
window's prediction does not depend on the other windows in its call, so
results do not depend on how windows split into calls.  Chains start from
standard normal noise on target cells and the mask zeroes every new state
outside them, so visible cells pass through untouched in every sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import data as dt
from . import denoiser as dn
from . import initial as ini
from .errors import ConfigError, NumericError
# posterior_mean_z0 is not called here; perfbench/spans.py patches it in this
# module, and tests/test_bench_hooks.py checks that the patch point resolves
from .forward import posterior_mean_eps, posterior_mean_z0  # noqa: F401
from .schedule import NoiseSchedule

__all__ = [
    "ImputationResult",
    "ancestral_step",
    "ancestral_chain",
    "ancestral_impute",
    "initial_only_impute",
    "jump_coeffs",
    "substep_schedule",
    "substep_noise_std",
    "accelerated_step",
    "accelerated_chain",
    "accelerated_impute",
    "final_state",
    "check_sampling",
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


def ancestral_step(z_t, z0c, t: int, eps_hat, sched: NoiseSchedule, noise=None):
    """One reverse transition through the noise estimate, with posterior-std
    ``noise`` drawn by the caller (DDPM's Algorithm 2); t = 1 adds none."""
    if t > 1 and noise is None:
        raise ValueError(f"ancestral step {t} adds noise but was given none")
    mean = posterior_mean_eps(z_t, z0c, eps_hat, t, sched)
    if t == 1:
        return mean
    return mean + float(np.sqrt(sched.beta_tilde[t - 1])) * noise


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
                     sched: NoiseSchedule, noise=None):
    """Non-Markovian jump t -> t_prev through the noise estimate; d > 0 needs noise."""
    c_z, c_eps = jump_coeffs(t, t_prev, d, sched)
    out = c_z * np.asarray(z_t) + c_eps * np.asarray(eps_hat)
    if d > 0:
        if noise is None:
            raise ValueError(f"jump {t}->{t_prev} has noise std {d} but no noise")
        out = out + d * np.asarray(noise)
    return out


def _check_finite(z: np.ndarray, step: str) -> None:
    """One pass over the chain state; a diverged chain is a NumericError."""
    if not np.isfinite(z).all():
        raise NumericError(f"sampling chain went non-finite at {step}")


def ancestral_chain(z, z0c, eps_fn, draw, sched: NoiseSchedule, keep):
    """``ancestral_step`` from state ``z`` at T down to 1, yielding each new
    state times ``keep``; a noise ``draw()`` is taken for t > 1."""
    for t in range(sched.T, 0, -1):
        eps_hat = eps_fn(z, t)
        noise = draw() if t > 1 else None
        z = ancestral_step(z, z0c, t, eps_hat, sched, noise=noise) * keep
        _check_finite(z, f"ancestral step t={t}")
        yield z


def accelerated_chain(z, eps_fn, draw, sched: NoiseSchedule, steps, eta: float, keep):
    """``accelerated_step`` jumps from ``z`` over descending ``steps``, then to 0,
    yielding each new state times ``keep``; noise std is ``substep_noise_std``."""
    for t, t_prev in zip(steps, [*steps[1:], 0]):
        d = substep_noise_std(sched, t, t_prev, eta)
        eps_hat = eps_fn(z, t)
        noise = draw() if d > 0 else None
        z = accelerated_step(z, eps_hat, t, t_prev, d, sched, noise=noise) * keep
        _check_finite(z, f"accelerated step {t}->{t_prev}")
        yield z


def final_state(chain):
    """A chain's terminal state, holding one state at a time."""
    return deque(chain, maxlen=1).pop()


Q_LEVELS = (0.05, 0.95)  # the quantile band every imputation reports


@dataclass
class ImputationResult:
    """Per-sample imputations with median, quantile band, and metrics."""

    samples: np.ndarray  # (S, L, N), data units
    median: np.ndarray
    q_low: np.ndarray
    q_high: np.ndarray  # the band's levels are Q_LEVELS
    metrics: dict | None


class _SamplerSetup:
    """Shared preprocessing for both samplers, for chains of ``samples`` samples."""

    def __init__(self, checkpoint, x: dt.MaskedGrid, graph: dt.Graph, samples: int = 1):
        cfg = checkpoint.config
        self.sched = checkpoint.sched
        self.params = checkpoint.denoiser
        self.config = checkpoint.denoiser_config
        self.flags = cfg
        self.x = x
        self.stats = checkpoint.stats
        self.values_norm = dt.normalize(x, self.stats)[0].values
        self.visible = x.visible_mask
        self.targetf = (~self.visible).astype(np.float64)
        self.sign = cfg.residual_sign
        self.a_hat = dn.normalized_adjacency(graph.adjacency)

        # the rough fill is computed per window, exactly as during training,
        # so the condition follows the distribution the denoiser was fit on
        L, n_nodes = x.shape
        n_window = self.config.n_window
        x_init = np.empty_like(self.values_norm)
        for sl in (slice(lo, lo + n_window) for lo in range(0, L, n_window)):
            x_init[sl] = ini.impute_initial(self.values_norm[None, sl],
                                            self.visible[None, sl], graph,
                                            cfg.strategy, checkpoint.initial)[0]
        self.x_init_eff = np.zeros_like(x_init) if cfg.no_residual else x_init
        self.z0c = x_init * self.targetf
        self.z0c_chain = np.zeros_like(self.z0c) if cfg.no_cond_forward else self.z0c

        # whole windows, then at most one shorter tail, each with its
        # sample-major condition batch, built once for every reverse step;
        # windows start at multiples of n_window, so the denoiser's default
        # time index is each window's phase
        cut = L - L % n_window
        self.parts = [(slice(lo, hi), np.tile(self.z0c_chain[lo:hi].reshape(-1, length, n_nodes),
                                              (samples, 1, 1)))
                      for lo, hi, length in ((0, cut, n_window), (cut, L, L - cut))
                      if hi > lo]

    def predict(self, z_full: np.ndarray, t: int) -> np.ndarray:
        """Denoiser output for an (S, L, N) state, over sample-major window batches."""
        s_count, _, n_nodes = z_full.shape
        out = np.empty_like(z_full)
        for sl, c_batch in self.parts:
            z_batch = z_full[:, sl].reshape(c_batch.shape)
            preds = np.empty_like(z_batch)
            for win in dn.call_slices(z_batch.shape, self.config.head_count):
                preds[win] = dn.forward(self.params, self.config,
                                        z_batch[win], c_batch[win], t, self.a_hat)
            out[:, sl] = preds.reshape(s_count, -1, n_nodes)
        return out

    def eps_from_output(self, net_out: np.ndarray, z: np.ndarray, t: int) -> np.ndarray:
        """The network output as a noise estimate; a clean-residual output x0
        inverts the marginal (the sampler's only reader of ``predict_x0``)."""
        if not self.flags.predict_x0:
            return net_out
        acum = float(self.sched.alpha_cum[t])
        return (z - np.sqrt(acum) * (net_out + self.z0c_chain)) / np.sqrt(1.0 - acum)

    def eps(self, z: np.ndarray, t: int) -> np.ndarray:
        """The noise estimate at state ``z``: the chains' ``eps_fn``."""
        return self.eps_from_output(self.predict(z, t), z, t)

    def finalize(self, terminal: np.ndarray) -> ImputationResult:
        """Combine terminal chain states with the rough fill and score.

        A chain ends at residual + condition; the condition the chain ran
        with is subtracted here, so the imputation is fill - sign * residual.
        """
        imput_norm = self.x_init_eff - self.sign * (terminal - self.z0c_chain)
        samples = np.where(self.visible, self.x.values, dt.denormalize(imput_norm, self.stats))
        median = np.median(samples, axis=0)
        q_low, q_high = (np.quantile(samples, q, axis=0) for q in Q_LEVELS)
        scores = (dt.metrics(median, self.x.values, self.x.eval_mask)
                  if self.x.eval_mask.any() else None)
        return ImputationResult(samples=samples, median=median, q_low=q_low,
                                q_high=q_high, metrics=scores)


def initial_only_impute(checkpoint, x: dt.MaskedGrid, graph: dt.Graph) -> np.ndarray:
    """Rough-fill-only imputation in data units (stage-one baseline).

    Uses the same windowed fill as the samplers, so comparisons against the
    refined imputations are like for like.
    """
    setup = _SamplerSetup(checkpoint, x, graph)
    # the condition is the rough fill on every non-visible cell, whatever
    # the ablation flags
    return np.where(setup.visible, x.values, dt.denormalize(setup.z0c, setup.stats))


def _chain_draw(rng: np.random.Generator, S: int, shape):
    """``draw()`` of one standard-normal grid per sample chain, from its own stream."""
    rngs = [np.random.default_rng(seq) for seq in rng.bit_generator.seed_seq.spawn(S)]
    return lambda: np.stack([r.standard_normal(shape) for r in rngs])


def check_sampling(S: int, eta: float = 1.0) -> None:
    """ConfigError unless the sample count is at least 1 and eta lies in [0, 1].

    The samplers call it first; a command that trains before it samples
    calls it before training.
    """
    if not 0.0 <= eta <= 1.0:  # NaN fails too
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    if S < 1:
        raise ConfigError("sample count must be >= 1")


def ancestral_impute(checkpoint, x: dt.MaskedGrid, graph: dt.Graph, S: int,
                     rng: np.random.Generator) -> ImputationResult:
    """Full-length reverse sampling of S imputations (Alg-style ancestral)."""
    check_sampling(S)
    setup = _SamplerSetup(checkpoint, x, graph, S)
    draw = _chain_draw(rng, S, x.shape)
    return setup.finalize(final_state(ancestral_chain(
        draw() * setup.targetf, setup.z0c_chain, setup.eps, draw, setup.sched, setup.targetf)))


def accelerated_impute(checkpoint, x: dt.MaskedGrid, graph: dt.Graph, K: int,
                       S: int, rng: np.random.Generator,
                       eta: float = 1.0) -> ImputationResult:
    """Accelerated sampling over K evenly spaced sub-steps."""
    check_sampling(S, eta)
    setup = _SamplerSetup(checkpoint, x, graph, S)
    steps = substep_schedule(setup.sched.T, K)
    draw = _chain_draw(rng, S, x.shape)
    return setup.finalize(final_state(accelerated_chain(
        draw() * setup.targetf, setup.eps, draw, setup.sched, steps, eta, setup.targetf)))
