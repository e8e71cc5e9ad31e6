"""Observation-conditioned forward diffusion and posterior-mean formulas.

The closed-form marginal used by training and sampling is

    z_t = sqrt(alpha_cum_t) * (z0m + z0c) + sqrt(1 - alpha_cum_t) * eps

where z0m is the residual grid and z0c the condition grid.  The single-step
transition (``q_step_sample``) runs only in criterion c06 and its tests:
compounding it does NOT reproduce the marginal's z0c coefficient, a
discrepancy the oracle module quantifies (``oracle.compound_marginal_coeffs``).

All operations are pure functions of their inputs plus an explicit RNG and
accept either plain ndarrays or autodiff Tensors for the grid arguments, so
the trainer can differentiate through them.  Of the step formulas only
``q_sample`` takes a target mask, for the trainer; the rest run cell-wise on
the whole grid.  Losses and metrics reduce over target cells, and
``elbo_diagnostics`` reduces its terms over the mask it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .denoiser import _masked_mean
from .schedule import NoiseSchedule

__all__ = [
    "q_sample",
    "q_step_sample",
    "posterior_mean_z0",
    "posterior_mean_eps",
    "gaussian_kl_same_var",
    "gaussian_kl_to_std_normal",
    "ElboDiagnostics",
    "elbo_diagnostics",
]


def _check_t(sched: NoiseSchedule, t) -> np.ndarray:
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > sched.T):
        raise IndexError(f"step {t} outside 1..{sched.T}")
    return t


def _per_item(arr: np.ndarray, t: np.ndarray, grid_ndim: int):
    """Schedule scalars for step(s) t, shaped to broadcast over the grid."""
    vals = arr[t]
    if t.ndim == 0:
        return float(vals)
    return vals.reshape(vals.shape + (1,) * (grid_ndim - 1))


def _coeffs(sched: NoiseSchedule, t, grid):
    t = _check_t(sched, t)
    grid_ndim = np.ndim(ad.value_of(grid))
    beta = _per_item(sched.beta, t - 1, grid_ndim)
    astep = _per_item(sched.alpha_step, t - 1, grid_ndim)
    acum_prev = _per_item(sched.alpha_cum, t - 1, grid_ndim)
    acum = _per_item(sched.alpha_cum, t, grid_ndim)
    return beta, astep, acum_prev, acum


def q_sample(z0m, z0c, t, eps, sched: NoiseSchedule, target_mask=None):
    """Closed-form diffused grid at step t via the reparameterization trick.

    ``t`` may be a scalar step or an int array matching the leading axis of
    batched grids.  ``target_mask`` zeroes the result outside target cells.
    """
    _, _, _, acum = _coeffs(sched, t, z0m)
    out = ad.add(
        ad.mul(np.sqrt(acum), ad.add(z0m, z0c)),
        ad.mul(np.sqrt(1.0 - acum), eps),
    )
    if target_mask is None:
        return out
    return ad.mul(out, np.asarray(target_mask, dtype=np.float64))


def q_step_sample(z_prev, z0c, t, eps, sched: NoiseSchedule):
    """Single forward transition; verification-only (see module docstring)."""
    beta, astep, _, _ = _coeffs(sched, t, z_prev)
    return ad.add(
        ad.mul(np.sqrt(astep), ad.add(z_prev, z0c)),
        ad.mul(np.sqrt(beta), eps),
    )


def posterior_mean_z0(z_t, z0m, z0c, t, sched: NoiseSchedule):
    """Posterior mean of z_{t-1} given (z_t, z0m, z0c).

    At t = 1 this is exactly z0m + z0c for any z_t (alpha_cum[0] = 1 makes
    the z_t coefficient vanish).
    """
    beta, astep, acum_prev, acum = _coeffs(sched, t, z_t)
    denom = 1.0 - acum
    c_zt = np.sqrt(astep) * (1.0 - acum_prev) / denom
    c_z0m = np.sqrt(acum_prev) * beta / denom
    c_z0c = (np.sqrt(acum_prev) * beta - astep * (1.0 - acum_prev)) / denom
    return ad.add(
        ad.add(ad.mul(c_zt, z_t), ad.mul(c_z0m, z0m)),
        ad.mul(c_z0c, z0c),
    )


def posterior_mean_eps(z_t, z0c, eps_hat, t, sched: NoiseSchedule):
    """Posterior mean parameterized by the noise estimate instead of z0m.

    Substituting the marginal's inversion of z0m into ``posterior_mean_z0``
    yields this form; the two agree to floating-point accuracy (audited).
    """
    beta, astep, acum_prev, acum = _coeffs(sched, t, z_t)
    denom = 1.0 - acum
    inv_sqrt_astep = 1.0 / np.sqrt(astep)
    c_z0c = astep * np.sqrt(astep) * (1.0 - acum_prev) / denom
    c_eps = (1.0 - astep) / np.sqrt(denom)
    inner = ad.sub(ad.sub(z_t, ad.mul(c_z0c, z0c)), ad.mul(c_eps, eps_hat))
    return ad.mul(inv_sqrt_astep, inner)


def gaussian_kl_same_var(mu1, mu2, var: float):
    """KL(N(mu1, var*I) || N(mu2, var*I)) per cell: (mu1-mu2)^2 / (2 var)."""
    d = np.asarray(mu1, dtype=np.float64) - np.asarray(mu2, dtype=np.float64)
    return d * d / (2.0 * var)


def gaussian_kl_to_std_normal(mean, var: float):
    """KL(N(mean, var*I) || N(0, I)) per cell: (var + mean^2 - 1 - ln var)/2."""
    m = np.asarray(mean, dtype=np.float64)
    return 0.5 * (var + m * m - 1.0 - np.log(var))


@dataclass
class ElboDiagnostics:
    """Variational-bound diagnostics; not a training loss.

    ``step_kl[i]`` is the Monte-Carlo KL estimate for step t = i + 2 (the
    t = 1 KL is excluded by construction since its posterior variance is 0;
    the reconstruction log-likelihood stands in for it).
    """

    step_kl: np.ndarray
    prior_kl: float
    recon_loglik: float


def elbo_diagnostics(
    z0m,
    z0c,
    eps_predictor,
    sched: NoiseSchedule,
    mc_draws: int,
    rng: np.random.Generator,
    target_mask=None,
) -> ElboDiagnostics:
    """Per-step KL estimates plus prior and reconstruction terms.

    ``eps_predictor(z_t, z0c, t) -> eps_hat`` is a trained or oracle noise
    model.  Per cell, each KL term compares Gaussians with shared variance
    beta_tilde_t, so KL = (mu_q - mu_p)^2 / (2 beta_tilde_t).  The
    reconstruction density uses variance beta_1 (the reverse chain adds no
    noise at t = 1, so some fixed variance must be chosen for a density).
    """
    if mc_draws < 1:
        raise ValueError("mc_draws must be >= 1")
    z0m_v = np.asarray(z0m, dtype=np.float64)
    z0c_v = np.asarray(z0c, dtype=np.float64)
    if target_mask is None:
        target_mask = np.ones_like(z0m_v, dtype=bool)
    mask = np.asarray(target_mask, dtype=bool)

    step_kl = np.zeros(max(sched.T - 1, 0))
    for t in range(2, sched.T + 1):
        bt = float(sched.beta_tilde[t - 1])
        acc = 0.0
        for _ in range(mc_draws):
            eps = rng.standard_normal(z0m_v.shape)
            z_t = q_sample(z0m_v, z0c_v, t, eps, sched, mask)
            mu_q = posterior_mean_z0(z_t, z0m_v, z0c_v, t, sched)
            eps_hat = eps_predictor(z_t, z0c_v, t)
            mu_p = posterior_mean_eps(z_t, z0c_v, eps_hat, t, sched)
            acc += float(_masked_mean(gaussian_kl_same_var(mu_q, mu_p, bt), mask))
        step_kl[t - 2] = acc / mc_draws

    acum_T = float(sched.alpha_cum[sched.T])
    prior_mean = np.sqrt(acum_T) * (z0m_v + z0c_v)
    prior_kl = float(_masked_mean(
        gaussian_kl_to_std_normal(prior_mean, 1.0 - acum_T), mask))

    recon_var = float(sched.beta[0])
    acc = 0.0
    for _ in range(mc_draws):
        eps = rng.standard_normal(z0m_v.shape)
        z_1 = q_sample(z0m_v, z0c_v, 1, eps, sched, mask)
        eps_hat = eps_predictor(z_1, z0c_v, 1)
        mu_p = posterior_mean_eps(z_1, z0c_v, eps_hat, 1, sched)
        logpdf = -0.5 * (
            np.log(2.0 * np.pi * recon_var) + (z0m_v - mu_p) ** 2 / recon_var
        )
        acc += float(_masked_mean(logpdf, mask))
    recon_loglik = acc / mc_draws

    return ElboDiagnostics(step_kl=step_kl, prior_kl=prior_kl, recon_loglik=recon_loglik)
