"""Numerical audits of every closed-form derivation in the package.

Each audit pits a production formula against an independent reference from
the oracle module (exact recursions, generic linear-Gaussian conditioning,
finite differences) and reports the worst residual against a fixed
tolerance.  ``run_audits`` returns a JSON-ready report; the CLI ``verify``
subcommand writes it to disk.  The acceptance criteria call the same audit
functions with their own schedules, draw counts and seeds.
"""

from __future__ import annotations

import numpy as np

from . import denoiser as dn
from . import forward as fw
from . import oracle as orc
from . import sampler as sp
from .schedule import build_linear_schedule

__all__ = ["run_audits"]


def _audit(name, residual, tol, **details):
    entry = {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tol),
        "pass": bool(residual <= tol),
    }
    entry.update(details)
    return entry


def _random_schedules(rng, sizes=(1, 2, 5, 50)):
    scheds = []
    for T in sizes:
        lo = rng.uniform(1e-4, 0.05)
        hi = rng.uniform(lo, 0.5)
        scheds.append(build_linear_schedule(T, lo, hi))
    return scheds


def _schedule_identities(scheds):
    worst = 0.0
    for sched in scheds:
        prod_res = np.max(np.abs(
            sched.alpha_cum[1:] - sched.alpha_cum[:-1] * sched.alpha_step
        ) / sched.alpha_cum[1:])
        cross = np.max(np.abs(
            sched.beta_tilde * (1.0 - sched.alpha_cum[1:])
            - (1.0 - sched.alpha_cum[:-1]) * sched.beta
        ))
        mono = 0.0 if np.all(np.diff(sched.alpha_cum) < 0) else 1.0
        worst = max(worst, prod_res, cross, mono)
    return _audit("schedule_identities", worst, 1e-12)


def _posterior_conditioning(scheds):
    """Generic conditioning must reproduce the posterior variance and the
    three mean coefficients used by the production formula."""
    worst = 0.0
    for sched in scheds:
        for t in range(1, sched.T + 1):
            beta = float(sched.beta[t - 1])
            astep = float(sched.alpha_step[t - 1])
            acum_prev = float(sched.alpha_cum[t - 1])
            acum = float(sched.alpha_cum[t])
            bt = float(sched.beta_tilde[t - 1])
            k = np.sqrt(astep)
            probes = [(1.3, 0.7, -0.4), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
            for z0m, z0c, z_t in probes:
                if acum_prev < 1.0:
                    mean_ref, var_ref = orc.gaussian_condition(
                        prior_mean=np.sqrt(acum_prev) * (z0m + z0c),
                        prior_var=1.0 - acum_prev,
                        lik_coef=k,
                        lik_offset=k * z0c,
                        lik_var=beta,
                        obs=z_t,
                    )
                    worst = max(worst, abs(var_ref - bt))
                else:
                    # t = 1: the prior is degenerate; the posterior is the prior
                    mean_ref = z0m + z0c
                mean_prod = float(fw.posterior_mean_z0(
                    np.array(z_t), np.array(z0m), np.array(z0c), t, sched))
                worst = max(worst, abs(mean_ref - mean_prod))
    return _audit("posterior_conditioning", worst, 1e-12)


def _substitution_identity(scheds, rng, n=10_000):
    """Noise-parameterized posterior mean must equal the moment form after
    substituting the forward sample: at least ``n`` draws per schedule,
    spread over every step."""
    worst = 0.0
    for sched in scheds:
        m = n // sched.T + 1
        for t in range(1, sched.T + 1):
            z0m = rng.uniform(-10, 10, m)
            z0c = rng.uniform(-10, 10, m)
            eps = rng.uniform(-10, 10, m)
            z_t = fw.q_sample(z0m, z0c, t, eps, sched)
            via_eps = fw.posterior_mean_eps(z_t, z0c, eps, t, sched)
            via_z0 = fw.posterior_mean_z0(z_t, z0m, z0c, t, sched)
            worst = max(worst, float(np.max(np.abs(via_eps - via_z0))))
    return _audit("substitution_identity", worst, 1e-10)


def _loss_weight(rng):
    """The gap between the two posterior means is a fixed multiple of the
    noise-estimate error: (mu_q - mu_p)^2 = w * (eps - eps_hat)^2 with
    w = (1 - alpha_step)^2 / (alpha_step (1 - alpha_cum)).  Reported next to
    it: the same constant without the 1/alpha_step factor, which is what a
    naive reading of the loss-weight algebra yields."""
    sched = build_linear_schedule(12, 0.02, 0.3)
    worst = 0.0
    naive_gap = 0.0
    for t in range(2, sched.T + 1):
        astep = float(sched.alpha_step[t - 1])
        acum = float(sched.alpha_cum[t])
        z0m, z0c = rng.uniform(-3, 3, 2)
        eps = rng.standard_normal(64)
        eps_hat = eps + rng.standard_normal(64)
        z_t = fw.q_sample(np.full(64, z0m), np.full(64, z0c), t, eps, sched)
        mu_q = fw.posterior_mean_z0(z_t, np.full(64, z0m), np.full(64, z0c), t, sched)
        mu_p = fw.posterior_mean_eps(z_t, np.full(64, z0c), eps_hat, t, sched)
        measured = np.sum((mu_q - mu_p) ** 2) / np.sum((eps - eps_hat) ** 2)
        derived = (1.0 - astep) ** 2 / (astep * (1.0 - acum))
        naive = (1.0 - astep) ** 2 / (1.0 - acum)
        worst = max(worst, abs(measured - derived) / derived)
        naive_gap = max(naive_gap, abs(measured - naive) / naive)
    return _audit("loss_weight_ratio", worst, 1e-10,
                  gap_to_constant_without_alpha_step_factor=float(naive_gap))


def _jump_identity(scheds, rng):
    """A state on the forward marginal at t keeps noise variance
    1 - alpha_cum_{t-1} after the jump, whatever the jump noise std."""
    worst = 0.0
    for sched in scheds:
        for t in range(1, sched.T + 1):
            acum_prev = float(sched.alpha_cum[t - 1])
            acum = float(sched.alpha_cum[t])
            d = rng.uniform(0, np.sqrt(1.0 - acum_prev)) if acum_prev < 1 else 0.0
            c_z, c_eps = sp.jump_coeffs(t, t - 1, d, sched)
            noise_var = (c_z * np.sqrt(1.0 - acum) + c_eps) ** 2 + d**2
            worst = max(worst, abs(noise_var - (1.0 - acum_prev)))
    return _audit("jump_coefficient_identity", worst, 1e-14)


def _deterministic_telescoping(rng, n):
    """With zero jump noise and the exact noise model, the accelerated chain
    of ``n`` cells must land exactly on residual + condition from any start."""
    worst = 0.0
    for T in (2, 5, 50):
        sched = build_linear_schedule(T, 1e-4, 0.2)
        for K in {T, max(1, T // 3)}:
            z0m = rng.uniform(-5, 5, n)
            z0c = rng.uniform(-5, 5, n)
            chain = sp.accelerated_chain(rng.standard_normal(n), _oracle_eps(z0m, z0c, sched),
                                         None, sched, sp.substep_schedule(T, K), 0.0, 1.0)
            worst = max(worst, float(np.max(np.abs(sp.final_state(chain) - (z0m + z0c)))))
    return _audit("deterministic_jump_telescoping", worst, 1e-8)


def _forward_compound_gap(sched):
    """Quantify the single-step versus closed-form marginal discrepancy."""
    table = []
    worst = 0.0
    for t in range(1, sched.T + 1):
        state = orc.compound_marginal_coeffs(sched, t)
        acum = float(sched.alpha_cum[t])
        table.append({
            "t": t,
            "compound_condition_coef": state.coef_condition,
            "marginal_condition_coef": float(np.sqrt(acum)),
            "gap": state.coef_condition - float(np.sqrt(acum)),
        })
        worst = max(
            worst,
            abs(state.coef_residual - np.sqrt(acum)),
            abs(state.noise_var - (1.0 - acum)),
        )
    return _audit("compound_marginal_residual_and_variance", worst, 1e-12,
                  condition_coefficient_table=table)


def _oracle_eps(z0m, z0c, sched):
    """The exact noise model as a chain's ``eps_fn(z, t)``."""
    predictor = orc.affine_oracle_predictor(z0m, z0c, sched)
    return lambda z, t: predictor(z, None, t)


def _pushforward(rng, sched, z0m, z0c, n, steps=None):
    """The sampler's chain under the exact noise model, run on ``n`` draws, must
    match the affine recursion at each step: mean and variance within four
    standard errors (the residual is the worse z-score over 4).  ``steps=None``
    runs the ancestral chain, descending ``steps`` the accelerated one at eta 1.
    ``terminal_gap`` is |mean - exact| + spread at t = 0."""
    variant = "ancestral" if steps is None else "accelerated"
    states = orc.sampler_pushforward_coeffs(sched, variant, steps)
    eps_fn, draw = _oracle_eps(z0m, z0c, sched), lambda: rng.standard_normal(n)
    z = rng.standard_normal(n)
    chain = (sp.ancestral_chain(z, np.full(n, z0c), eps_fn, draw, sched, 1.0) if steps is None
             else sp.accelerated_chain(z, eps_fn, draw, sched, steps, 1.0, 1.0))
    worst_mean = worst_var_sig = 0.0
    for z, ref in zip(chain, states[1:]):
        se = max(np.sqrt(ref.noise_var / n), 1e-12)
        worst_mean = max(worst_mean, abs(float(z.mean()) - ref.mean(z0m, z0c)) / max(4 * se, 1e-8))
        var_se = max(ref.noise_var * np.sqrt(2.0 / (n - 1)), 1e-12)
        worst_var_sig = max(worst_var_sig, abs(float(z.var()) - ref.noise_var) / (4 * var_se))
    exact = abs(float(z.mean()) - states[-1].mean(z0m, z0c)) + float(z.std())
    return _audit(f"{variant}_pushforward", max(worst_mean, worst_var_sig), 1.0,
                  terminal_gap=float(exact))


def _unconditional_reduction(rng):
    """Condition identically zero must reduce to the plain formulas."""
    sched = build_linear_schedule(8, 0.05, 0.3)
    worst = 0.0
    zeros = np.zeros(32)
    for t in range(1, sched.T + 1):
        x0 = rng.uniform(-4, 4, 32)
        eps = rng.standard_normal(32)
        z_t = fw.q_sample(x0, zeros, t, eps, sched)
        worst = max(worst, float(np.max(np.abs(z_t - orc.ddpm_q_sample(x0, t, eps, sched)))))
        worst = max(worst, float(np.max(np.abs(
            fw.posterior_mean_z0(z_t, x0, zeros, t, sched)
            - orc.ddpm_posterior_mean_z0(z_t, x0, t, sched)))))
        worst = max(worst, float(np.max(np.abs(
            fw.posterior_mean_eps(z_t, zeros, eps, t, sched)
            - orc.ddpm_posterior_mean_eps(z_t, eps, t, sched)))))
    return _audit("unconditional_reduction", worst, 1e-12)


def _elbo_oracle_collapse(rng):
    """Under the exact noise model every per-step KL vanishes."""
    sched = build_linear_schedule(6, 0.05, 0.3)
    z0m = rng.uniform(-2, 2, (8, 4))
    z0c = rng.uniform(-2, 2, (8, 4))
    predictor = orc.affine_oracle_predictor(z0m, z0c, sched)
    diag = fw.elbo_diagnostics(z0m, z0c, predictor, sched, mc_draws=4, rng=rng)
    worst = float(np.max(diag.step_kl)) if diag.step_kl.size else 0.0
    acum = float(sched.alpha_cum[sched.T])
    mean = np.sqrt(acum) * (z0m + z0c)
    prior_ref = float(np.mean(0.5 * ((1 - acum) + mean**2 - 1.0 - np.log(1 - acum))))
    worst = max(worst, abs(diag.prior_kl - prior_ref))
    return _audit("elbo_oracle_collapse", worst, 1e-12)


def _gradient_check(rng, step):
    """Tape gradients of a small denoiser's masked loss against central
    differences with step ``step``."""
    cfg = dn.DenoiserConfig(n_window=4, n_nodes=3, n_steps=5, d=8,
                            conv_width=3, head_count=2)
    params = dn.init_params(cfg, rng)
    adj = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.3], [0.5, 0.3, 0.0]])
    b = 2
    z_t = rng.standard_normal((b, 4, 3))
    z0c = rng.standard_normal((b, 4, 3))
    t = rng.integers(1, 6, size=b)
    eps = rng.standard_normal((b, 4, 3))
    mask = rng.random((b, 4, 3)) < 0.6
    mask[0, 0, 0] = True
    a_hat = dn.normalized_adjacency(adj)
    report = orc.finite_diff_check(
        lambda p: dn.masked_mse(dn.forward(p, cfg, z_t, z0c, t, a_hat), eps, mask),
        params, step=step)
    return _audit("gradient_finite_difference", report["max_rel_err"], 1e-4)


def run_audits(seed: int = 0) -> dict:
    """Run every derivation audit; returns a JSON-ready report."""
    rng = np.random.default_rng(seed)
    audits = [
        _schedule_identities(_random_schedules(rng, (1, 2, 5, 50, 100))),
        _posterior_conditioning(_random_schedules(rng)),
        _substitution_identity(_random_schedules(rng), rng),
        _loss_weight(rng),
        _jump_identity(_random_schedules(rng, (2, 5, 50)), rng),
        _deterministic_telescoping(rng, n=16),
        _forward_compound_gap(build_linear_schedule(5, 0.1, 0.3)),
        _pushforward(rng, build_linear_schedule(5, 0.05, 0.25), 1.2, -0.7, n=20_000),
        _unconditional_reduction(rng),
        _elbo_oracle_collapse(rng),
        _gradient_check(rng, step=1e-4),
        _pushforward(rng, build_linear_schedule(10, 0.01, 0.3), 0.6, -0.2, n=20_000,
                     steps=sp.substep_schedule(10, 4)),
    ]
    return {"seed": seed, "all_pass": all(a["pass"] for a in audits), "audits": audits}
