"""Exact linear-Gaussian reference computations for auditing the diffusion math.

Every chain in this package is affine-Gaussian: any state is an affine
function of the residual z0m and the condition z0c plus zero-mean Gaussian
noise.  :class:`AffineGaussianState` captures that law exactly (per cell;
the chains are elementwise), which lets each closed-form formula elsewhere
be checked against an independent recursion instead of against itself.

Independence rule: nothing here reuses arithmetic helpers from the modules
under audit.  The only shared object is the schedule, which is data; the
gradient audit takes its analytic side from the tape it checks, and the
trainable-fill reference is built from the tape's elementary ops, each
checked against finite differences on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .schedule import NoiseSchedule

__all__ = [
    "AffineGaussianState",
    "compound_marginal_coeffs",
    "gaussian_condition",
    "affine_oracle_predictor",
    "accel_substep_sigma",
    "sampler_pushforward_coeffs",
    "ancestral_condition_drift",
    "finite_diff_check",
    "einsum2",
    "trainable_fill_reference",
    "softmax",
    "attention_reference",
    "ddpm_q_sample",
    "ddpm_posterior_mean_z0",
    "ddpm_posterior_mean_eps",
]


@dataclass(frozen=True)
class AffineGaussianState:
    """Exact law of a chain state: coef_residual*z0m + coef_condition*z0c + N(0, noise_var)."""

    coef_residual: float
    coef_condition: float
    noise_var: float

    def __post_init__(self):
        if self.noise_var < 0:
            raise ValueError("variance must be nonnegative")

    def mean(self, z0m: float, z0c: float) -> float:
        return self.coef_residual * z0m + self.coef_condition * z0c


def compound_marginal_coeffs(sched: NoiseSchedule, t: int) -> AffineGaussianState:
    """Exact marginal of the single-step chain compounded from step 1 to t.

    Recursion from (1, 0, 0):
        c_z0  <- sqrt(alpha_step_t) * c_z0
        c_z0c <- sqrt(alpha_step_t) * (c_z0c + 1)
        v     <- alpha_step_t * v + beta_t

    By induction c_z0(t) = sqrt(alpha_cum_t) and v(t) = 1 - alpha_cum_t match
    the closed-form marginal, while c_z0c(t) exceeds sqrt(alpha_cum_t) for
    t >= 2: the two forward definitions in use disagree on the condition
    coefficient, and this function quantifies the gap.
    """
    if not 1 <= t <= sched.T:
        raise IndexError(f"step {t} outside 1..{sched.T}")
    c_res, c_cond, var = 1.0, 0.0, 0.0
    for s in range(1, t + 1):
        astep = float(sched.alpha_step[s - 1])
        beta = float(sched.beta[s - 1])
        root = np.sqrt(astep)
        c_res = root * c_res
        c_cond = root * (c_cond + 1.0)
        var = astep * var + beta
    return AffineGaussianState(c_res, c_cond, var)


def gaussian_condition(
    prior_mean: float,
    prior_var: float,
    lik_coef: float,
    lik_offset: float,
    lik_var: float,
    obs: float,
) -> tuple[float, float]:
    """One-dimensional linear-Gaussian conditioning.

    For x ~ N(m, v) and y | x ~ N(k x + c, w), the posterior of x given
    y = obs is Gaussian with
        var  = (1/v + k^2/w)^-1
        mean = var * (m/v + k (y - c)/w)
    """
    if prior_var <= 0 or lik_var <= 0:
        raise ValueError("variances must be positive")
    post_var = 1.0 / (1.0 / prior_var + lik_coef**2 / lik_var)
    post_mean = post_var * (
        prior_mean / prior_var + lik_coef * (obs - lik_offset) / lik_var
    )
    return post_mean, post_var


def affine_oracle_predictor(z0m, z0c, sched: NoiseSchedule):
    """The exact noise model for marginal-consistent states.

    eps*(z, t) = (z - sqrt(alpha_cum_t) * (z0m + z0c)) / sqrt(1 - alpha_cum_t)

    Applied to z = sqrt(alpha_cum_t)(z0m + z0c) + sqrt(1 - alpha_cum_t) * eps
    it recovers eps exactly; applied to any other affine-Gaussian state it
    stays affine, so sampler chains driven by it admit exact push-forwards.
    """
    z0m = np.asarray(z0m, dtype=np.float64)
    z0c = np.asarray(z0c, dtype=np.float64)

    def predictor(z, cond, t):
        acum = float(sched.alpha_cum[int(t)])
        return (np.asarray(z) - np.sqrt(acum) * (z0m + z0c)) / np.sqrt(1.0 - acum)

    return predictor


def accel_substep_sigma(sched: NoiseSchedule, t: int, t_prev: int, eta: float = 1.0) -> float:
    """Noise std for an accelerated jump t -> t_prev.

    Generalizes the adjacent-step posterior std: with a_eff = alpha_cum_t /
    alpha_cum_prev, sigma^2 = eta^2 (1 - alpha_cum_prev)(1 - a_eff)/(1 - alpha_cum_t).
    Reduces to sqrt(beta_tilde_t) at t_prev = t - 1, eta = 1; is 0 at t_prev = 0.
    """
    acum = float(sched.alpha_cum[t])
    acum_prev = float(sched.alpha_cum[t_prev])
    var = (1.0 - acum_prev) * (1.0 - acum / acum_prev) / (1.0 - acum)
    return eta * np.sqrt(var)


def sampler_pushforward_coeffs(
    sched: NoiseSchedule,
    variant: str,
    steps=None,
    eta: float = 1.0,
    init: AffineGaussianState | None = None,
) -> list[AffineGaussianState]:
    """Exact per-step law of a sampler chain under the affine oracle predictor.

    variant "ancestral": full-length reverse updates with posterior noise
    (none at t = 1).  variant "accelerated": non-Markovian jumps over
    ``steps`` (descending, ending at 1) with noise std scaled by ``eta``.

    Returns len(steps) + 1 states: the initial law followed by the law after
    each update; the terminal state is the analytic prediction acceptance
    tests compare against.
    """
    state = init if init is not None else AffineGaussianState(0.0, 0.0, 1.0)
    out = [state]
    if variant == "ancestral":
        steps = list(range(sched.T, 0, -1)) if steps is None else list(steps)
        for t in steps:
            beta = float(sched.beta[t - 1])
            astep = float(sched.alpha_step[t - 1])
            acum_prev = float(sched.alpha_cum[t - 1])
            acum = float(sched.alpha_cum[t])
            denom = 1.0 - acum
            gain = np.sqrt(astep) * (1.0 - acum_prev) / denom
            add_res = np.sqrt(acum_prev) * beta / denom
            add_cond = (np.sqrt(acum_prev) * beta - astep * (1.0 - acum_prev)) / denom
            sigma2 = float(sched.beta_tilde[t - 1]) if t > 1 else 0.0
            state = AffineGaussianState(
                gain * state.coef_residual + add_res,
                gain * state.coef_condition + add_cond,
                gain * gain * state.noise_var + sigma2,
            )
            out.append(state)
    elif variant == "accelerated":
        if steps is None:
            steps = list(range(sched.T, 0, -1))
        steps = list(steps)
        for i, t in enumerate(steps):
            t_prev = steps[i + 1] if i + 1 < len(steps) else 0
            acum = float(sched.alpha_cum[t])
            acum_prev = float(sched.alpha_cum[t_prev])
            d = accel_substep_sigma(sched, t, t_prev, eta)
            a = np.sqrt((1.0 - acum_prev - d * d) / (1.0 - acum))
            b = np.sqrt(acum_prev) - a * np.sqrt(acum)
            state = AffineGaussianState(
                a * state.coef_residual + b,
                a * state.coef_condition + b,
                a * a * state.noise_var + d * d,
            )
            out.append(state)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return out


def ancestral_condition_drift(sched: NoiseSchedule) -> float:
    """Largest gap, over the steps T..0, between the condition coefficient
    of the ancestral chain and that of the training marginal, sqrt(alpha_cum_t).

    The chain starts on the marginal at T and runs under the affine oracle
    predictor.  Its residual coefficient and variance stay on the marginal;
    its condition coefficient does not, because the posterior's condition
    term comes from the single-step transition (``compound_marginal_coeffs``).
    The accelerated chain over every step at eta 1 has no such gap.
    """
    root = float(np.sqrt(sched.alpha_cum[sched.T]))
    init = AffineGaussianState(root, root, 1.0 - float(sched.alpha_cum[sched.T]))
    states = sampler_pushforward_coeffs(sched, "ancestral", init=init)
    return max(abs(state.coef_condition - float(np.sqrt(sched.alpha_cum[sched.T - i])))
               for i, state in enumerate(states))


def finite_diff_check(loss_fn, params: dict, step: float = 1e-3) -> dict:
    """Central-difference audit of the tape's gradients of ``loss_fn``.

    ``loss_fn(p)`` builds a scalar loss from a name -> array dict.  It runs
    once taped on ``ad.leaves(params)`` for the analytic gradients, then
    tape-free on ``params`` itself with each element moved by +/- step in
    turn.  Relative error uses a per-tensor scale floor so exactly-zero
    gradients (unused embedding rows) do not blow up the ratio.  Intended for
    small instances only.
    """
    leaves = ad.leaves(params)
    loss = loss_fn(leaves)
    loss.backward()
    grads = ad.grads(leaves)
    report: dict[str, float] = {}
    worst = 0.0
    for name, arr in params.items():
        analytic = grads[name]
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn(params))
            flat[i] = orig - step
            down = float(loss_fn(params))
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * step)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6 * scale)
        err = float(np.max(np.abs(analytic - numeric) / denom))
        report[name] = err
        worst = max(worst, err)
    return {"max_rel_err": worst, "per_tensor": report, "loss": float(loss.value)}


def einsum2(spec: str, a, b):
    """Two-operand einsum as a tape op, for the unrolled fill reference.

    Gradients use the standard index-swap rule, valid because every operand
    index used here also appears in the output or the other operand.
    """
    av, bv = ad.value_of(a), ad.value_of(b)
    lhs, out_spec = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    return ad._node(
        np.einsum(spec, av, bv, optimize=True), (a, b),
        (lambda g: np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, bv, optimize=True),
         lambda g: np.einsum(f"{a_spec},{out_spec}->{b_spec}", av, g, optimize=True)))


def trainable_fill_reference(p, values, visible, mix):
    """The trainable rough fill unrolled op by op on the tape.

    The reference for ``initial.trainable_fill``, whose single tape node
    has a hand-written backward: the same recurrence, built here from the
    tape's elementary ops (each audited on its own), so its gradients come
    from the generic reverse pass.  Per-step predictions are placed on the
    time axis by zero padding and summed, which adds only exact zeros.
    """
    b, L, n = values.shape
    vis = np.asarray(visible, dtype=np.float64)
    preds = {}
    for prefix, order in (("fwd", range(L)), ("bwd", range(L - 1, -1, -1))):
        w_x, w_m = p[f"{prefix}_w_x"], p[f"{prefix}_w_m"]
        W_h, b_h = p[f"{prefix}_W_h"], p[f"{prefix}_b_h"]
        w_p, w_q, b_p = p[f"{prefix}_w_p"], p[f"{prefix}_w_q"], p[f"{prefix}_b_p"]
        h = np.zeros((b, n, ad.value_of(W_h).shape[0]))
        stacked = None
        for i in order:
            hop = einsum2("mn,bnh->bmh", mix, h)
            pred = ad.add(
                ad.add(einsum2("bnh,h->bn", h, w_p), einsum2("bnh,h->bn", hop, w_q)),
                b_p,
            )
            placed = ad.pad(ad.reshape(pred, (b, 1, n)), ((0, 0), (i, L - 1 - i), (0, 0)))
            stacked = placed if stacked is None else ad.add(stacked, placed)
            m_i = vis[:, i]
            v_i = ad.add(ad.mul(m_i, values[:, i]), ad.mul(1.0 - m_i, pred))
            pre = ad.add(
                ad.add(
                    ad.mul(ad.reshape(v_i, (b, n, 1)), w_x),
                    ad.mul(m_i.reshape(b, n, 1), w_m),
                ),
                ad.add(ad.matmul(h, W_h), b_h),
            )
            h = ad.tanh(pre)
        preds[prefix] = stacked
    x_hat = ad.mul(ad.add(preds["fwd"], preds["bwd"]), 0.5)
    x_obs = ad.mul(values, vis)
    return ad.add(x_obs, ad.mul(x_hat, 1.0 - vis))


def softmax(a):
    """Softmax over the last axis as a tape op, for the attention reference."""
    av = ad.value_of(a)
    out = av - np.max(av, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return ad._node(out, (a,),
                    (lambda g: (g - np.sum(g * out, axis=-1, keepdims=True)) * out,))


def attention_reference(q, k, v):
    """softmax(q kᵀ) v composed from the tape's elementary ops.

    The reference for ``autodiff.attention``, whose single tape node has a
    hand-written backward and a key-major softmax: the same product, built
    here op by op (scores, softmax over the last axis, context), so its
    gradients come from the generic reverse pass.
    """
    nd = np.ndim(ad.value_of(k))
    axes = (*range(nd - 2), nd - 1, nd - 2)
    scores = ad.matmul(q, ad.transpose(k, axes))
    return ad.matmul(softmax(scores), v)


# --- independent plain-DDPM reference (condition identically zero) ---------
#
# Written directly from the standard unconditional formulas so the package's
# conditioned operations can be cross-checked in their z0c = 0 reduction.


def ddpm_q_sample(x0, t: int, eps, sched: NoiseSchedule):
    acum = float(sched.alpha_cum[t])
    return np.sqrt(acum) * np.asarray(x0) + np.sqrt(1.0 - acum) * np.asarray(eps)


def ddpm_posterior_mean_z0(x_t, x0, t: int, sched: NoiseSchedule):
    beta = float(sched.beta[t - 1])
    astep = float(sched.alpha_step[t - 1])
    acum_prev = float(sched.alpha_cum[t - 1])
    acum = float(sched.alpha_cum[t])
    return (
        np.sqrt(astep) * (1.0 - acum_prev) / (1.0 - acum) * np.asarray(x_t)
        + np.sqrt(acum_prev) * beta / (1.0 - acum) * np.asarray(x0)
    )


def ddpm_posterior_mean_eps(x_t, eps_hat, t: int, sched: NoiseSchedule):
    astep = float(sched.alpha_step[t - 1])
    acum = float(sched.alpha_cum[t])
    return (
        np.asarray(x_t) - (1.0 - astep) / np.sqrt(1.0 - acum) * np.asarray(eps_hat)
    ) / np.sqrt(astep)
