import dataclasses

import numpy as np
import pytest

from residiff import data as dt
from residiff import oracle as orc
from residiff import sampler as sp
from residiff.errors import ConfigError, NumericError
from residiff.schedule import build_linear_schedule
from residiff.trainer import TrainConfig, train_joint

S2 = build_linear_schedule(2, 0.1, 0.2)


def test_ancestral_step_no_noise_at_final_step():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(8)
    eps_hat = rng.standard_normal(8)
    a = sp.ancestral_step(z, np.zeros(8), 1, eps_hat, S2, np.random.default_rng(1))
    b = sp.ancestral_step(z, np.zeros(8), 1, eps_hat, S2, np.random.default_rng(2))
    np.testing.assert_array_equal(a, b)  # rng unused at t = 1


def test_ancestral_step_unconditional_reduction():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(6)
    eps_hat = rng.standard_normal(6)
    noise = rng.standard_normal(6)
    got = sp.ancestral_step(z, np.zeros(6), 2, eps_hat, S2, noise=noise)
    expect = (orc.ddpm_posterior_mean_eps(z, eps_hat, 2, S2)
              + np.sqrt(S2.beta_tilde[1]) * noise)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_ancestral_chain_matches_pushforward_recursion():
    sched = build_linear_schedule(5, 0.05, 0.25)
    rng = np.random.default_rng(5)
    n = 50_000
    z0m, z0c = 0.9, -0.4
    predictor = orc.affine_oracle_predictor(z0m, z0c, sched)
    states = orc.sampler_pushforward_coeffs(sched, "ancestral")
    z = rng.standard_normal(n)
    for i, t in enumerate(range(5, 0, -1)):
        z = sp.ancestral_step(z, np.full(n, z0c), t, predictor(z, None, t), sched, rng)
        ref = states[i + 1]
        if ref.noise_var > 0:
            se = np.sqrt(ref.noise_var / n)
            assert abs(z.mean() - ref.mean(z0m, z0c)) < 4 * se
            var_se = ref.noise_var * np.sqrt(2 / (n - 1))
            assert abs(z.var() - ref.noise_var) < 4 * var_se
    # terminal state is exact: the last update discards the chain state
    np.testing.assert_allclose(z, z0m + z0c, atol=1e-8)


def _z_coeff(c_z, c_eps, t, sched):
    """Coefficient of z_t once eps_hat is the marginal's exact noise."""
    return c_z + c_eps / np.sqrt(1 - sched.alpha_cum[t])


class TestDdimCoeffs:
    """``jump_coeffs``, the coefficients ``accelerated_step`` applies."""

    def test_deterministic_case(self):
        c_z, c_eps = sp.jump_coeffs(2, 1, 0.0, S2)
        assert _z_coeff(c_z, c_eps, 2, S2) == pytest.approx(np.sqrt(0.1 / 0.28))
        # zero noise std: the jump ignores any noise it is given
        z, eps = np.array([0.3, -1.2]), np.array([0.5, 0.8])
        np.testing.assert_array_equal(
            sp.accelerated_step(z, eps, 2, 1, 0.0, S2, noise=np.full(2, 9.0)),
            sp.accelerated_step(z, eps, 2, 1, 0.0, S2))

    def test_identity_random_noise_levels(self):
        rng = np.random.default_rng(7)
        sched = build_linear_schedule(10, 0.01, 0.3)
        for t in range(2, 11):
            dmax = np.sqrt(1 - sched.alpha_cum[t - 1])
            d = rng.uniform(0, dmax)
            c_z, c_eps = sp.jump_coeffs(t, t - 1, d, sched)
            lhs = (c_z * np.sqrt(1 - sched.alpha_cum[t]) + c_eps) ** 2 + d**2
            assert lhs == pytest.approx(1 - sched.alpha_cum[t - 1], abs=1e-14)

    def test_derived_value(self):
        d = float(np.sqrt(S2.beta_tilde[1]))
        c_z, c_eps = sp.jump_coeffs(2, 1, d, S2)
        assert _z_coeff(c_z, c_eps, 2, S2) == pytest.approx(0.31944, abs=1e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sp.jump_coeffs(2, 1, 1.0, S2)
        with pytest.raises(IndexError):
            sp.jump_coeffs(3, 2, 0.0, S2)


class TestSubsteps:
    def test_full_schedule(self):
        assert sp.substep_schedule(5, 5) == [5, 4, 3, 2, 1]

    def test_endpoints_always_included(self):
        for T, K in ((50, 10), (50, 2), (7, 3), (5, 1)):
            steps = sp.substep_schedule(T, K)
            assert steps[0] == T and steps[-1] == 1 or (K == 1 and steps == [T])
            assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            sp.substep_schedule(5, 6)
        with pytest.raises(ConfigError):
            sp.substep_schedule(5, 0)

    def test_noise_std_reduces_to_posterior(self):
        sched = build_linear_schedule(10, 0.01, 0.3)
        for t in range(2, 11):
            assert sp.substep_noise_std(sched, t, t - 1) == pytest.approx(
                np.sqrt(sched.beta_tilde[t - 1]), abs=1e-14)
        assert sp.substep_noise_std(sched, 7, 0) == 0.0
        assert sp.substep_noise_std(sched, 7, 3, eta=0.0) == 0.0


@pytest.mark.parametrize("T,K", [(2, 2), (5, 5), (50, 50), (50, 10), (5, 2)])
def test_accelerated_telescopes_to_residual_plus_condition(T, K):
    sched = build_linear_schedule(T, 1e-4, 0.2)
    rng = np.random.default_rng(T * 100 + K)
    z0m = rng.uniform(-5, 5, 32)
    z0c = rng.uniform(-5, 5, 32)
    predictor = orc.affine_oracle_predictor(z0m, z0c, sched)
    z = rng.standard_normal(32)
    steps = sp.substep_schedule(T, K)
    for i, t in enumerate(steps):
        t_prev = steps[i + 1] if i + 1 < len(steps) else 0
        z = sp.accelerated_step(z, predictor(z, None, t), t, t_prev, 0.0, sched)
    np.testing.assert_allclose(z, z0m + z0c, atol=1e-8)


def test_accelerated_posterior_noise_matches_pushforward_variance():
    sched = build_linear_schedule(10, 0.01, 0.3)
    rng = np.random.default_rng(11)
    n = 50_000
    z0m, z0c = 0.6, -0.2
    predictor = orc.affine_oracle_predictor(z0m, z0c, sched)
    # start from the forward marginal so every later state stays on it
    eps = rng.standard_normal(n)
    acum_T = sched.alpha_cum[10]
    z = np.sqrt(acum_T) * (z0m + z0c) + np.sqrt(1 - acum_T) * eps
    steps = sp.substep_schedule(10, 4)
    for i, t in enumerate(steps):
        t_prev = steps[i + 1] if i + 1 < len(steps) else 0
        d = sp.substep_noise_std(sched, t, t_prev)
        noise = rng.standard_normal(n) if d > 0 else None
        z = sp.accelerated_step(z, predictor(z, None, t), t, t_prev, d, sched, noise)
        acum_prev = sched.alpha_cum[t_prev]
        expect_mean = np.sqrt(acum_prev) * (z0m + z0c)
        expect_var = 1 - acum_prev
        if expect_var > 0:
            assert abs(z.mean() - expect_mean) < 4 * np.sqrt(expect_var / n)
            assert abs(z.var() - expect_var) < 4 * expect_var * np.sqrt(2 / (n - 1))
    np.testing.assert_allclose(z, z0m + z0c, atol=1e-8)


@pytest.fixture(scope="module")
def tiny_run():
    grid, graph = dt.synth_generate(3, 6, 120, dt.SynthParams())
    grid = dt.mask_point(grid, 0.3, seed=2)
    cfg = TrainConfig(t_steps=6, epochs=2, batch_size=4, n_window=24, seed=0,
                      d=16, head_count=2)
    result = train_joint(grid, graph, cfg)
    return grid, graph, result.checkpoint


def test_visible_cells_pass_through_every_sample(tiny_run):
    grid, graph, ckpt = tiny_run
    out = sp.ancestral_impute(ckpt, grid, graph, S=3, rng=np.random.default_rng(0))
    vis = grid.visible_mask
    for s in range(3):
        np.testing.assert_array_equal(out.samples[s][vis], grid.values[vis])
    out2 = sp.accelerated_impute(ckpt, grid, graph, K=3, S=2,
                                 rng=np.random.default_rng(0))
    for s in range(2):
        np.testing.assert_array_equal(out2.samples[s][vis], grid.values[vis])


def test_single_sample_median_is_the_sample(tiny_run):
    grid, graph, ckpt = tiny_run
    out = sp.ancestral_impute(ckpt, grid, graph, S=1, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(out.median, out.samples[0])


def test_quantile_band_is_monotone(tiny_run):
    grid, graph, ckpt = tiny_run
    out = sp.ancestral_impute(ckpt, grid, graph, S=5, rng=np.random.default_rng(2))
    assert np.all(out.q_low <= out.median + 1e-12)
    assert np.all(out.median <= out.q_high + 1e-12)
    assert out.metrics is not None and np.isfinite(out.metrics["mae"])


def test_seeded_determinism_independent_of_chunking(tiny_run):
    grid, graph, ckpt = tiny_run
    a = sp.ancestral_impute(ckpt, grid, graph, S=2,
                            rng=np.random.default_rng(42), chunk=128)
    b = sp.ancestral_impute(ckpt, grid, graph, S=2,
                            rng=np.random.default_rng(42), chunk=3)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_sample_count_validation(tiny_run):
    grid, graph, ckpt = tiny_run
    with pytest.raises(ConfigError):
        sp.ancestral_impute(ckpt, grid, graph, S=0, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        sp.accelerated_impute(ckpt, grid, graph, K=99, S=1,
                              rng=np.random.default_rng(0))


@pytest.mark.parametrize("predict_x0", [False, True])
def test_samplers_run_the_audited_step_functions(tiny_run, monkeypatch, predict_x0):
    grid, graph, ckpt = tiny_run
    ckpt = dataclasses.replace(
        ckpt, config=dataclasses.replace(ckpt.config, predict_x0=predict_x0))
    calls = {"ancestral_step": 0, "accelerated_step": 0}
    for name in calls:
        def spy(*args, _step=getattr(sp, name), _name=name, **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)

        monkeypatch.setattr(sp, name, spy)
    sp.ancestral_impute(ckpt, grid, graph, S=2, rng=np.random.default_rng(0))
    assert calls == {"ancestral_step": ckpt.sched.T, "accelerated_step": 0}
    sp.accelerated_impute(ckpt, grid, graph, K=3, S=2, rng=np.random.default_rng(0))
    assert calls["accelerated_step"] == len(sp.substep_schedule(ckpt.sched.T, 3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sampler,step", [("ancestral", "t=4"), ("accelerated", "4->1")])
def test_non_finite_chain_is_a_numeric_error_naming_the_step(tiny_run, diverge_at,
                                                             sampler, step):
    grid, graph, ckpt = tiny_run
    diverge_at(4)  # T = 6; the K = 3 accelerated chain visits 6, 4, 1
    rng = np.random.default_rng(0)
    with pytest.raises(NumericError, match=f"step {step}$"):
        if sampler == "ancestral":
            sp.ancestral_impute(ckpt, grid, graph, S=2, rng=rng)
        else:
            sp.accelerated_impute(ckpt, grid, graph, K=3, S=2, rng=rng)


def _exact_oracle_predict(monkeypatch, ckpt, grid):
    """Patch the denoiser with the exact residual / noise oracle.

    The true residual is sign * (fill - truth) in normalized units on target
    cells; noise-target checkpoints get the exact noise of the conditioned
    marginal, as in ``oracle.affine_oracle_predictor``.
    """
    cfg = ckpt.config
    values_norm = (grid.values - ckpt.stats.mean[None, :]) / ckpt.stats.std[None, :]
    values_norm = np.where(grid.observed_mask, values_norm, 0.0)

    def predict(self, z_full, t, chunk=128):
        z0m = cfg.residual_sign * (self.x_init_eff - values_norm) * self.targetf
        if cfg.predict_x0:
            return np.broadcast_to(z0m, z_full.shape).copy()
        return orc.affine_oracle_predictor(z0m, self.z0c_chain, ckpt.sched)(z_full, None, t)

    monkeypatch.setattr(sp._SamplerSetup, "predict", predict)


@pytest.mark.parametrize("flag", [None, "flip_residual_sign", "no_residual",
                                  "no_cond_forward"])
@pytest.mark.parametrize("predict_x0", [False, True])
@pytest.mark.parametrize("sampler", ["ancestral", "accelerated"])
def test_exact_oracle_recovers_truth_on_eval_cells(tiny_run, monkeypatch,
                                                   sampler, predict_x0, flag):
    grid, graph, ckpt = tiny_run
    changes = {"predict_x0": predict_x0}
    if flag is not None:
        changes[flag] = True
    ckpt = dataclasses.replace(ckpt, config=dataclasses.replace(ckpt.config, **changes))
    _exact_oracle_predict(monkeypatch, ckpt, grid)
    rng = np.random.default_rng(4)
    if sampler == "ancestral":
        out = sp.ancestral_impute(ckpt, grid, graph, S=2, rng=rng)
    else:
        out = sp.accelerated_impute(ckpt, grid, graph, K=3, S=2, rng=rng)
    ev = grid.eval_mask
    assert ev.any()
    for s in range(2):
        np.testing.assert_allclose(out.samples[s][ev], grid.values[ev], rtol=0, atol=1e-9)
