import dataclasses

import numpy as np
import pytest

from residiff import audit as au
from residiff import data as dt
from residiff import forward as fw
from residiff import oracle as orc
from residiff import sampler as sp
from residiff.errors import ConfigError, NumericError
from residiff.schedule import build_linear_schedule
from residiff.trainer import Checkpoint, TrainConfig, train_joint

S2 = build_linear_schedule(2, 0.1, 0.2)


def test_ancestral_step_no_noise_at_final_step():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(8)
    eps_hat = rng.standard_normal(8)
    a = sp.ancestral_step(z, np.zeros(8), 1, eps_hat, S2, rng.standard_normal(8))
    b = sp.ancestral_step(z, np.zeros(8), 1, eps_hat, S2, rng.standard_normal(8))
    np.testing.assert_array_equal(a, b)  # noise unused at t = 1
    np.testing.assert_array_equal(a, sp.ancestral_step(z, np.zeros(8), 1, eps_hat, S2))


def test_ancestral_step_needs_noise_before_the_final_step():
    z = np.zeros(4)
    with pytest.raises(ValueError, match="noise"):
        sp.ancestral_step(z, z, 2, z, S2)


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
    audit = au._pushforward(np.random.default_rng(5), build_linear_schedule(5, 0.05, 0.25),
                            0.9, -0.4, n=50_000)
    # terminal state is exact: the last update discards the chain state
    assert audit["residual"] <= 1.0 and audit["terminal_gap"] <= 1e-8


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

    def test_a_noisy_jump_needs_its_noise(self):
        z, eps = np.array([0.3, -1.2]), np.array([0.5, 0.8])
        with pytest.raises(ValueError, match="no noise"):
            sp.accelerated_step(z, eps, 2, 1, 0.1, S2)

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
    chain = sp.accelerated_chain(rng.standard_normal(32), au._oracle_eps(z0m, z0c, sched),
                                 None, sched, sp.substep_schedule(T, K), 0.0, 1.0)
    np.testing.assert_allclose(sp.final_state(chain), z0m + z0c, atol=1e-8)


def test_accelerated_posterior_noise_matches_pushforward_variance():
    sched = build_linear_schedule(10, 0.01, 0.3)
    rng = np.random.default_rng(11)
    n = 50_000
    z0m, z0c = 0.6, -0.2
    # start from the forward marginal so every later state stays on it
    acum_T = sched.alpha_cum[10]
    z = np.sqrt(acum_T) * (z0m + z0c) + np.sqrt(1 - acum_T) * rng.standard_normal(n)
    steps = sp.substep_schedule(10, 4)
    chain = sp.accelerated_chain(z, au._oracle_eps(z0m, z0c, sched),
                                 lambda: rng.standard_normal(n), sched, steps, 1.0, 1.0)
    for z, t_prev in zip(chain, [*steps[1:], 0]):
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


def test_x0_output_through_the_noise_form_is_the_moment_form(tiny_run):
    """A clean-residual output converted to a noise estimate gives the same
    posterior mean as the moment form fed that residual, at every step."""
    grid, graph, ckpt = tiny_run
    ckpt = dataclasses.replace(ckpt, config=dataclasses.replace(ckpt.config, predict_x0=True))
    setup = sp._SamplerSetup(ckpt, grid, graph, 2)
    rng = np.random.default_rng(8)
    z0c = setup.z0c_chain
    for t in range(1, ckpt.sched.T + 1):
        z, x0 = rng.standard_normal((2, 2) + grid.shape)
        eps_hat = setup.eps_from_output(x0, z, t)
        np.testing.assert_allclose(
            fw.posterior_mean_eps(z, z0c, eps_hat, t, ckpt.sched),
            fw.posterior_mean_z0(z, x0, z0c, t, ckpt.sched), rtol=0, atol=1e-10)


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


@pytest.fixture(scope="module")
def wide_run():
    """The benchmark's graph size and denoiser shape (20 nodes, 24-step
    windows, d 32, 4 heads) over four whole windows and a 14-step tail."""
    grid, graph = dt.synth_generate(4, 20, 110, dt.SynthParams())
    grid = dt.mask_point(grid, 0.3, seed=2)
    cfg = TrainConfig(t_steps=6, epochs=1, batch_size=4, n_window=24, seed=0,
                      d=32, head_count=4)
    return grid, graph, train_joint(grid, graph, cfg).checkpoint


def test_seeded_determinism_independent_of_chunking(tiny_run, wide_run, monkeypatch):
    (grid, graph, ckpt), (wgrid, wgraph, wckpt) = tiny_run, wide_run
    runs = [lambda: sp.ancestral_impute(ckpt, grid, graph, S=2, rng=np.random.default_rng(42)),
            # 15 windows at 3 samples: the default sends 5, 5, 2 and 3 per call
            lambda: sp.accelerated_impute(wckpt, wgrid, wgraph, K=3, S=3,
                                          rng=np.random.default_rng(42))]
    defaults = [run().samples for run in runs]
    # 10**6: every window of a part in one call, as a 48 MiB budget sent them
    for per_call in (1, 3, 10**6):
        monkeypatch.setattr(sp.dn, "_windows_per_call", lambda *_, k=per_call: k)
        for run, samples in zip(runs, defaults):
            np.testing.assert_array_equal(run().samples, samples)


def test_each_window_is_predicted_once_within_the_bound(tiny_run, monkeypatch):
    grid, graph, ckpt = tiny_run
    L = 110  # four whole 24-step windows and a 14-step tail
    part = dt.MaskedGrid(grid.values[:L], grid.observed_mask[:L],
                         grid.eval_mask[:L], grid.timestamps[:L])
    monkeypatch.setattr(sp.dn, "_windows_per_call", lambda *_: 3)
    batches = []

    def spy(p, config, z_t, z0c, t, a_hat):
        batches.append((z_t.copy(), z0c.copy()))
        return z_t.copy()  # the identity shows each output lands in place

    monkeypatch.setattr(sp.dn, "forward", spy)
    setup = sp._SamplerSetup(ckpt, part, graph, 3)
    z = np.arange(3 * part.values.size, dtype=np.float64).reshape((3,) + part.shape)
    np.testing.assert_array_equal(setup.predict(z, 1), z)
    assert max(len(zb) for zb, _ in batches) <= 3
    windows = [w for zb, cb in batches for w in zip(zb, cb)]
    starts = sorted(int(zw[0, 0]) for zw, _ in windows)
    assert starts == sorted(int(z[s, lo, 0]) for s in range(3) for lo in range(0, L, 24))
    for zw, cw in windows:  # each window rides with its own condition
        lo = int(zw[0, 0]) % part.values.size // part.shape[1]
        np.testing.assert_array_equal(cw, setup.z0c_chain[lo : lo + len(zw)])
    assert [len(zw) for zw, _ in windows].count(14) == 3


@pytest.mark.parametrize("sampler", ["ancestral", "accelerated"])
def test_condition_batch_is_built_once_per_impute(tiny_run, monkeypatch, sampler):
    grid, graph, ckpt = tiny_run
    forward, first_cond = sp.dn.forward, {}

    def spy(p, config, z_t, z0c, t, a_hat):
        first_cond.setdefault(t, z0c)
        return forward(p, config, z_t, z0c, t, a_hat)

    monkeypatch.setattr(sp.dn, "forward", spy)
    rng = np.random.default_rng(0)
    if sampler == "ancestral":
        sp.ancestral_impute(ckpt, grid, graph, S=3, rng=rng)
    else:
        sp.accelerated_impute(ckpt, grid, graph, K=3, S=3, rng=rng)
    first, last = (first_cond[t] for t in (max(first_cond), min(first_cond)))
    assert len(first_cond) > 1 and np.shares_memory(first, last)


@pytest.mark.parametrize("sampler", ["ancestral", "accelerated"])
def test_denoiser_sees_the_fill_on_target_cells_not_the_observations(monkeypatch, sampler):
    """The refinement stage's information set: the denoiser reads its chain
    state and the rough fill on target cells, never the visible values.
    Two series whose visible values differ by a permutation in time, per
    node and window, share every node_mean fill (small integers, unit
    stats: every mean is exact), so each denoiser output and each sample on
    the target cells must agree bit for bit.  Feeding the observations to
    the denoiser is a change that edits this test."""
    rng = np.random.default_rng(7)
    steps, n, window = 48, 5, 24
    values = rng.integers(-4, 5, size=(steps, n)).astype(np.float64)
    grid = dt.MaskedGrid(values, np.ones((steps, n), bool), rng.random((steps, n)) < 0.3,
                         np.arange(steps, dtype=np.float64))
    permuted, visible = values.copy(), grid.visible_mask
    for lo in range(0, steps, window):
        for j in range(n):
            rows = lo + np.flatnonzero(visible[lo : lo + window, j])
            permuted[rows, j] = values[rng.permutation(rows), j]
    other = dataclasses.replace(grid, values=permuted)
    assert not np.array_equal(other.values[visible], grid.values[visible])
    adjacency = rng.random((n, n))
    graph = dt.Graph(np.triu(adjacency, 1) + np.triu(adjacency, 1).T)
    cfg = TrainConfig(t_steps=5, n_window=window, d=8, head_count=2, strategy="node_mean")
    ckpt = Checkpoint(denoiser=sp.dn.init_params(cfg.denoiser_config(n), rng), initial={},
                      stats=dt.NormStats(np.zeros(n), np.ones(n)), config=cfg)
    target = ~visible
    fills = [sp.initial_only_impute(ckpt, g, graph) for g in (grid, other)]
    np.testing.assert_array_equal(fills[0][target], fills[1][target])

    forward, outputs = sp.dn.forward, []

    def spy(*args):
        outputs[-1].append(forward(*args))
        return outputs[-1][-1]

    monkeypatch.setattr(sp.dn, "forward", spy)
    samples = []
    for g in (grid, other):
        outputs.append([])
        rng = np.random.default_rng(3)
        result = (sp.ancestral_impute(ckpt, g, graph, S=2, rng=rng) if sampler == "ancestral"
                  else sp.accelerated_impute(ckpt, g, graph, K=3, S=2, rng=rng))
        samples.append(result.samples[:, target])
    assert len(outputs[0]) == len(outputs[1]) > 1
    for a, b in zip(*outputs):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(*samples)


def test_windows_per_call_follows_the_node_count():
    # 24-step windows and 4 heads, up to the benchmark's 20 nodes and a
    # 325-sensor graph: one score tensor per call stays within 2 MiB
    counts = {n: sp.dn._windows_per_call(n, 24, 4) for n in (8, 20, 50, 100, 325)}
    assert counts == {8: 14, 20: 5, 50: 1, 100: 1, 325: 1}


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

    def predict(self, z_full, t):
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
