import numpy as np
import pytest

from residiff import forward as fw
from residiff import oracle as orc
from residiff.errors import DataError
from residiff.schedule import build_linear_schedule

S2 = build_linear_schedule(2, 0.1, 0.2)


def test_q_sample_pure_noise_case():
    eps = np.random.default_rng(0).standard_normal((4, 3))
    z = fw.q_sample(np.zeros((4, 3)), np.zeros((4, 3)), 2, eps, S2)
    np.testing.assert_allclose(z, np.sqrt(1 - 0.72) * eps)


def test_q_sample_noiseless_mean():
    z0m = np.full((2, 2), 1.0)
    z0c = np.full((2, 2), 0.5)
    z = fw.q_sample(z0m, z0c, 2, np.zeros((2, 2)), S2)
    np.testing.assert_allclose(z, np.sqrt(0.72) * 1.5)


def test_q_sample_derived_value():
    z = fw.q_sample(np.array(1.0), np.array(0.5), 2, np.array(1.0), S2)
    assert z == pytest.approx(1.8019425, abs=1e-6)


def test_q_sample_masks_non_target_cells():
    mask = np.array([[True, False], [False, True]])
    z = fw.q_sample(np.ones((2, 2)), np.ones((2, 2)), 1, np.ones((2, 2)), S2, mask)
    assert z[0, 1] == 0.0 and z[1, 0] == 0.0
    assert z[0, 0] != 0.0


def test_q_sample_shape_mismatch_raises():
    with pytest.raises(ValueError):
        fw.q_sample(np.ones((2, 3)), np.ones((3, 2)), 1, np.ones((2, 3)), S2)


def test_q_sample_step_out_of_range():
    with pytest.raises(IndexError):
        fw.q_sample(np.ones(2), np.ones(2), 3, np.ones(2), S2)
    with pytest.raises(IndexError):
        fw.q_sample(np.ones(2), np.ones(2), 0, np.ones(2), S2)
    for t in (0, 3):
        with pytest.raises(IndexError):
            fw.posterior_mean_z0(np.ones(2), np.ones(2), np.ones(2), t, S2)


def test_q_step_sample_cases():
    z = fw.q_step_sample(np.array(1.0), np.array(0.5), 2, np.array(0.0), S2)
    assert z == pytest.approx(1.3416408, abs=1e-6)
    # unconditional reduction
    zp = np.array([0.3, -0.7])
    eps = np.array([0.1, 0.2])
    z = fw.q_step_sample(zp, np.zeros(2), 2, eps, S2)
    np.testing.assert_allclose(z, np.sqrt(0.8) * zp + np.sqrt(0.2) * eps)


def test_posterior_mean_z0_zero_inputs():
    out = fw.posterior_mean_z0(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), 2, S2)
    np.testing.assert_array_equal(out, 0.0)


def test_posterior_mean_z0_first_step_exact():
    rng = np.random.default_rng(1)
    z_t = rng.standard_normal((5, 4)) * 100
    z0m = rng.standard_normal((5, 4))
    z0c = rng.standard_normal((5, 4))
    out = fw.posterior_mean_z0(z_t, z0m, z0c, 1, S2)
    np.testing.assert_allclose(out, z0m + z0c, atol=1e-12)


def test_posterior_mean_z0_matches_conditioning_oracle():
    sched = build_linear_schedule(6, 0.05, 0.3)
    for t in range(2, 7):
        beta = sched.beta[t - 1]
        astep = sched.alpha_step[t - 1]
        acum_prev = sched.alpha_cum[t - 1]
        z0m, z0c, z_t = 1.7, -0.6, 0.9
        mean, var = orc.gaussian_condition(
            prior_mean=np.sqrt(acum_prev) * (z0m + z0c),
            prior_var=1.0 - acum_prev,
            lik_coef=np.sqrt(astep),
            lik_offset=np.sqrt(astep) * z0c,
            lik_var=beta,
            obs=z_t,
        )
        got = fw.posterior_mean_z0(np.array(z_t), np.array(z0m), np.array(z0c), t, sched)
        assert float(got) == pytest.approx(mean, abs=1e-12)
        assert var == pytest.approx(sched.beta_tilde[t - 1], abs=1e-14)


def test_posterior_mean_eps_trivial_and_derived():
    out = fw.posterior_mean_eps(np.array(2.0), np.array(0.0), np.array(0.0), 2, S2)
    assert float(out) == pytest.approx(2.0 / np.sqrt(0.8))
    out = fw.posterior_mean_eps(np.array(1.0), np.array(0.0), np.array(1.0), 2, S2)
    assert float(out) == pytest.approx((1 - 0.2 / np.sqrt(0.28)) / np.sqrt(0.8), abs=1e-7)


def test_substitution_identity_random_draws():
    rng = np.random.default_rng(7)
    for T in (1, 2, 5, 50):
        sched = build_linear_schedule(T, 0.01, 0.4)
        for t in range(1, T + 1):
            z0m = rng.uniform(-10, 10, 200)
            z0c = rng.uniform(-10, 10, 200)
            eps = rng.uniform(-10, 10, 200)
            z_t = fw.q_sample(z0m, z0c, t, eps, sched)
            a = fw.posterior_mean_eps(z_t, z0c, eps, t, sched)
            b = fw.posterior_mean_z0(z_t, z0m, z0c, t, sched)
            np.testing.assert_allclose(a, b, atol=1e-10)


def test_marginal_moments_match_within_four_se():
    rng = np.random.default_rng(3)
    n = 100_000
    sched = build_linear_schedule(5, 0.05, 0.3)
    z0m, z0c, t = 0.8, -0.3, 4
    eps = rng.standard_normal(n)
    z = fw.q_sample(np.full(n, z0m), np.full(n, z0c), t, eps, sched)
    acum = sched.alpha_cum[t]
    mean_expect = np.sqrt(acum) * (z0m + z0c)
    var_expect = 1 - acum
    se_mean = np.sqrt(var_expect / n)
    se_var = var_expect * np.sqrt(2 / (n - 1))
    assert abs(z.mean() - mean_expect) < 4 * se_mean
    assert abs(z.var() - var_expect) < 4 * se_var


def test_unconditional_reduction_matches_plain_reference():
    rng = np.random.default_rng(11)
    sched = build_linear_schedule(5, 0.05, 0.3)
    zeros = np.zeros(16)
    for t in range(1, 6):
        x0 = rng.standard_normal(16)
        eps = rng.standard_normal(16)
        z_t = fw.q_sample(x0, zeros, t, eps, sched)
        np.testing.assert_allclose(z_t, orc.ddpm_q_sample(x0, t, eps, sched), atol=1e-14)
        np.testing.assert_allclose(
            fw.posterior_mean_z0(z_t, x0, zeros, t, sched),
            orc.ddpm_posterior_mean_z0(z_t, x0, t, sched), atol=1e-13)
        np.testing.assert_allclose(
            fw.posterior_mean_eps(z_t, zeros, eps, t, sched),
            orc.ddpm_posterior_mean_eps(z_t, eps, t, sched), atol=1e-13)


def test_vectorized_step_indices():
    rng = np.random.default_rng(5)
    sched = build_linear_schedule(5, 0.05, 0.3)
    z0m = rng.standard_normal((3, 4, 2))
    z0c = rng.standard_normal((3, 4, 2))
    eps = rng.standard_normal((3, 4, 2))
    t = np.array([1, 3, 5])
    batched = fw.q_sample(z0m, z0c, t, eps, sched)
    for i, ti in enumerate(t):
        np.testing.assert_array_equal(
            batched[i], fw.q_sample(z0m[i], z0c[i], int(ti), eps[i], sched))


def test_gaussian_kl_helpers():
    mu1 = np.array([1.0, 2.0])
    mu2 = np.array([0.5, 2.5])
    np.testing.assert_allclose(
        fw.gaussian_kl_same_var(mu1, mu2, 0.3), (mu1 - mu2) ** 2 / 0.6)
    # prior-matching term from the two-step schedule with unit mean
    kl = fw.gaussian_kl_to_std_normal(np.sqrt(0.72), 0.28)
    assert float(kl) == pytest.approx(0.5 * (0.28 + 0.72 - 1 - np.log(0.28)), abs=1e-12)
    assert float(kl) == pytest.approx(0.6365, abs=1e-3)


def test_elbo_oracle_predictor_collapses_kl():
    rng = np.random.default_rng(9)
    sched = build_linear_schedule(4, 0.05, 0.3)
    z0m = rng.standard_normal((6, 3))
    z0c = rng.standard_normal((6, 3))
    predictor = orc.affine_oracle_predictor(z0m, z0c, sched)
    diag = fw.elbo_diagnostics(z0m, z0c, predictor, sched, mc_draws=3, rng=rng)
    assert diag.step_kl.shape == (3,)
    assert np.max(diag.step_kl) < 1e-20
    assert np.isfinite(diag.prior_kl) and np.isfinite(diag.recon_loglik)


def test_elbo_nonzero_for_wrong_predictor():
    rng = np.random.default_rng(10)
    sched = build_linear_schedule(4, 0.05, 0.3)
    z0m = rng.standard_normal((6, 3))
    z0c = rng.standard_normal((6, 3))

    def bad(z, cond, t):
        return np.zeros_like(z)

    diag = fw.elbo_diagnostics(z0m, z0c, bad, sched, mc_draws=3, rng=rng)
    assert np.all(diag.step_kl > 0)


def test_elbo_requires_draws_and_mask():
    with pytest.raises(ValueError):
        fw.elbo_diagnostics(np.ones((2, 2)), np.ones((2, 2)),
                            lambda z, c, t: z, S2, mc_draws=0,
                            rng=np.random.default_rng(0))
    with pytest.raises(DataError):
        fw.elbo_diagnostics(np.ones((2, 2)), np.ones((2, 2)),
                            lambda z, c, t: z, S2, mc_draws=1,
                            rng=np.random.default_rng(0),
                            target_mask=np.zeros((2, 2), dtype=bool))
