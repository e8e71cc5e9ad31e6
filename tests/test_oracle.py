import numpy as np
import pytest

from residiff import oracle as orc
from residiff.schedule import build_linear_schedule

S2 = build_linear_schedule(2, 0.1, 0.2)


class TestCompoundMarginal:
    def test_first_step_agreement(self):
        st = orc.compound_marginal_coeffs(S2, 1)
        assert st.coef_residual == pytest.approx(np.sqrt(0.9))
        assert st.coef_condition == pytest.approx(np.sqrt(0.9))
        assert st.noise_var == pytest.approx(0.1)

    def test_two_step_condition_gap(self):
        st = orc.compound_marginal_coeffs(S2, 2)
        assert st.coef_condition == pytest.approx(np.sqrt(0.72) + np.sqrt(0.8), abs=1e-12)
        assert st.coef_condition == pytest.approx(1.7430, abs=1e-4)
        # residual coefficient and variance still match the closed form
        assert st.coef_residual == pytest.approx(np.sqrt(0.72), abs=1e-14)
        assert st.noise_var == pytest.approx(0.28, abs=1e-14)

    @pytest.mark.parametrize("T", [1, 2, 5, 50])
    def test_variance_matches_closed_form_all_steps(self, T):
        sched = build_linear_schedule(T, 0.01, 0.4)
        for t in range(1, T + 1):
            st = orc.compound_marginal_coeffs(sched, t)
            assert st.noise_var == pytest.approx(1 - sched.alpha_cum[t], abs=1e-12)
            assert st.coef_residual == pytest.approx(np.sqrt(sched.alpha_cum[t]), abs=1e-12)
            if t >= 2:
                assert st.coef_condition > np.sqrt(sched.alpha_cum[t])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            orc.compound_marginal_coeffs(S2, 3)


class TestGaussianCondition:
    def test_unconditional_reduction_is_classic_posterior(self):
        sched = build_linear_schedule(5, 0.05, 0.3)
        t = 4
        beta = sched.beta[t - 1]
        astep = sched.alpha_step[t - 1]
        acum_prev = sched.alpha_cum[t - 1]
        acum = sched.alpha_cum[t]
        x0, x_t = 0.7, -0.2
        mean, var = orc.gaussian_condition(
            prior_mean=np.sqrt(acum_prev) * x0, prior_var=1 - acum_prev,
            lik_coef=np.sqrt(astep), lik_offset=0.0, lik_var=beta, obs=x_t)
        expect = (np.sqrt(astep) * (1 - acum_prev) / (1 - acum) * x_t
                  + np.sqrt(acum_prev) * beta / (1 - acum) * x0)
        assert mean == pytest.approx(expect, abs=1e-14)
        assert var == pytest.approx(sched.beta_tilde[t - 1], abs=1e-14)

    def test_mean_coefficients_match_production_formula(self):
        # extract the three linear coefficients by unit probes
        from residiff import forward as fw

        sched = build_linear_schedule(8, 0.02, 0.35)
        for t in range(2, 9):
            beta = sched.beta[t - 1]
            astep = sched.alpha_step[t - 1]
            acum_prev = sched.alpha_cum[t - 1]
            k = np.sqrt(astep)

            def ref(z_t, z0m, z0c):
                mean, _ = orc.gaussian_condition(
                    prior_mean=np.sqrt(acum_prev) * (z0m + z0c),
                    prior_var=1 - acum_prev, lik_coef=k,
                    lik_offset=k * z0c, lik_var=beta, obs=z_t)
                return mean

            for probe in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0.3, -1.2, 2.0)):
                got = float(fw.posterior_mean_z0(
                    np.array(float(probe[0])), np.array(float(probe[1])),
                    np.array(float(probe[2])), t, sched))
                assert got == pytest.approx(ref(*probe), abs=1e-12)

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            orc.gaussian_condition(0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            orc.gaussian_condition(0.0, 1.0, 1.0, 0.0, -1.0, 0.0)


class TestPushforward:
    def test_ancestral_single_step_terminal(self):
        sched = build_linear_schedule(1, 0.2, 0.2)
        states = orc.sampler_pushforward_coeffs(sched, "ancestral")
        final = states[-1]
        assert final.coef_residual == pytest.approx(1.0, abs=1e-14)
        assert final.coef_condition == pytest.approx(1.0, abs=1e-14)
        assert final.noise_var == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("T", [2, 5, 50])
    def test_accelerated_deterministic_terminal(self, T):
        sched = build_linear_schedule(T, 1e-4, 0.2)
        states = orc.sampler_pushforward_coeffs(sched, "accelerated", eta=0.0)
        final = states[-1]
        assert final.coef_residual == pytest.approx(1.0, abs=1e-12)
        assert final.coef_condition == pytest.approx(1.0, abs=1e-12)
        assert final.noise_var == pytest.approx(0.0, abs=1e-12)

    def test_accelerated_posterior_noise_preserves_variance(self):
        sched = build_linear_schedule(10, 0.01, 0.3)
        init = orc.AffineGaussianState(
            np.sqrt(sched.alpha_cum[10]), np.sqrt(sched.alpha_cum[10]),
            1 - sched.alpha_cum[10])
        steps = list(range(10, 0, -1))
        states = orc.sampler_pushforward_coeffs(
            sched, "accelerated", steps=steps, eta=1.0, init=init)
        for i, t in enumerate(steps):
            prev = t - 1
            ref = states[i + 1]
            assert ref.noise_var == pytest.approx(1 - sched.alpha_cum[prev], abs=1e-12)
            assert ref.coef_residual == pytest.approx(
                np.sqrt(sched.alpha_cum[prev]), abs=1e-12)

    def test_ancestral_intermediate_condition_drift(self):
        # away from the endpoints the condition coefficient differs from the
        # residual coefficient: the correction term drags it down
        states = orc.sampler_pushforward_coeffs(S2, "ancestral")
        mid = states[1]
        assert mid.coef_residual != pytest.approx(mid.coef_condition)
        assert mid.coef_residual == pytest.approx(0.2 * np.sqrt(0.9) / 0.28)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            orc.sampler_pushforward_coeffs(S2, "bogus")


def test_affine_oracle_predictor_recovers_noise():
    sched = build_linear_schedule(5, 0.05, 0.3)
    rng = np.random.default_rng(0)
    z0m = rng.standard_normal(8)
    z0c = rng.standard_normal(8)
    eps = rng.standard_normal(8)
    pred = orc.affine_oracle_predictor(z0m, z0c, sched)
    from residiff.forward import q_sample

    for t in (1, 3, 5):
        z_t = q_sample(z0m, z0c, t, eps, sched)
        np.testing.assert_allclose(pred(z_t, None, t), eps, atol=1e-12)


def test_accel_substep_sigma_consistency():
    sched = build_linear_schedule(10, 0.01, 0.3)
    for t in range(2, 11):
        assert orc.accel_substep_sigma(sched, t, t - 1) == pytest.approx(
            np.sqrt(sched.beta_tilde[t - 1]), abs=1e-14)
    assert orc.accel_substep_sigma(sched, 5, 0) == 0.0


def test_ancestral_condition_drift_on_the_default_schedule():
    # the chain leaves the marginal by 8.91 near t = 22 on T 50, beta 1e-4 -> 0.2
    drift = orc.ancestral_condition_drift(build_linear_schedule(50, 1e-4, 0.2))
    assert round(drift, 2) == 8.91
    # one step: the single-step transition is the marginal
    assert orc.ancestral_condition_drift(build_linear_schedule(1, 0.1, 0.1)) < 1e-12
