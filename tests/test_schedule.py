import numpy as np
import pytest

from residiff.errors import ConfigError
from residiff.schedule import build_linear_schedule


def test_table_defaults_endpoints():
    s = build_linear_schedule(50, 1e-4, 0.2)
    assert s.beta[0] == 1e-4
    assert s.beta[-1] == 0.2
    steps = np.diff(s.beta)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-9)


def test_single_step_schedule():
    s = build_linear_schedule(1, 0.3, 0.3)
    np.testing.assert_allclose(s.beta, [0.3])
    assert s.alpha_cum[1] == 1.0 - 0.3
    assert s.beta_tilde[0] == 0.0
    # one step takes beta_min, whatever beta_max is
    assert np.array_equal(build_linear_schedule(1, 0.1, 0.3).beta, [0.1])


def test_two_step_derived_values():
    s = build_linear_schedule(2, 0.1, 0.2)
    np.testing.assert_allclose(s.alpha_step, [0.9, 0.8])
    np.testing.assert_allclose(s.alpha_cum, [1.0, 0.9, 0.72])
    np.testing.assert_allclose(s.beta_tilde[1], 0.1 * 0.2 / 0.28)
    # step 1 reads alpha_cum[0] = 1 and has no posterior variance
    assert s.beta_tilde[0] == 0.0 and s.alpha_cum[0] == 1.0
    assert s.alpha_cum[2] == pytest.approx(0.72)
    for name in ("beta", "alpha_step", "alpha_cum", "beta_tilde"):
        assert getattr(s, name).dtype == np.float64


@pytest.mark.parametrize("T", [1, 2, 5, 50, 100])
def test_identities_randomized(T):
    rng = np.random.default_rng(T)
    lo = rng.uniform(1e-4, 0.05)
    hi = rng.uniform(lo, 0.5)
    s = build_linear_schedule(T, lo, hi)
    # cumulative product identity, relative residual
    rel = np.abs(s.alpha_cum[1:] - s.alpha_cum[:-1] * s.alpha_step) / s.alpha_cum[1:]
    assert rel.max() <= 1e-15
    # cross-multiplied posterior-variance identity
    res = np.abs(s.beta_tilde * (1 - s.alpha_cum[1:]) - (1 - s.alpha_cum[:-1]) * s.beta)
    assert res.max() <= 1e-12
    # strict monotonicity with alpha_cum[0] = 1
    assert s.alpha_cum[0] == 1.0
    assert np.all(np.diff(s.alpha_cum) < 0)
    # beta_tilde below beta from step 2 on
    assert s.beta_tilde[0] == 0.0
    assert np.all(s.beta_tilde[1:] < s.beta[1:])
    assert np.all(s.beta_tilde >= 0.0)


@pytest.mark.parametrize("args", [(0, 0.1, 0.2), (5, 0.0, 0.2), (5, 0.3, 0.2),
                                  (5, 0.1, 1.0), (5, -0.1, 0.2),
                                  (5, float("nan"), 0.2), (5, 0.1, float("nan")),
                                  (5, 0.1, float("inf")), (5, float("-inf"), 0.2),
                                  (5, float("inf"), float("inf")),
                                  # 1 - beta rounds to 1; alpha_cum underflows to 0
                                  (50, 1e-17, 0.2), (1, 1e-17, 0.5), (400, 0.85, 0.9)])
def test_builder_rejects_bad_config(args):
    with pytest.raises(ConfigError):
        build_linear_schedule(*args)


def test_builder_accepts_the_strictest_schedules_it_can_represent():
    # a beta just large enough to move 1 - beta off 1, and a long product
    # that stays above 0
    s = build_linear_schedule(2, 1.2e-16, 0.5)
    assert s.alpha_cum[1] < 1.0 and np.isfinite(s.beta_tilde).all()
    s = build_linear_schedule(400, 0.8, 0.85)
    assert s.alpha_cum[-1] > 0 and np.all(np.diff(s.alpha_cum) < 0)
    assert np.isfinite(s.beta_tilde).all()


def test_schedule_is_immutable():
    s = build_linear_schedule(3, 0.1, 0.2)
    with pytest.raises(Exception):
        s.T = 5
