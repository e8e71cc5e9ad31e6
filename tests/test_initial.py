from pathlib import Path

import numpy as np
import pytest

from residiff import autodiff as ad
from residiff import data as dt
from residiff import initial as ini
from residiff import oracle as orc
from residiff.cli import main
from residiff.denoiser import normalized_adjacency
from residiff.errors import ConfigError, DataError
from residiff.trainer import TrainConfig

FIXTURE = Path(__file__).parent / "fixtures" / "trainable_checkpoint"


def grid_from(values, observed=None, eval_mask=None):
    values = np.asarray(values, dtype=float)
    if observed is None:
        observed = np.isfinite(values)
    values = np.where(observed, values, 0.0)
    if eval_mask is None:
        eval_mask = np.zeros_like(observed)
    return dt.MaskedGrid(
        values=values,
        observed_mask=observed,
        eval_mask=eval_mask,
        timestamps=np.arange(values.shape[0], dtype=float),
    )


LINE3 = dt.Graph(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))


def fill(g, strategy, params=None):
    """Rough fill of one grid, as a batch of one window."""
    return ini.impute_initial(g.values[None], g.visible_mask[None], LINE3, strategy,
                              params or {})[0]


def test_fully_observed_grid_is_identity():
    g = grid_from([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    for strategy in ("node_mean", "interp_graph"):
        out = fill(g, strategy)
        np.testing.assert_array_equal(out, g.values)


def test_node_mean_column_fill():
    g = grid_from([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [3.0, 0.0, 0.0]])
    out = fill(g, "node_mean")
    assert out[1, 0] == pytest.approx(2.0)


def test_node_mean_global_fallback_for_empty_node():
    g = grid_from([[1.0, np.nan, 5.0], [3.0, np.nan, 7.0]])
    out = fill(g, "node_mean")
    np.testing.assert_allclose(out[:, 1], (1 + 3 + 5 + 7) / 4.0)


def test_all_missing_raises():
    g = grid_from(np.full((2, 3), np.nan))
    with pytest.raises(DataError):
        fill(g, "node_mean")


def test_interp_graph_temporal_interpolation():
    g = grid_from([[0.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [4.0, 1.0, 1.0]])
    out = fill(g, "interp_graph")
    assert out[1, 0] == pytest.approx(2.0)


def test_interp_graph_fills_missing_node_from_neighbors():
    # middle node fully missing on a 3-node line graph: its neighbors carry
    # equal weight, so the fill is their average
    vals = np.array([[2.0, np.nan, 4.0], [6.0, np.nan, 10.0]])
    g = grid_from(vals)
    out = fill(g, "interp_graph")
    np.testing.assert_allclose(out[:, 1], [(2 + 4) / 2, (6 + 10) / 2])


def test_observed_cells_identical_for_every_strategy():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((30, 3))
    observed = rng.random((30, 3)) < 0.7
    g = grid_from(np.where(observed, vals, np.nan), observed)
    fills = [("node_mean", {}), ("interp_graph", {}),
             ("trainable", ini.init_trainable_params(4, rng))]
    for strategy, params in fills:
        out = fill(g, strategy, params)
        np.testing.assert_array_equal(out[observed], g.values[observed])
        assert np.all(np.isfinite(out))


def test_batched_fill_matches_window_by_window():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((3, 8, 3))
    visible = rng.random((3, 8, 3)) < 0.6
    visible[:, 0, :] = True
    fills = [("node_mean", {}), ("interp_graph", {}),
             ("trainable", ini.init_trainable_params(4, rng))]
    for strategy, params in fills:
        batched = ini.impute_initial(values, visible, LINE3, strategy, params)
        for b in range(3):
            one = ini.impute_initial(values[b : b + 1], visible[b : b + 1], LINE3,
                                     strategy, params)
            np.testing.assert_allclose(batched[b], one[0], rtol=0, atol=1e-12)


def test_tensor_params_make_the_fill_differentiable():
    rng = np.random.default_rng(5)
    params = ini.init_trainable_params(4, rng)
    values = rng.standard_normal((2, 6, 3))
    visible = rng.random((2, 6, 3)) < 0.6
    pt = ad.leaves(params)
    out = ini.impute_initial(values, visible, LINE3, "trainable", pt)
    assert isinstance(out, ad.Tensor)
    np.testing.assert_array_equal(
        out.value, ini.impute_initial(values, visible, LINE3, "trainable", params))


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError):
        TrainConfig(strategy="kriging")
    with pytest.raises(ConfigError):
        fill(grid_from([[1.0, 2.0, 3.0]]), "kriging")


class TestResidualAndCondition:
    def test_perfect_initial_zero_residual(self):
        x = np.ones((2, 2))
        mask = np.ones((2, 2), dtype=bool)
        z0m, z0c = ini.residual_and_condition(x, x, mask)
        np.testing.assert_array_equal(z0m, 0.0)
        np.testing.assert_array_equal(z0c, 1.0)

    def test_definition_single_cell(self):
        mask = np.array([[True]])
        z0m, z0c = ini.residual_and_condition(np.array([[5.0]]), np.array([[3.0]]), mask)
        assert z0m[0, 0] == 2.0
        assert z0c[0, 0] == 5.0

    def test_zero_outside_targets(self):
        mask = np.array([[True, False]])
        z0m, z0c = ini.residual_and_condition(
            np.array([[5.0, 7.0]]), np.array([[3.0, 1.0]]), mask)
        assert z0m[0, 1] == 0.0 and z0c[0, 1] == 0.0

    def test_sign_recovery_identity(self):
        # the sampler's combination recovers the truth when the residual is
        # recovered exactly, under both sign conventions
        rng = np.random.default_rng(1)
        x_init = rng.standard_normal((3, 2))
        x = rng.standard_normal((3, 2))
        mask = np.ones((3, 2), dtype=bool)
        for sign in (1.0, -1.0):
            z0m, _ = ini.residual_and_condition(x_init, x, mask, sign=sign)
            recovered = x_init - sign * z0m
            np.testing.assert_allclose(recovered, x, atol=1e-14)

    def test_no_residual_targets_the_data(self):
        mask = np.array([[True, False]])
        z0m, z0c = ini.residual_and_condition(
            np.array([[5.0, 7.0]]), np.array([[3.0, 1.0]]), mask, no_residual=True)
        np.testing.assert_array_equal(z0m, [[-3.0, 0.0]])
        np.testing.assert_array_equal(z0c, [[5.0, 0.0]])
        z0m, _ = ini.residual_and_condition(
            np.array([[5.0]]), np.array([[3.0]]), mask[:, :1], sign=-1.0, no_residual=True)
        assert z0m[0, 0] == 3.0


class TestInitLoss:
    def test_zero_at_perfect_fit(self):
        x = np.ones((2, 2))
        assert float(ini.init_loss(x, x, np.ones((2, 2), bool))) == 0.0

    def test_symmetric_pair(self):
        x_init = np.array([[2.0, -2.0]])
        x = np.zeros((1, 2))
        assert float(ini.init_loss(x_init, x, np.ones((1, 2), bool))) == 2.0
        # the norm is symmetric in its arguments
        assert float(ini.init_loss(x, x_init, np.ones((1, 2), bool))) == 2.0

    def test_mean_of_three(self):
        x_init = np.array([[1.0, 2.0, 3.0]])
        x = np.zeros((1, 3))
        assert float(ini.init_loss(x_init, x, np.ones((1, 3), bool))) == 2.0

    def test_l2_option_and_errors(self):
        x_init = np.array([[2.0]])
        x = np.zeros((1, 1))
        assert float(ini.init_loss(x_init, x, np.ones((1, 1), bool), norm="l2")) == 4.0
        with pytest.raises(DataError):
            ini.init_loss(x_init, x, np.zeros((1, 1), bool))
        with pytest.raises(ConfigError):
            ini.init_loss(x_init, x, np.ones((1, 1), bool), norm="l3")


def test_trainable_fill_is_differentiable_and_mergeable():
    rng = np.random.default_rng(2)
    params = ini.init_trainable_params(4, rng)
    pt = ad.leaves(params)
    values = rng.standard_normal((2, 6, 3))
    visible = rng.random((2, 6, 3)) < 0.6
    mix = np.eye(3)
    out = ini.trainable_fill(pt, values, visible, mix)
    assert isinstance(out, ad.Tensor)
    loss = ini.init_loss(out, values, ~visible)
    loss.backward()
    moved = [k for k in pt if pt[k].grad is not None and np.any(pt[k].grad != 0)]
    assert moved  # gradient reaches the recurrent parameters
    np.testing.assert_array_equal(np.asarray(out.value)[visible], values[visible])


def fill_case(b, length, n, hidden, seed=0):
    """Random parameters and windows whose first node is always visible and
    whose last node is always hidden."""
    rng = np.random.default_rng(seed)
    params = ini.init_trainable_params(hidden, rng)
    params = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in params.items()}
    values = rng.standard_normal((b, length, n))
    visible = rng.random((b, length, n)) < 0.6
    visible[..., 0] = True
    visible[..., -1] = False
    # a directed graph: the hop matrix is not symmetric, so its transpose matters
    mix = normalized_adjacency((rng.random((n, n)) < 0.5).astype(float))
    return params, values, visible, mix


FILL_CASES = [(1, 6, 4, 1), (3, 6, 4, 1), (1, 7, 5, 4), (3, 7, 5, 4),
              (1, 5, 3, 16), (3, 5, 3, 16), (1, 1, 3, 4), (3, 1, 4, 16)]


@pytest.mark.parametrize("b,length,n,hidden", FILL_CASES)
def test_fused_fill_equals_the_unrolled_reference(b, length, n, hidden):
    params, values, visible, mix = fill_case(b, length, n, hidden)
    plain = ini.trainable_fill(params, values, visible, mix)
    ref = orc.trainable_fill_reference(params, values, visible, mix)
    assert isinstance(plain, np.ndarray) and isinstance(ref, np.ndarray)
    assert np.array_equal(plain, ref)

    weights = np.random.default_rng(1).standard_normal(values.shape)
    grads = []
    for fill in (ini.trainable_fill, orc.trainable_fill_reference):
        leaves = ad.leaves(params)
        out = fill(leaves, values, visible, mix)
        assert np.array_equal(out.value, plain)
        ad.sum_(ad.mul(ad.mul(out, out), weights)).backward()
        grads.append(ad.grads(leaves))
    fused, unrolled = grads
    for name, want in unrolled.items():
        assert fused[name].shape == want.shape
        tol = 1e-12 * np.max(np.abs(want))
        np.testing.assert_allclose(fused[name], want, rtol=0, atol=tol, err_msg=name)


def test_fused_fill_passes_finite_differences():
    params, values, visible, mix = fill_case(2, 5, 3, 3, seed=2)
    target = ~visible
    report = orc.finite_diff_check(
        lambda p: ini.init_loss(ini.trainable_fill(p, values, visible, mix),
                                values, target, "l2"), params)
    assert report["max_rel_err"] <= 1e-4


def test_fused_fill_runs_its_backward_once_per_output_gradient(monkeypatch):
    params, values, visible, mix = fill_case(2, 4, 3, 4)
    calls = []
    bptt = ini._bptt
    monkeypatch.setattr(ini, "_bptt", lambda *a: calls.append(1) or bptt(*a))
    leaves = ad.leaves(params)
    out = ini.trainable_fill(leaves, values, visible, mix)
    ini.init_loss(out, values, ~visible).backward()
    assert len(calls) == 2  # one pass per direction serves all 14 parameters
    assert all(leaf.grad is not None for leaf in leaves.values())


def test_checkpoint_from_the_unrolled_fill_imputes_the_same_bytes(tmp_path):
    for expected, flags in (("median.csv", ["--samples", "2"]),
                            ("ddim_median.csv", ["--sampler", "ddim", "--accelerate-steps",
                                                 "3", "--samples", "3"])):
        out = tmp_path / expected
        assert main(["impute", "--data", str(FIXTURE / "data"),
                     "--checkpoint", str(FIXTURE / "checkpoint.bin"), "--out", str(out),
                     *flags, "--seed", "5"]) == 0
        assert (out / "median.csv").read_bytes() == (FIXTURE / expected).read_bytes()
