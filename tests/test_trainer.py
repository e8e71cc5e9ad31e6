import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from residiff import autodiff as ad
from residiff import data as dt
from residiff import denoiser as dn
from residiff import initial as ini
from residiff import trainer as tr
from residiff.errors import ConfigError, DataError, NumericError
from residiff.schedule import build_linear_schedule


@pytest.fixture(scope="module")
def tiny_data():
    grid, graph = dt.synth_generate(1, 6, 96, dt.SynthParams())
    return dt.mask_point(grid, 0.3, seed=1), graph


FAST = dict(t_steps=6, epochs=2, batch_size=4, n_window=24, d=16, head_count=2)


def test_traffic_style_defaults():
    cfg = tr.TrainConfig()
    assert cfg.lam == 0.2
    assert cfg.t_steps == 50
    assert cfg.beta_min == 1e-4 and cfg.beta_max == 0.2
    assert cfg.learning_rate == 1e-3
    assert cfg.target_p == 0.25


def test_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(mask_mode="bogus")
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_dict({"no_such_key": 1})


def test_residual_sign_convention():
    assert tr.TrainConfig().residual_sign == 1.0
    assert tr.TrainConfig(flip_residual_sign=True).residual_sign == -1.0
    assert tr.TrainConfig(no_residual=True).residual_sign == -1.0
    assert tr.TrainConfig(no_residual=True, flip_residual_sign=True).residual_sign == 1.0


def test_pretrain_noop_for_parameterless_strategy(tiny_data):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(strategy="node_mean", **FAST)
    with pytest.warns(UserWarning):
        model, losses = tr.pretrain_initial(grid, graph, cfg, np.random.default_rng(0))
    assert not model.trainable and losses == []


def test_pretrain_skip_returns_initialization(tiny_data):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(strategy="trainable", init_hidden=4, skip_pretrain=True, **FAST)
    rng = np.random.default_rng(3)
    model, losses = tr.pretrain_initial(grid, graph, cfg, rng)
    ref = ini.init_trainable_params(4, np.random.default_rng(3))
    assert losses == []
    for k in ref:
        np.testing.assert_array_equal(model.params[k], ref[k])


def test_pretrain_reduces_loss_three_seed_median():
    finals, firsts = [], []
    for seed in range(3):
        grid, graph = dt.synth_generate(seed, 10, 240, dt.SynthParams())
        grid = dt.mask_point(grid, 0.3, seed=seed)
        gn, _ = dt.normalize(grid)
        cfg = tr.TrainConfig(strategy="trainable", init_hidden=8,
                             pretrain_epochs=8, t_steps=4, epochs=1,
                             batch_size=4, n_window=24, seed=seed)
        _, losses = tr.pretrain_initial(gn, graph, cfg, np.random.default_rng(seed))
        firsts.append(losses[0])
        finals.append(min(losses))
    assert np.median(finals) < np.median(firsts)


def test_one_adam_step_decreases_loss_on_fixed_batch():
    # the optimizer and gradients must agree well enough that a small step
    # on one batch reduces that batch's loss (checked over three seeds)
    from residiff.forward import q_sample

    drops = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        cfg = dn.DenoiserConfig(n_window=6, n_nodes=4, n_steps=5, d=8, head_count=2)
        params = dn.init_params(cfg, rng)
        adj = rng.random((4, 4))
        adj = (adj + adj.T) / 2
        np.fill_diagonal(adj, 0)
        sched = build_linear_schedule(5, 0.05, 0.3)
        mask = rng.random((3, 6, 4)) < 0.5
        mask[0, 0, 0] = True
        maskf = mask.astype(float)
        z0m = rng.standard_normal((3, 6, 4)) * maskf
        z0c = rng.standard_normal((3, 6, 4)) * maskf
        eps = rng.standard_normal((3, 6, 4))
        t = rng.integers(1, 6, size=3)
        z_t = q_sample(z0m, z0c, t, eps, sched, mask)
        a_hat = dn.normalized_adjacency(adj)

        def loss_fn(p):
            return dn.masked_mse(dn.forward(p, cfg, z_t, z0c, t, a_hat), eps, mask)

        leaves = ad.leaves(params)
        before = loss_fn(leaves)
        before.backward()
        opt = tr.Adam(params, lr=1e-3)
        opt.step(params, ad.grads(leaves))
        after = float(loss_fn(params))
        drops.append(float(before.value) - after)
    assert np.median(drops) > 0


def test_train_joint_runs_and_loss_decomposition(tiny_data):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(seed=0, lam=0.3, **FAST)
    result = tr.train_joint(grid, graph, cfg)
    assert len(result.log) > 0
    for step, ls, li, lj in result.log:
        assert lj == ls + 0.3 * li  # exact float identity
    ck = result.checkpoint
    assert ck.sched.T == 6
    assert ck.denoiser_config.n_nodes == 6


def test_lambda_zero_frozen_initial_unchanged(tiny_data):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(strategy="trainable", init_hidden=4, lam=0.0,
                         freeze_initial=True, skip_pretrain=True, seed=5, **FAST)
    result = tr.train_joint(grid, graph, cfg)
    ref = ini.init_trainable_params(4, np.random.default_rng(5))
    for k in ref:
        np.testing.assert_array_equal(result.checkpoint.initial.params[k], ref[k])


def test_joint_training_moves_initial_params_when_not_frozen(tiny_data):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(strategy="trainable", init_hidden=4,
                         skip_pretrain=True, seed=5, **FAST)
    result = tr.train_joint(grid, graph, cfg)
    ref = ini.init_trainable_params(4, np.random.default_rng(5))
    moved = any(
        not np.array_equal(result.checkpoint.initial.params[k], ref[k]) for k in ref
    )
    assert moved


def test_training_deterministic_bit_identical(tiny_data, tmp_path):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(seed=9, **FAST)
    a = tr.train_joint(grid, graph, cfg)
    b = tr.train_joint(grid, graph, cfg)
    tr.save_checkpoint(a.checkpoint, tmp_path / "a.bin")
    tr.save_checkpoint(b.checkpoint, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert a.log == b.log


@pytest.mark.parametrize("steps_per_day,n_window", [(12, 24), (24, 12)])
def test_window_phase_comes_from_the_window_not_the_grid(tmp_path, steps_per_day,
                                                         n_window):
    # a synthetic grid in memory and the same grid read back from CSV train
    # to the same bytes, whatever day length the grid was generated with
    grid, graph = dt.synth_generate(1, 6, 96, dt.SynthParams(steps_per_day=steps_per_day))
    grid = dt.mask_point(grid, 0.3, seed=1)
    dt.save_values_csv(tmp_path / "values.csv", grid.values, grid.timestamps,
                       grid.node_ids, grid.observed_mask)
    dt.save_mask_csv(tmp_path / "eval_mask.csv", grid.eval_mask, grid.timestamps,
                     grid.node_ids)
    dt.save_adjacency_csv(tmp_path / "adjacency.csv", graph, grid.node_ids)
    loaded, graph2 = dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv",
                                 eval_mask_path=tmp_path / "eval_mask.csv")
    cfg = tr.TrainConfig(seed=4, **{**FAST, "n_window": n_window})
    for name, (g, gr) in {"mem": (grid, graph), "csv": (loaded, graph2)}.items():
        tr.save_checkpoint(tr.train_joint(g, gr, cfg).checkpoint, tmp_path / f"{name}.bin")
    assert (tmp_path / "mem.bin").read_bytes() == (tmp_path / "csv.bin").read_bytes()


def test_in_sample_mode_uses_annotated_targets(tiny_data):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(mask_mode="in_sample", seed=2, **FAST)
    result = tr.train_joint(grid, graph, cfg)
    assert len(result.log) > 0


@pytest.mark.parametrize("flag", ["no_cond_forward", "no_residual",
                                  "predict_x0", "flip_residual_sign"])
def test_ablation_flags_train(tiny_data, flag):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(seed=3, **FAST, **{flag: True})
    result = tr.train_joint(grid, graph, cfg)
    assert np.isfinite(result.log[-1][3])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard_raises_numeric_error(tiny_data):
    grid, graph = tiny_data
    cfg = tr.TrainConfig(seed=0, learning_rate=1e200, epochs=4,
                         t_steps=6, batch_size=4, n_window=24, d=16, head_count=2)
    with pytest.raises(NumericError):
        tr.train_joint(grid, graph, cfg)


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tiny_data, tmp_path):
        grid, graph = tiny_data
        cfg = tr.TrainConfig(strategy="trainable", init_hidden=4, seed=1,
                             pretrain_epochs=1, **FAST)
        ck = tr.train_joint(grid, graph, cfg).checkpoint
        path = tmp_path / "ck.bin"
        tr.save_checkpoint(ck, path)
        loaded = tr.load_checkpoint(path)
        tr.save_checkpoint(loaded, tmp_path / "ck2.bin")
        assert path.read_bytes() == (tmp_path / "ck2.bin").read_bytes()
        assert (tmp_path / "ck.bin.json").read_text() == (
            tmp_path / "ck2.bin.json").read_text()
        np.testing.assert_array_equal(loaded.sched.beta, ck.sched.beta)
        np.testing.assert_array_equal(loaded.stats.mean, ck.stats.mean)
        assert list(loaded.denoiser) == list(ck.denoiser)
        for n, v in ck.denoiser.items():
            np.testing.assert_array_equal(loaded.denoiser[n], v)
        for k, v in ck.initial.params.items():
            np.testing.assert_array_equal(loaded.initial.params[k], v)
        assert loaded.config == ck.config

    def test_sidecar_is_json(self, tiny_data, tmp_path):
        grid, graph = tiny_data
        ck = tr.train_joint(grid, graph, tr.TrainConfig(seed=0, **FAST)).checkpoint
        tr.save_checkpoint(ck, tmp_path / "c.bin")
        sidecar = json.loads((tmp_path / "c.bin.json").read_text())
        assert sidecar["config"]["t_steps"] == 6
        assert sidecar["n_nodes"] == 6

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"not a checkpoint")
        from residiff.errors import DataError

        with pytest.raises(DataError):
            tr.load_checkpoint(p)


def _tiny_checkpoint(path, strategy="node_mean"):
    """A 5-node, d = 8, T = 5 checkpoint written to ``path`` (about 7.2 KB
    with the default parameterless fill; a trainable fill has hidden 4)."""
    cfg = tr.TrainConfig(t_steps=5, beta_min=0.05, beta_max=0.3, d=8, head_count=2,
                         n_window=12, strategy=strategy, init_hidden=4)
    rng = np.random.default_rng(0)
    model = ini.InitialModel(strategy, 4)
    if model.trainable:
        model.params = ini.init_trainable_params(4, rng)
    ck = tr.Checkpoint(
        denoiser=dn.init_params(cfg.denoiser_config(5), rng),
        initial=model, stats=dt.NormStats(np.zeros(5), np.ones(5)),
        config=cfg,
    )
    tr.save_checkpoint(ck, path)
    return ck


class TestCorruptCheckpoint:
    def test_truncation_at_every_offset_is_a_data_error(self, tmp_path):
        blob_path = tmp_path / "ck.bin"
        _tiny_checkpoint(blob_path)
        blob = blob_path.read_bytes()
        cut = tmp_path / "cut.bin"
        (tmp_path / "cut.bin.json").write_bytes((tmp_path / "ck.bin.json").read_bytes())
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                tr.load_checkpoint(cut)
        cut.write_bytes(blob + b"\0")
        with pytest.raises(DataError, match="trailing"):
            tr.load_checkpoint(cut)
        cut.write_bytes(blob)
        assert tr.load_checkpoint(cut).denoiser_config.n_nodes == 5

    def test_missing_sidecar_is_a_data_error(self, tmp_path):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        (tmp_path / "ck.bin.json").unlink()
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    def test_missing_declared_array_is_a_data_error(self, tmp_path, monkeypatch):
        arrays = tr._checkpoint_arrays

        def without_head(ck):
            out = arrays(ck)
            del out["denoiser/head"]
            return out

        monkeypatch.setattr(tr, "_checkpoint_arrays", without_head)
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        with pytest.raises(DataError, match="denoiser/head"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("key,array", [("d", "denoiser/conv_kernel"),
                                           ("t_steps", "denoiser/step_table")])
    def test_array_shapes_must_match_the_sidecar(self, tmp_path, key, array):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        sidecar["config"][key] *= 2
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(DataError, match=array):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("strategy,edit", [
        ("trainable", {"init_hidden": 8}),
        ("trainable", {"init_hidden": 2}),
        ("node_mean", {"strategy": "trainable"}),
    ])
    def test_fill_arrays_must_match_the_sidecar(self, tmp_path, strategy, edit):
        # the sidecar's config alone describes the fill model
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path, strategy)
        assert tr.load_checkpoint(path).initial.params.keys() == (
            ini.param_shapes(4).keys() if strategy == "trainable" else set())
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        sidecar["config"].update(edit)
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(DataError, match="initial/fwd_w_x"):
            tr.load_checkpoint(path)

    def test_fill_model_follows_the_config(self, tmp_path):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path, "trainable")
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        assert set(sidecar) == {"config", "n_nodes"}
        sidecar["config"]["strategy"] = "node_mean"
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        loaded = tr.load_checkpoint(path)
        assert (loaded.initial.strategy, loaded.initial.params) == ("node_mean", {})
        assert loaded.config.strategy == "node_mean"

    @pytest.mark.parametrize("key", ["config", "n_nodes",
                                     *(f"config.{f.name}" for f in fields(tr.TrainConfig))])
    def test_sidecar_must_be_complete(self, tmp_path, key):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        owner, _, name = key.rpartition(".")
        del (sidecar[owner] if owner else sidecar)[name]
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    def test_schedule_follows_the_sidecar(self, tmp_path):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        assert tr.load_checkpoint(path).sched.beta[-1] == 0.3
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        sidecar["config"]["beta_max"] = 0.25
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        sched = tr.load_checkpoint(path).sched
        ref = build_linear_schedule(5, 0.05, 0.25)
        for name in ("beta", "alpha_step", "alpha_cum", "beta_tilde"):
            np.testing.assert_array_equal(getattr(sched, name), getattr(ref, name))

    def test_invalid_beta_range_is_a_data_error(self, tmp_path):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        sidecar["config"]["beta_max"] = 1.5
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(DataError, match="beta_min <= beta_max < 1"):
            tr.load_checkpoint(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("array,value", [
        ("norm/std", np.nan), ("norm/std", 0.0), ("norm/std", -1.0),
        ("norm/mean", np.inf), ("denoiser/head", np.inf), ("denoiser/conv_kernel", np.nan),
    ])
    def test_corrupt_values_are_data_errors(self, tmp_path, poke_array, array, value):
        poke_array(array, value)
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        with pytest.raises(DataError, match=array):
            tr.load_checkpoint(path)

    def test_checkpoint_in_the_older_layout_loads(self, tmp_path, monkeypatch):
        # files written before the schedule was derived carry schedule/*
        # arrays and echo the fill model and format in the sidecar
        path = tmp_path / "new.bin"
        ck = _tiny_checkpoint(path, "trainable")
        arrays = tr._checkpoint_arrays

        def with_schedule(c):
            return {**{f"schedule/{n}": getattr(c.sched, n)
                       for n in ("beta", "alpha_step", "alpha_cum", "beta_tilde")},
                    **arrays(c)}

        monkeypatch.setattr(tr, "_checkpoint_arrays", with_schedule)
        old = tmp_path / "old.bin"
        tr.save_checkpoint(ck, old)
        sidecar = json.loads((tmp_path / "old.bin.json").read_text())
        sidecar.update(format_version=1, initial_strategy="trainable", initial_hidden=4)
        (tmp_path / "old.bin.json").write_text(json.dumps(sidecar))
        monkeypatch.undo()
        assert len(old.read_bytes()) > len(path.read_bytes())
        tr.save_checkpoint(tr.load_checkpoint(old), tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
        assert (tmp_path / "again.bin.json").read_text() == (
            tmp_path / "new.bin.json").read_text()

    def test_invalid_sidecar_config_is_a_data_error(self, tmp_path):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        sidecar["config"]["head_count"] = 3  # does not divide d = 8
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(DataError, match="head count"):
            tr.load_checkpoint(path)

    def test_norm_stats_must_have_one_entry_per_node(self, tmp_path):
        path = tmp_path / "ck.bin"
        _tiny_checkpoint(path)
        sidecar = json.loads((tmp_path / "ck.bin.json").read_text())
        sidecar["n_nodes"] = 4
        (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(DataError, match="norm/mean"):
            tr.load_checkpoint(path)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            tr.load_checkpoint(tmp_path / "nope.bin")


def test_denoiser_config_follows_the_train_config():
    cfg = tr.TrainConfig(t_steps=7, n_window=12, d=8, head_count=2, conv_width=5)
    assert cfg.denoiser_config(3) == dn.DenoiserConfig(
        n_window=12, n_nodes=3, n_steps=7, d=8, conv_width=5, head_count=2)
