import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from residiff.cli import main

FAST_TRAIN = ["--t-steps", "6", "--epochs", "2", "--batch-size", "4",
              "--d", "16", "--head-count", "2", "--n-window", "24"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> mask -> train once; several tests read the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert main(["synth", "--out", str(ds), "--n-nodes", "6",
                 "--data-steps", "96", "--seed", "3"]) == 0
    dsm = root / "dsm"
    assert main(["mask", "--data", str(ds), "--out", str(dsm),
                 "--mask-protocol", "point", "--mask-p", "0.3",
                 "--mask-seed", "1"]) == 0
    run = root / "run"
    assert main(["train", "--data", str(dsm), "--out", str(run),
                 "--seed", "0", *FAST_TRAIN]) == 0
    return root, ds, dsm, run


def test_synth_writes_dataset(pipeline):
    _, ds, _, _ = pipeline
    for name in ("values.csv", "observed_mask.csv", "eval_mask.csv",
                 "adjacency.csv", "config.json"):
        assert (ds / name).exists()


def test_mask_adds_eval_cells(pipeline):
    _, ds, dsm, _ = pipeline
    eval_csv = (dsm / "eval_mask.csv").read_text()
    assert "1" in eval_csv.replace("time", "")


def test_train_writes_checkpoint_log_and_config(pipeline):
    _, _, _, run = pipeline
    assert (run / "checkpoint.bin").exists()
    assert (run / "checkpoint.bin.json").exists()
    log = (run / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,loss_simple,loss_init,loss_joint"
    assert len(log) > 1
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["seed"] == 0 and cfg["t_steps"] == 6


def test_impute_and_eval(pipeline, tmp_path):
    root, _, dsm, run = pipeline
    imp = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint",
                 str(run / "checkpoint.bin"), "--out", str(imp),
                 "--samples", "3", "--seed", "5"]) == 0
    summary = json.loads((imp / "summary.json").read_text())
    assert summary["sampler"] == "ancestral"
    assert summary["metrics"] is not None
    for k in ("mae", "mse", "mre"):
        assert np.isfinite(summary["metrics"][k])
    ev = tmp_path / "ev"
    assert main(["eval", "--data", str(dsm), "--imputed", str(imp),
                 "--out", str(ev)]) == 0
    scores = json.loads((ev / "metrics.json").read_text())
    assert all(np.isfinite(scores[k]) for k in ("mae", "mse", "mre"))


def test_impute_accelerated_sampler(pipeline, tmp_path):
    _, _, dsm, run = pipeline
    imp = tmp_path / "impk"
    assert main(["impute", "--data", str(dsm), "--checkpoint",
                 str(run / "checkpoint.bin"), "--out", str(imp),
                 "--samples", "2", "--sampler", "ddim",
                 "--accelerate-steps", "3", "--seed", "5"]) == 0
    summary = json.loads((imp / "summary.json").read_text())
    assert summary["step_count"] == 3


def test_impute_warns_once_on_the_ancestral_chain_of_a_noise_target_checkpoint(
        pipeline, tmp_path, capsys):
    _, _, dsm, run = pipeline
    x0_run, t1_run = tmp_path / "x0", tmp_path / "t1"
    for out, flags in ((x0_run, ["--predict-x0", "true"]), (t1_run, ["--t-steps", "1"])):
        assert main(["train", "--data", str(dsm), "--out", str(out), "--seed", "0",
                     *FAST_TRAIN, *flags]) == 0
    capsys.readouterr()
    # at T = 1 the ancestral and ddim chains are one chain, with no drift
    pairs = [(run, "ancestral", True), (run, "ddim", False), (x0_run, "ancestral", False),
             (t1_run, "ancestral", False)]
    for i, (checkpoint_dir, sampler, warns) in enumerate(pairs):
        assert main(["impute", "--data", str(dsm), "--checkpoint",
                     str(checkpoint_dir / "checkpoint.bin"), "--out", str(tmp_path / f"imp{i}"),
                     "--samples", "2", "--sampler", sampler, "--accelerate-steps", "3",
                     "--seed", "5"]) == 0
        err = capsys.readouterr().err
        if not warns:
            assert err == "", (sampler, err)
            continue
        # FAST_TRAIN's schedule is T 6
        assert err.count("\n") == 1 and err.startswith("warning: "), err
        assert "condition coefficient drifts by up to" in err
        assert "--sampler ddim --accelerate-steps 6 --eta 1" in err


def test_pretrain_subcommand(pipeline, tmp_path):
    _, _, dsm, _ = pipeline
    out = tmp_path / "pre"
    assert main(["pretrain", "--data", str(dsm), "--out", str(out),
                 "--strategy", "trainable", "--init-hidden", "4",
                 "--pretrain-epochs", "2", *FAST_TRAIN]) == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "pretrain_log.csv").exists()


@pytest.mark.parametrize("seed", [0, 1, 3, 6])
def test_verify_subcommand(tmp_path, seed):
    out = tmp_path / "ver"
    assert main(["verify", "--out", str(out), "--seed", str(seed)]) == 0
    report = json.loads((out / "audit.json").read_text())
    assert report["all_pass"] is True
    names = {a["name"] for a in report["audits"]}
    assert "substitution_identity" in names
    assert "compound_marginal_residual_and_variance" in names


def test_sweep_writes_metric_table(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--out", str(out), "--n-nodes", "6",
                 "--data-steps", "96", "--epochs", "1", "--batch-size", "4",
                 "--d", "16", "--head-count", "2", "--samples", "2",
                 "--sweep-t", "4", "--sweep-lam", "0.2", "--sweep-k", "2",
                 "--t-steps", "4", "--accelerate-steps", "2", "--seed", "0"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "parameter,value,mae,mse,mre"
    assert len(rows) == 4  # one sweep point per grid


TINY_SWEEP = ["--n-nodes", "6", "--data-steps", "96", "--epochs", "1", "--batch-size", "4",
              "--d", "16", "--head-count", "2", "--samples", "2", "--t-steps", "4",
              "--accelerate-steps", "2", "--seed", "0",
              "--sweep-t", "4", "--sweep-lam", "0.2", "--sweep-k", "2"]


def test_sweep_with_a_window_shorter_than_the_day(tmp_path):
    # the synthetic day is 24 steps; the temporal table has n_window rows
    out = tmp_path / "sw"
    assert main(["sweep", "--out", str(out), *TINY_SWEEP, "--n-window", "12"]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("flag,value", [("--sweep-t", "5,abc"), ("--sweep-lam", "0.2,"),
                                        ("--sweep-k", "2.5")])
def test_malformed_sweep_list_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "sw"
    assert main(["sweep", "--out", str(out), *TINY_SWEEP, flag, value]) == 2
    _one_line_error(capsys, f"config error: {flag} expects")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--eta", "2", "eta must lie in [0, 1]"),
    ("--samples", "0", "sample count must be >= 1"),
    # a bad value after a good one in any sweep grid
    ("--sweep-k", "2,0", "substep count 0 outside 1..4"),
    ("--sweep-lam", "0.2,-1", "loss balance must be finite and nonnegative"),
    ("--sweep-t", "4,0", "diffusion step count must be >= 1"),
])
def test_sweep_rejects_sampling_options_before_training(tmp_path, capsys, monkeypatch,
                                                        flag, value, message):
    from residiff import cli

    calls = []
    monkeypatch.setattr(cli, "train_joint", lambda *a, **k: calls.append(a))
    out = tmp_path / "sw"
    assert main(["sweep", "--out", str(out), *TINY_SWEEP, flag, value]) == 2
    assert message in _one_line_error(capsys, "config error:")
    assert calls == []
    assert not out.exists()


def test_run_config_sampling_defaults():
    from residiff.cli import RunConfig

    cfg = RunConfig()
    assert cfg.accelerate_steps == 10
    assert cfg.mask_p == 0.25
    assert cfg.mask_block_p == 0.0015
    assert cfg.sampler == "ancestral"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_config_key_exits_2(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--no-such-flag", "1"]) == 2


def test_bad_value_type_exits_2(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--n-nodes", "many"]) == 2


def test_missing_data_exits_3(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 3


def test_failed_run_removes_partial_outputs(tmp_path):
    out = tmp_path / "zzz"
    code = main(["train", "--data", str(tmp_path / "nope"), "--out", str(out)])
    assert code == 3
    assert not out.exists()


FAST_CONFIG = {"t_steps": 6, "epochs": 2, "batch_size": 4, "d": 16, "head_count": 2}


@pytest.mark.parametrize("key,value", [("predict_x0", "no"), ("epochs", "5"),
                                       ("lam", "0.2"), ("t_steps", None)])
def test_config_value_of_the_wrong_type_exits_2_or_3_from_a_sidecar(pipeline, tmp_path,
                                                                     capsys, key, value):
    _, _, dsm, run = pipeline
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({**FAST_CONFIG, "data": str(dsm), key: value}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert repr(key) in _one_line_error(capsys, "config error:")
    assert not out.exists()

    ck = tmp_path / "ck.bin"
    ck.write_bytes((run / "checkpoint.bin").read_bytes())
    sidecar = json.loads((run / "checkpoint.bin.json").read_text())
    sidecar["config"][key] = value
    (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
    imp = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(ck),
                 "--out", str(imp), "--samples", "2"]) == 3
    assert "invalid sidecar config" in _one_line_error(capsys, "data error:")
    assert not imp.exists()


def test_float_config_value_given_as_a_json_integer(pipeline, tmp_path):
    _, _, dsm, _ = pipeline
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({**FAST_CONFIG, "data": str(dsm), "lam": 1}))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    lam = json.loads((run / "checkpoint.bin.json").read_text())["config"]["lam"]
    assert lam == 1.0 and isinstance(lam, float)  # echoed as --lam 1 echoes it
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(run / "checkpoint.bin"),
                 "--out", str(tmp_path / "imp"), "--samples", "2"]) == 0


@pytest.mark.parametrize("flags", [
    ["--beta-min", "0.3", "--beta-max", "0.5"],
    ["--beta-max", "0.5", "--beta-min", "0.3"],
    ["--d", "30", "--head-count", "5"],
    ["--head-count", "5", "--d", "30"],
])
def test_cross_checked_flags_resolve_in_either_order(flags, tmp_path):
    import argparse

    from residiff.cli import resolve_config

    given = {key[2:].replace("-", "_"): json.loads(raw)
             for key, raw in zip(flags[::2], flags[1::2])}
    cfg = resolve_config(argparse.Namespace(config=None), flags)
    assert {name: getattr(cfg, name) for name in given} == given
    # the first value from a config file, the second from a flag
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict([next(iter(given.items()))])))
    cfg = resolve_config(argparse.Namespace(config=str(cfg_path)), flags[2:])
    assert {name: getattr(cfg, name) for name in given} == given


def test_eval_of_an_imputation_with_blank_evaluation_cells_exits_3(pipeline, tmp_path,
                                                                   capsys):
    from residiff import data as dt

    _, _, dsm, _ = pipeline
    values, stamps, ids = dt.load_values_csv(dsm / "values.csv")
    eval_mask = dt.load_values_csv(dsm / "eval_mask.csv")[0] == 1.0
    rows, cols = np.nonzero(eval_mask)
    shown = np.ones_like(eval_mask)
    shown[rows[:2], cols[:2]] = False  # two evaluation cells left blank
    imp = tmp_path / "imp"
    imp.mkdir()
    dt.save_values_csv(imp / "median.csv", values, stamps, ids, shown)
    out = tmp_path / "ev"
    assert main(["eval", "--data", str(dsm), "--imputed", str(imp), "--out", str(out)]) == 3
    message = _one_line_error(capsys, "data error:")
    assert f"2 of {eval_mask.sum()} evaluation cells" in message
    assert not out.exists()


@pytest.mark.parametrize("misaligned", ["swapped_nodes", "shifted_time"])
def test_eval_of_an_imputation_of_other_nodes_or_times_exits_3(pipeline, tmp_path, capsys,
                                                               misaligned):
    # a median.csv of the right shape that does not line up with the dataset
    from residiff import data as dt

    _, _, dsm, _ = pipeline
    values, stamps, ids = dt.load_values_csv(dsm / "values.csv")
    values = np.nan_to_num(values)
    if misaligned == "swapped_nodes":  # first two columns swapped, header included
        order = [1, 0, *range(2, len(ids))]
        values, ids = values[:, order], [ids[i] for i in order]
    else:  # the same length of series, one step later
        values, stamps = np.roll(values, -1, axis=0), stamps + (stamps[1] - stamps[0])
    imp = tmp_path / "imp"
    imp.mkdir()
    dt.save_values_csv(imp / "median.csv", values, stamps, ids)
    out = tmp_path / "ev"
    assert main(["eval", "--data", str(dsm), "--imputed", str(imp), "--out", str(out)]) == 3
    assert "node ids and timestamps" in _one_line_error(capsys, "data error:")
    assert not out.exists()


def test_config_file_with_overrides(pipeline, tmp_path):
    _, _, dsm, _ = pipeline
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_steps": 6, "epochs": 1,
                                    "batch_size": 4, "d": 16,
                                    "head_count": 2, "data": str(dsm)}))
    out = tmp_path / "run2"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--epochs", "2"]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["epochs"] == 2  # flag override wins
    assert echoed["t_steps"] == 6


def test_ablation_flag_list(pipeline, tmp_path):
    _, _, dsm, _ = pipeline
    out = tmp_path / "abl"
    assert main(["train", "--data", str(dsm), "--out", str(out),
                 "--ablation", "no_cond_forward,flip_residual_sign",
                 *FAST_TRAIN]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["no_cond_forward"] is True
    assert cfg["flip_residual_sign"] is True
    assert cfg["no_residual"] is False
    assert main(["train", "--data", str(dsm), "--out", str(tmp_path / "abl2"),
                 "--ablation", "bogus_flag"]) == 2


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


def test_impute_takes_window_length_from_checkpoint(pipeline, tmp_path):
    _, _, dsm, _ = pipeline
    run12 = tmp_path / "run12"
    short = [*FAST_TRAIN[:-2], "--n-window", "12"]
    assert main(["train", "--data", str(dsm), "--out", str(run12), "--seed", "0",
                 *short]) == 0
    ck = str(run12 / "checkpoint.bin")
    outs = []
    for extra in ([], ["--n-window", "12"]):
        out = tmp_path / f"imp{len(extra)}"
        assert main(["impute", "--data", str(dsm), "--checkpoint", ck,
                     "--out", str(out), "--samples", "2", "--seed", "5", *extra]) == 0
        outs.append((out / "median.csv").read_bytes())
    assert outs[0] == outs[1]


def test_impute_node_count_mismatch_exits_3(pipeline, tmp_path, capsys):
    _, _, _, run = pipeline
    ds5 = tmp_path / "ds5"
    assert main(["synth", "--out", str(ds5), "--n-nodes", "5",
                 "--data-steps", "96", "--seed", "3"]) == 0
    capsys.readouterr()
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(ds5), "--checkpoint",
                 str(run / "checkpoint.bin"), "--out", str(out),
                 "--samples", "2"]) == 3
    _one_line_error(capsys, "data error:")
    assert not out.exists()


def test_impute_truncated_checkpoint_exits_3(pipeline, tmp_path, capsys):
    _, _, dsm, run = pipeline
    cut = tmp_path / "cut.bin"
    cut.write_bytes((run / "checkpoint.bin").read_bytes()[:300])
    (tmp_path / "cut.bin.json").write_bytes((run / "checkpoint.bin.json").read_bytes())
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(cut),
                 "--out", str(out), "--samples", "2"]) == 3
    _one_line_error(capsys, "data error:")
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == 2
    _one_line_error(capsys, "config error:")
    assert not out.exists()


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_malformed_config_file_exits_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    out = tmp_path / "x"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    _one_line_error(capsys, "config error:")
    assert not out.exists()


def test_block_masking_keeps_its_own_point_rate(pipeline, tmp_path):
    from residiff import data as dt

    _, ds, _, _ = pipeline
    out = tmp_path / "blk"
    # --mask-p (default 0.25) belongs to the point protocol only
    assert main(["mask", "--data", str(ds), "--out", str(out),
                 "--mask-protocol", "block", "--mask-seed", "4"]) == 0
    grid, _ = dt.load_csv(ds / "values.csv", ds / "adjacency.csv")
    masked, _ = dt.load_csv(out / "values.csv", out / "adjacency.csv",
                            eval_mask_path=out / "eval_mask.csv")
    expect = dt.mask_block(grid, p_block=0.0015, seed=4)
    np.testing.assert_array_equal(masked.eval_mask, expect.eval_mask)
    assert masked.eval_mask.mean() < 0.15


def _short(line):
    return line.rsplit(",", 1)[0] + "\n"


@pytest.mark.parametrize("name,garble", [
    pytest.param("values.csv", lambda line: line.replace(",", ",x", 1), id="bad-number"),
    pytest.param("values.csv", _short, id="short-values-row"),
    pytest.param("eval_mask.csv", _short, id="short-eval-mask-row"),
    pytest.param("eval_mask.csv", lambda line: line.replace(",", ",0.5", 1),
                 id="eval-mask-cell-not-0-or-1"),
    pytest.param("adjacency.csv", lambda line: "x" + line, id="adjacency-row-label"),
])
def test_garbled_csv_exits_3_without_output(pipeline, tmp_path, capsys, name, garble):
    _, ds, _, _ = pipeline
    bad = tmp_path / "bad"
    bad.mkdir()
    for kept in ("values.csv", "adjacency.csv", name):
        (bad / kept).write_bytes((ds / kept).read_bytes())
    lines = (ds / name).read_text().splitlines(keepends=True)
    lines[5] = garble(lines[5])
    (bad / name).write_text("".join(lines))
    out = tmp_path / "o"
    assert main(["mask", "--data", str(bad), "--out", str(out)]) == 3
    _one_line_error(capsys, "data error:")
    assert not out.exists()


def test_oversized_csv_field_exits_3_without_output(pipeline, tmp_path, capsys):
    # one cell past the csv module's 131,072-character field limit
    _, ds, _, _ = pipeline
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "adjacency.csv").write_bytes((ds / "adjacency.csv").read_bytes())
    lines = (ds / "values.csv").read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace(",", "," + "1" * 200_000, 1)
    (bad / "values.csv").write_text("".join(lines))
    out = tmp_path / "o"
    assert main(["mask", "--data", str(bad), "--out", str(out)]) == 3
    message = _one_line_error(capsys, "data error:")
    assert "values.csv" in message and "field limit" in message and "line 4" in message
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--head-count", "0"), ("--head-count", "-1"),
                                        ("--d", "0")])
def test_denoiser_width_below_1_exits_2(pipeline, tmp_path, capsys, flag, value):
    _, _, dsm, _ = pipeline
    out = tmp_path / "run"
    argv = ["train", "--data", str(dsm), "--out", str(out), *FAST_TRAIN, flag, value]
    assert main(argv) == 2
    _one_line_error(capsys, "config error:")
    assert not out.exists()


@pytest.mark.parametrize("key", ["d", "t_steps"])
def test_impute_checkpoint_that_disagrees_with_its_sidecar_exits_3(
        pipeline, tmp_path, capsys, key):
    _, _, dsm, run = pipeline
    ck = tmp_path / "ck.bin"
    ck.write_bytes((run / "checkpoint.bin").read_bytes())
    sidecar = json.loads((run / "checkpoint.bin.json").read_text())
    sidecar["config"][key] *= 2
    (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(ck),
                 "--out", str(out), "--samples", "2"]) == 3
    _one_line_error(capsys, "data error:")
    assert not out.exists()


def test_impute_checkpoint_with_an_invalid_sidecar_config_exits_3(pipeline, tmp_path,
                                                                   capsys):
    _, _, dsm, run = pipeline
    ck = tmp_path / "ck.bin"
    ck.write_bytes((run / "checkpoint.bin").read_bytes())
    sidecar = json.loads((run / "checkpoint.bin.json").read_text())
    sidecar["config"]["head_count"] = 3  # does not divide d = 16
    (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(ck),
                 "--out", str(out), "--samples", "2"]) == 3
    _one_line_error(capsys, "data error:")
    assert not out.exists()


@pytest.mark.parametrize("sampler,flag,value,message", [
    ("ancestral", "--samples", "0", "sample count must be >= 1"),
    ("ddim", "--samples", "0", "sample count must be >= 1"),
    ("gibbs", "--samples", "2", "unknown sampler 'gibbs'"),
])
def test_impute_rejects_sampling_options_before_loading(pipeline, tmp_path, capsys,
                                                        monkeypatch, sampler, flag,
                                                        value, message):
    # one line, even where the ancestral chain's drift warning would follow
    # the checkpoint's load
    from residiff import cli

    _, _, dsm, run = pipeline
    loads = []
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path))
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(run / "checkpoint.bin"),
                 "--out", str(out), "--sampler", sampler, "--accelerate-steps", "3",
                 flag, value]) == 2
    assert message in _one_line_error(capsys, "config error:")
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize("eta", ["2", "-0.5", "nan"])
def test_impute_eta_outside_unit_interval_exits_2(pipeline, tmp_path, capsys, eta):
    _, _, dsm, run = pipeline
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(run / "checkpoint.bin"),
                 "--out", str(out), "--samples", "2", "--sampler", "ddim",
                 "--accelerate-steps", "3", "--eta", eta]) == 2
    assert "eta must lie in [0, 1]" in _one_line_error(capsys, "config error:")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--n-window", "0", "window length"), ("--learning-rate", "-1", "learning rate"),
    ("--learning-rate", "0", "learning rate")])
def test_train_degenerate_window_or_learning_rate_exits_2(pipeline, tmp_path, capsys,
                                                          flag, value, message):
    _, _, dsm, _ = pipeline
    out = tmp_path / "run"
    args = [*FAST_TRAIN, flag, value]  # the later flag wins
    assert main(["train", "--data", str(dsm), "--out", str(out), *args]) == 2
    assert message in _one_line_error(capsys, "config error:")
    assert not out.exists()


def test_in_sample_training_without_eval_cells_exits_3(pipeline, tmp_path, capsys):
    _, ds, _, _ = pipeline  # the unmasked synthetic grid has no eval cells
    out = tmp_path / "run"
    assert main(["train", "--data", str(ds), "--out", str(out), *FAST_TRAIN,
                 "--mask-mode", "in_sample"]) == 3
    assert "eval cells" in _one_line_error(capsys, "data error:")
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["trainable", "node_mean"])
def test_pretrain_is_train_with_no_joint_epochs(pipeline, tmp_path, capsys, strategy):
    _, _, dsm, _ = pipeline
    flags = ["--data", str(dsm), *FAST_TRAIN, "--strategy", strategy, "--init-hidden", "4",
             "--pretrain-epochs", "2", "--seed", "7"]
    pre, train = tmp_path / "pre", tmp_path / "train"
    assert main(["pretrain", "--out", str(pre), *flags]) == 0
    err = capsys.readouterr().err.splitlines()
    if strategy == "trainable":
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith("warning: ") and strategy in err[0], err
    assert main(["train", "--out", str(train), *flags, "--epochs", "0"]) == 0
    ckpt = "checkpoint.bin"
    assert (pre / ckpt).read_bytes() == (train / ckpt).read_bytes()
    assert (pre / f"{ckpt}.json").read_bytes() == (train / f"{ckpt}.json").read_bytes()


def test_pretrain_without_observed_cells_exits_3(pipeline, tmp_path, capsys):
    from residiff import data as dt

    _, _, dsm, _ = pipeline
    values, stamps, ids = dt.load_values_csv(dsm / "values.csv")
    none = np.zeros(values.shape, dtype=bool)
    blank = tmp_path / "blank"
    blank.mkdir()
    dt.save_values_csv(blank / "values.csv", values, stamps, ids, none)
    for name in ("observed_mask.csv", "eval_mask.csv"):
        dt.save_mask_csv(blank / name, none, stamps, ids)
    (blank / "adjacency.csv").write_bytes((dsm / "adjacency.csv").read_bytes())
    out = tmp_path / "pre"
    assert main(["pretrain", "--data", str(blank), "--out", str(out), *FAST_TRAIN,
                 "--strategy", "trainable", "--init-hidden", "4"]) == 3
    assert "no observed cells" in _one_line_error(capsys, "data error:")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("n_window", 0), ("learning_rate", -1.0)])
def test_impute_checkpoint_with_invalid_training_values_exits_3(pipeline, tmp_path,
                                                                capsys, key, value):
    _, _, dsm, run = pipeline
    ck = tmp_path / "ck.bin"
    ck.write_bytes((run / "checkpoint.bin").read_bytes())
    sidecar = json.loads((run / "checkpoint.bin.json").read_text())
    sidecar["config"][key] = value
    (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(ck),
                 "--out", str(out), "--samples", "2"]) == 3
    assert "invalid sidecar config" in _one_line_error(capsys, "data error:")
    assert not out.exists()


def test_unexpected_exception_exits_1_in_one_line(tmp_path, capsys, monkeypatch):
    from residiff import cli

    def boom(cfg, out):
        (out.path / "partial.csv").write_text("x")
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._COMMANDS, "synth", boom)
    out = tmp_path / "x"
    assert main(["synth", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: RuntimeError: boom second line"]
    assert not out.exists()

    def interrupted(cfg, out):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "synth", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["synth", "--out", str(out)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("array,value", [
    ("norm/std", np.nan), ("norm/std", 0.0), ("norm/std", -1.0),
    ("norm/mean", np.inf), ("denoiser/head", np.inf),
])
def test_impute_checkpoint_with_corrupt_values_exits_3(pipeline, tmp_path, capsys,
                                                       poke_array, array, value):
    from residiff import trainer as tr

    _, _, dsm, run = pipeline
    poke_array(array, value)
    tr.save_checkpoint(tr.load_checkpoint(run / "checkpoint.bin"), tmp_path / "ck.bin")
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(tmp_path / "ck.bin"),
                 "--out", str(out), "--samples", "2"]) == 3
    assert array in _one_line_error(capsys, "data error:")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sampler", ["ancestral", "ddim"])
def test_impute_non_finite_chain_exits_4(pipeline, tmp_path, capsys, diverge_at, sampler):
    _, _, dsm, run = pipeline
    diverge_at(1)  # the last step of both chains
    out = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(run / "checkpoint.bin"),
                 "--out", str(out), "--samples", "2", "--sampler", sampler,
                 "--accelerate-steps", "3"]) == 4
    if sampler == "ancestral":
        # the noise-target checkpoint's drift warning comes before the chain runs
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("warning: the ancestral chain"), err
        assert err[1].startswith("numeric failure:"), err
    else:
        _one_line_error(capsys, "numeric failure:")
    assert not out.exists()


_FAULT_PROBE = """
import json, resource
import numpy as np
import residiff
from residiff import cli
from residiff import denoiser as dn

cfg = dn.DenoiserConfig(n_window=24, n_nodes=20, n_steps=50, d=32)
rng = np.random.default_rng(0)
params = dn.init_params(cfg, rng)
z, cond = rng.standard_normal((2, 18, 24, 20))
a_hat = dn.normalized_adjacency(np.ones((20, 20)) - np.eye(20))
tidx = np.tile(np.arange(24), (18, 1))

def second_forward_faults():
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        dn.forward(params, cfg, z, cond, 10, a_hat, tidx)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

default = second_forward_faults()
applied = cli.keep_freed_memory()
print(json.dumps({"default": default, "applied": applied,
                  "kept": second_forward_faults()}))
"""


def test_cli_allocator_policy_ends_page_fault_churn():
    """The allocator policy is process-wide, so it is probed in a child."""
    import residiff

    src = str(Path(residiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    probe = json.loads(done.stdout.splitlines()[-1])
    if not probe["applied"]:
        pytest.skip("no glibc mallopt: the policy is unavailable here")
    # importing residiff (and residiff.cli) leaves glibc's defaults in place
    assert probe["default"] > 1000, probe
    assert probe["kept"] < 200, probe


# Linux carries a process's RSS high-water mark across exec, so a child's
# ru_maxrss starts at the size of the process that spawned it.  The probe
# therefore runs its command in a fork of itself, whose mark starts afresh,
# and that fork prints its own exit code and ru_maxrss.
_PEAK_PROBE = """
import os, resource, sys
if os.fork() == 0:
    from residiff.cli import main
    code = main(sys.argv[1:])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(0)
os.wait()
"""


def _peak_kib(*argv) -> int:
    """Run one CLI command in a child at one BLAS thread; its own peak RSS in KiB."""
    import residiff

    src = str(Path(residiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _PEAK_PROBE, *argv], env=env,
                          check=True, capture_output=True, text=True, timeout=300)
    code, peak_kib = map(int, done.stdout.split()[-2:])
    assert code == 0
    return peak_kib


def _masked_world(tmp_path, n_nodes: int, steps: int) -> Path:
    """Synthesize ``steps`` steps at ``n_nodes`` and hold out 25 % of the cells."""
    ds, dsm = tmp_path / "ds", tmp_path / "dsm"
    assert main(["synth", "--out", str(ds), "--n-nodes", str(n_nodes),
                 "--data-steps", str(steps), "--seed", "3"]) == 0
    assert main(["mask", "--data", str(ds), "--out", str(dsm), "--mask-p", "0.25",
                 "--mask-seed", "1"]) == 0
    return dsm


def _train_peak_kib(tmp_path, n_nodes: int, *flags) -> int:
    """Train on 480 masked steps at ``n_nodes`` in a child at window 24,
    batch 16, d 32, 4 heads, T 10, 1 epoch, and return the child's own peak
    RSS in KiB."""
    dsm = _masked_world(tmp_path, n_nodes, 480)
    return _peak_kib("train", "--data", str(dsm), "--out", str(tmp_path / "run"),
                     "--seed", "0", "--t-steps", "10", "--n-window", "24", "--d", "32",
                     "--head-count", "4", "--batch-size", "16", "--epochs", "1", *flags)


def test_train_peak_rss_at_the_acceptance_shape(tmp_path):
    """A child process trains the trainable fill and the denoiser at 20
    nodes and reports its own peak RSS.  It read 42.9 MiB on a 2-core Xeon
    with numpy 2.4 and OpenBLAS 0.3.31 with each batch taped through the
    denoiser one attention block (here one window) per call, 56.8 MiB in
    the sampler's 5-window calls, 91.1 MiB with the whole batch in one call,
    and 119.7 MiB while the autodiff tape pinned every interior value; the
    bound sits between the first two."""
    peak_kib = _train_peak_kib(tmp_path, 20, "--strategy", "trainable",
                               "--pretrain-epochs", "1")
    assert peak_kib <= 52 * 2**10, f"peak RSS {peak_kib / 2**10:.1f} MiB"


def test_train_peak_rss_at_207_nodes(tmp_path):
    """METR-LA's sensor count.  One window per denoiser call: the child read
    67.4 MiB on the same box with attention's backward recomputing the
    probability blocks it no longer holds, 162.9 MiB with every probability
    kept for the backward, and 1,944 MiB with each batch of 16 windows
    taped through the denoiser in one call."""
    peak_kib = _train_peak_kib(tmp_path, 207)
    assert peak_kib <= 112 * 2**10, f"peak RSS {peak_kib / 2**10:.1f} MiB"


def test_impute_peak_rss_at_207_nodes(tmp_path):
    """METR-LA's sensor count, sampled: a child imputes 48 steps with 2
    samples over 3 DDIM steps from an untrained window-24, d 32, 4-head
    checkpoint.  It read 48.6 MiB on a 2-core Xeon with attention's scores
    worked through one block at a time, and 114.6 MiB with each call's whole
    score tensor held at once."""
    dsm = _masked_world(tmp_path, 207, 48)
    run = tmp_path / "run"
    assert main(["pretrain", "--data", str(dsm), "--out", str(run), "--seed", "0",
                 "--t-steps", "10", "--n-window", "24", "--d", "32",
                 "--head-count", "4"]) == 0
    peak_kib = _peak_kib("impute", "--data", str(dsm), "--checkpoint",
                         str(run / "checkpoint.bin"), "--out", str(tmp_path / "imp"),
                         "--sampler", "ddim", "--accelerate-steps", "3", "--samples", "2",
                         "--seed", "0")
    assert peak_kib <= 80 * 2**10, f"peak RSS {peak_kib / 2**10:.1f} MiB"


@pytest.mark.parametrize("command", ["train", "pretrain"])
@pytest.mark.parametrize("flags", [("--d", "30", "--head-count", "4"),
                                   ("--conv-width", "4"), ("--beta-max", "2"),
                                   ("--beta-min", "0"), ("--t-steps", "0")])
def test_bad_denoiser_shape_exits_2_before_pretraining(pipeline, tmp_path, capsys,
                                                       monkeypatch, command, flags):
    from residiff import trainer as tr

    _, _, dsm, _ = pipeline
    ran = []
    monkeypatch.setattr(tr, "pretrain_initial", lambda *a: ran.append(a))
    out = tmp_path / "run"
    assert main([command, "--data", str(dsm), "--out", str(out), *FAST_TRAIN,
                 "--strategy", "trainable", "--pretrain-epochs", "30", *flags]) == 2
    _one_line_error(capsys, "config error:")
    assert ran == []
    assert not out.exists()


# 1 - beta rounds to 1 (beta_tilde would be NaN), or alpha_cum underflows to 0
BROKEN_SCHEDULES = [{"beta_min": 1e-17}, {"t_steps": 400, "beta_min": 0.85, "beta_max": 0.9}]


@pytest.mark.parametrize("schedule", BROKEN_SCHEDULES)
def test_schedule_that_does_not_decay_strictly_exits_2_or_3_from_a_sidecar(
        pipeline, tmp_path, capsys, monkeypatch, schedule):
    from residiff import trainer as tr

    _, _, dsm, run = pipeline
    flags = [x for k, v in schedule.items() for x in (f"--{k.replace('_', '-')}", str(v))]
    ran = []
    monkeypatch.setattr(tr, "pretrain_initial", lambda *a: ran.append(a))
    out = tmp_path / "run"
    assert main(["train", "--data", str(dsm), "--out", str(out), *FAST_TRAIN,
                 "--strategy", "trainable", "--pretrain-epochs", "30", *flags]) == 2
    assert "must decay strictly" in _one_line_error(capsys, "config error:")
    assert ran == []
    assert not out.exists()

    ck = tmp_path / "ck.bin"
    ck.write_bytes((run / "checkpoint.bin").read_bytes())
    sidecar = json.loads((run / "checkpoint.bin.json").read_text())
    sidecar["config"].update(schedule)
    (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
    imp = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(ck), "--out", str(imp),
                 "--sampler", "ddim", "--accelerate-steps", "3", "--samples", "2"]) == 3
    assert "invalid sidecar config" in _one_line_error(capsys, "data error:")
    assert not imp.exists()


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_block_training_targets_exit_0(pipeline, tmp_path, command):
    _, _, dsm, _ = pipeline
    out = tmp_path / command
    assert main([command, "--data", str(dsm), "--out", str(out), *FAST_TRAIN,
                 "--strategy", "trainable", "--init-hidden", "4", "--pretrain-epochs", "1",
                 "--target-protocol", "block", "--block-p", "0.05"]) == 0
    assert (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("command", ["train", "pretrain"])
@pytest.mark.parametrize("flags,message", [
    (["--target-p", "1.5"], "masking probability must be in (0, 1)"),
    (["--target-p", "0"], "masking probability must be in (0, 1)"),
    (["--block-len-min", "0"], "invalid block length range"),
    (["--target-protocol", "block", "--block-p", "1"], "masking probabilities must be in [0, 1)"),
    (["--target-protocol", "block", "--target-p", "-0.1"],
     "masking probabilities must be in [0, 1)"),
    (["--target-protocol", "block", "--block-len-min", "3", "--block-len-max", "2"],
     "invalid block length range"),
], ids=["point-p-1.5", "point-p-0", "len-min-0", "block-p-1", "block-point-p-neg",
        "len-max-below-min"])
def test_out_of_range_training_target_exits_2_before_training(pipeline, tmp_path, capsys,
                                                              command, flags, message):
    # with no joint epochs and a fill without parameters no target is ever
    # drawn, so only the config's own check can reject these
    _, _, dsm, _ = pipeline
    out = tmp_path / command
    assert main([command, "--data", str(dsm), "--out", str(out), *FAST_TRAIN,
                 "--epochs", "0", *flags]) == 2
    assert message in _one_line_error(capsys, "config error:")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("init_hidden", 0), ("init_hidden", -1), ("lam", float("nan")), ("lam", float("inf")),
    ("target_p", 1.5), ("block_len_min", 0),
    ("steps_per_hour", 0), ("steps_per_hour", -1), ("epochs", -1), ("pretrain_epochs", -1),
    ("strategy", "kriging"), ("init_norm", "l3"), ("target_protocol", "stripes"),
])
def test_out_of_range_training_value_exits_2_or_3_from_a_sidecar(pipeline, tmp_path,
                                                                  capsys, key, value):
    _, _, dsm, run = pipeline
    out = tmp_path / "run"
    flag = "--" + key.replace("_", "-")
    assert main(["train", "--data", str(dsm), "--out", str(out), *FAST_TRAIN,
                 "--strategy", "trainable", flag, str(value)]) == 2
    _one_line_error(capsys, "config error:")
    assert not out.exists()

    ck = tmp_path / "ck.bin"
    ck.write_bytes((run / "checkpoint.bin").read_bytes())
    sidecar = json.loads((run / "checkpoint.bin.json").read_text())
    sidecar["config"][key] = value
    (tmp_path / "ck.bin.json").write_text(json.dumps(sidecar))
    imp = tmp_path / "imp"
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(ck),
                 "--out", str(imp), "--samples", "2"]) == 3
    assert "invalid sidecar config" in _one_line_error(capsys, "data error:")
    assert not imp.exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
def test_output_path_through_a_file_exits_2(tmp_path, capsys, sub):
    blocker = tmp_path / "taken"
    blocker.write_text("keep me")
    out = blocker / sub if sub else blocker
    assert main(["synth", "--out", str(out), "--n-nodes", "3", "--data-steps", "24"]) == 2
    assert str(out) in _one_line_error(capsys, "config error:")
    assert blocker.read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_synth_steps_per_day_below_1_exits_2(tmp_path, capsys, value):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--steps-per-day", value]) == 2
    assert "steps per day" in _one_line_error(capsys, "config error:")
    assert not out.exists()


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command,key", [
    ("synth", "seed"), ("mask", "mask_seed"), ("pretrain", "seed"), ("train", "seed"),
    ("impute", "seed"), ("verify", "seed"), ("sweep", "seed"), ("sweep", "mask_seed")])
def test_negative_seed_exits_2_without_output(pipeline, tmp_path, capsys, command, key,
                                              given):
    _, ds, dsm, run = pipeline
    inputs = {"mask": ["--data", str(ds)], "pretrain": ["--data", str(dsm)],
              "train": ["--data", str(dsm)],
              "impute": ["--data", str(dsm), "--checkpoint", str(run / "checkpoint.bin")]}
    argv = [command, "--out", str(tmp_path / "out"), *inputs.get(command, [])]
    if given == "flag":
        argv += [f"--{key.replace('_', '-')}", "-1"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: -1}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert key in _one_line_error(capsys, "config error:")
    assert not (tmp_path / "out").exists()


def test_artifact_formats(pipeline, tmp_path):
    # every JSON artifact is indented by two, with sorted keys and a final
    # newline; both loss logs share one header and write losses with repr
    from residiff import cli
    from residiff import data as dt
    from residiff import trainer as tr

    _, ds, dsm, run = pipeline
    pre, imp, ev, ver = (tmp_path / name for name in ("pre", "imp", "ev", "ver"))
    assert main(["pretrain", "--data", str(dsm), "--out", str(pre), "--strategy",
                 "trainable", "--init-hidden", "4", "--pretrain-epochs", "2", *FAST_TRAIN]) == 0
    assert main(["impute", "--data", str(dsm), "--checkpoint", str(run / "checkpoint.bin"),
                 "--out", str(imp), "--samples", "2", "--sampler", "ddim",
                 "--accelerate-steps", "2"]) == 0
    assert main(["eval", "--data", str(dsm), "--imputed", str(imp), "--out", str(ev)]) == 0
    assert main(["verify", "--out", str(ver), "--seed", "0"]) == 0

    written = [p for d in (ds, dsm, run, pre, imp, ev, ver) for p in d.glob("*.json")]
    assert {p.name for p in written} == {"config.json", "checkpoint.bin.json", "summary.json",
                                         "metrics.json", "audit.json"}
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path

    header, *rows = (pre / "pretrain_log.csv").read_text().splitlines()
    assert header == (run / "train_log.csv").read_text().splitlines()[0]
    cfg = cli.RunConfig(**json.loads((pre / "config.json").read_text()))
    grid, graph = cli._load_dataset(cfg)
    _, losses = tr.pretrain_initial(dt.normalize(grid)[0], graph, cli._train_config(cfg),
                                    np.random.default_rng(cfg.seed))
    assert len(losses) > 0
    assert rows == [f"{i},{x!r},{x!r},{x!r}" for i, x in enumerate(losses)]


def _readme_commands() -> list[list[str]]:
    """The words after ``residiff`` on each command line of README's fenced
    blocks, continuation lines joined and comments dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands, fenced, pending = [], False, ""
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        line = pending + line.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        words = line.split()
        if words[:1] == ["residiff"]:
            commands.append(words[1:])
    return commands


def test_readme_commands_name_real_subcommands_and_flags():
    from dataclasses import fields

    from residiff.cli import _COMMANDS, RunConfig

    keys = {f.name for f in fields(RunConfig)} | {"config", "ablation"}
    commands = _readme_commands()
    assert commands
    for words in commands:
        assert words and words[0] in _COMMANDS, words
        flags = [w for w in words[1:] if w.startswith("--")]
        assert all(f[2:].replace("-", "_") in keys for f in flags), words


_REPO = Path(__file__).resolve().parents[1]
# files the CLI writes or reads (file.json stands for a --config file), not
# repository paths
_ARTIFACTS = {"config.json", "checkpoint.bin", "checkpoint.bin.json", "summary.json",
              "metrics.json", "audit.json", "values.csv", "observed_mask.csv",
              "eval_mask.csv", "adjacency.csv", "train_log.csv", "pretrain_log.csv",
              "median.csv", "q05.csv", "q95.csv", "sweep.csv", "file.json"}
_TOP_DIRS = {p.name for p in _REPO.iterdir() if p.is_dir() and not p.name.startswith(".")}


def _readme_spans() -> list[str]:
    """README's inline code spans, fenced blocks left out."""
    prose = re.sub(r"^```.*?^```", "", (_REPO / "README.md").read_text(), flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", prose)


def _is_file(word: str) -> bool:
    """A path under one of the repository's directories, or a bare file name."""
    if "/" in word:
        return word.split("/", 1)[0] in _TOP_DIRS
    return bool(re.fullmatch(r"[\w*.-]+\.(py|json|md|csv|bin|txt)", word))


def test_readme_paths_exist():
    words = {w for span in _readme_spans() for w in span.split() if _is_file(w)}
    assert "tests/test_acceptance.py" in words and "BENCH_26.json" in words
    for word in sorted(words - _ARTIFACTS):
        if "/" in word:
            assert list(_REPO.glob(word.rstrip("/"))), word
        else:  # a bare file name: at the root or in the package
            assert any(list(d.glob(word)) for d in (_REPO, _REPO / "src" / "residiff")), word


def test_readme_dotted_names_resolve():
    """Each backticked dotted name rooted at a residiff module, one of the
    aliases the package imports its modules under, or the package itself
    names an attribute that exists, or a metric BENCHMARK.json lists."""
    import fnmatch
    import importlib

    aliases = {"residiff": "residiff"}
    for src in (_REPO / "src" / "residiff").glob("*.py"):
        aliases[src.stem] = f"residiff.{src.stem}"
        for mod, alias in re.findall(r"^from \. import (\w+) as (\w+)$", src.read_text(), re.M):
            aliases[alias] = f"residiff.{mod}"
    bench = json.loads((_REPO / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]

    checked = 0
    for span in _readme_spans():
        name = re.sub(r"\(.*\)$", "", span)
        if not re.fullmatch(r"\w+(\.[\w*]+)+", name) or _is_file(name):
            continue
        root, *parts = name.split(".")
        if root not in aliases:
            continue
        checked += 1
        if any(fnmatch.fnmatch(m, name) for m in metrics):
            continue
        obj = importlib.import_module(aliases[root])
        for part in parts:
            assert hasattr(obj, part), name
            obj = getattr(obj, part)
    assert checked
