import json
import os
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


def test_pretrain_subcommand(pipeline, tmp_path):
    _, _, dsm, _ = pipeline
    out = tmp_path / "pre"
    assert main(["pretrain", "--data", str(dsm), "--out", str(out),
                 "--strategy", "trainable", "--init-hidden", "4",
                 "--pretrain-epochs", "2", *FAST_TRAIN]) == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "pretrain_log.csv").exists()


def test_verify_subcommand(tmp_path):
    out = tmp_path / "ver"
    assert main(["verify", "--out", str(out), "--seed", "0"]) == 0
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
# therefore trains in a fork of itself, whose mark starts afresh, and that
# fork prints its own exit code and ru_maxrss.
_TRAIN_PEAK = """
import os, resource, sys
if os.fork() == 0:
    from residiff.cli import main
    code = main(sys.argv[1:])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(0)
os.wait()
"""


def test_train_peak_rss_at_the_acceptance_shape(tmp_path):
    """A child process trains at 20 nodes, window 24, batch 16, d 32 and
    reports its own peak RSS (KiB).  It read 91.0 MiB on a 2-core Xeon with
    numpy 2.4 and OpenBLAS 0.3.31, and 119.7 MiB while the autodiff tape
    pinned every interior value; the bound sits between the two."""
    import residiff

    ds, dsm = tmp_path / "ds", tmp_path / "dsm"
    assert main(["synth", "--out", str(ds), "--n-nodes", "20", "--data-steps", "480",
                 "--seed", "3"]) == 0
    assert main(["mask", "--data", str(ds), "--out", str(dsm), "--mask-p", "0.25",
                 "--mask-seed", "1"]) == 0
    src = str(Path(residiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _TRAIN_PEAK, "train", "--data", str(dsm),
         "--out", str(tmp_path / "run"), "--seed", "0", "--t-steps", "10",
         "--n-window", "24", "--d", "32", "--head-count", "4", "--batch-size", "16",
         "--strategy", "trainable", "--pretrain-epochs", "1", "--epochs", "1"],
        env=env, check=True, capture_output=True, text=True, timeout=300)
    code, peak_kib = map(int, done.stdout.split()[-2:])
    assert code == 0
    assert peak_kib <= 105 * 1024, f"peak RSS {peak_kib / 1024:.1f} MiB"


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_block_training_targets_exit_0(pipeline, tmp_path, command):
    _, _, dsm, _ = pipeline
    out = tmp_path / command
    assert main([command, "--data", str(dsm), "--out", str(out), *FAST_TRAIN,
                 "--strategy", "trainable", "--init-hidden", "4", "--pretrain-epochs", "1",
                 "--target-protocol", "block", "--block-p", "0.05"]) == 0
    assert (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("key,value", [
    ("init_hidden", 0), ("init_hidden", -1), ("lam", float("nan")), ("lam", float("inf")),
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
