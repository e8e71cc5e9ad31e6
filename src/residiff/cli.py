"""Command-line surface binding the library into reproducible runs.

Subcommands: synth, mask, pretrain, train, impute, eval, verify, sweep.
Configuration comes from an optional JSON file (flat keys) plus ``--key
value`` overrides; every run echoes its fully resolved config and root seed
into the output directory, so re-running from that echo reproduces the
artifacts bit-exactly.  Exit codes: 0 success, 1 unexpected error, 2 config
error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import shutil
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as dt
from . import oracle as orc
from . import sampler as sp
from .audit import run_audits
from .errors import ConfigError, DataError, NumericError
from .trainer import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_joint,
)

__all__ = ["RunConfig", "keep_freed_memory", "main"]


@dataclass
class RunConfig(TrainConfig):
    """TrainConfig plus dataset, output and sampling options."""

    data: str = ""
    checkpoint: str = ""
    imputed: str = ""
    out: str = "run_out"
    # synthetic dataset
    n_nodes: int = 20
    data_steps: int = 2000
    steps_per_day: int = 24
    # masking subcommand
    mask_protocol: str = "point"
    mask_p: float = 0.25
    mask_block_p: float = 0.0015
    mask_nodes: str = ""
    mask_seed: int = 0
    # sampling
    sampler: str = "ancestral"
    samples: int = 8
    accelerate_steps: int = 10
    eta: float = 1.0
    write_samples: bool = False
    # sweep grids (comma-separated in JSON/flags)
    sweep_t: str = "10,25,50"
    sweep_lam: str = "0.05,0.2,1.0"
    sweep_k: str = "2,5,10"


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, raw: str, kind):
    if kind is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"--{name} expects a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"--{name} expects {kind.__name__}, got {raw!r}") from exc


def resolve_config(args: argparse.Namespace, overrides: list[str]) -> RunConfig:
    field_types = {f.name: type(f.default) for f in fields(RunConfig)}
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(base) - set(field_types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    # every override is coerced first and the config is built once, so
    # that its cross-field checks only ever see the final values
    pairs = []
    i = 0
    while i < len(overrides):
        key = overrides[i]
        if not key.startswith("--"):
            raise ConfigError(f"expected --key value pairs, got {key!r}")
        if i + 1 >= len(overrides):
            raise ConfigError(f"missing value for {key}")
        pairs.append((key[2:].replace("-", "_"), overrides[i + 1]))
        i += 2
    for name, raw in pairs:
        if name == "ablation":
            for flag in filter(None, raw.split(",")):
                if flag not in _ABLATION_FLAGS:
                    raise ConfigError(f"unknown ablation flag {flag!r}")
                base[flag] = True
            continue
        if name not in field_types:
            raise ConfigError(f"unknown config key {name!r}")
        base[name] = _coerce(name, raw, field_types[name])
    return RunConfig(**base)


# TrainConfig's bool fields are its ablation flags
_ABLATION_FLAGS = tuple(f.name for f in fields(TrainConfig) if isinstance(f.default, bool))


class _OutputDir:
    """Create/track an output directory; remove partial outputs on failure."""

    def __init__(self, path: str):
        self.path = Path(path)
        self.existed = self.path.exists()
        self.created: list[Path] = []
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc

    def file(self, name: str) -> Path:
        p = self.path / name
        self.created.append(p)
        return p

    def cleanup(self):
        if not self.existed:
            shutil.rmtree(self.path, ignore_errors=True)
            return
        for p in self.created:
            if p.exists():
                p.unlink()


def _load_dataset(cfg: RunConfig):
    """Load the dataset directory named by ``--data``."""
    if not cfg.data:
        raise ConfigError("--data directory is required")
    d = Path(cfg.data)
    values = d / "values.csv"
    adjacency = d / "adjacency.csv"
    if not values.exists() or not adjacency.exists():
        raise DataError(f"{d} must contain values.csv and adjacency.csv")
    observed = d / "observed_mask.csv"
    eval_mask = d / "eval_mask.csv"
    return dt.load_csv(
        values,
        adjacency,
        mask_path=observed if observed.exists() else None,
        eval_mask_path=eval_mask if eval_mask.exists() else None,
    )


def _write_dataset(out: _OutputDir, grid: dt.MaskedGrid, graph: dt.Graph):
    dt.save_values_csv(out.file("values.csv"), grid.values, grid.timestamps,
                       grid.node_ids, grid.observed_mask)
    dt.save_mask_csv(out.file("observed_mask.csv"), grid.observed_mask,
                     grid.timestamps, grid.node_ids)
    dt.save_mask_csv(out.file("eval_mask.csv"), grid.eval_mask,
                     grid.timestamps, grid.node_ids)
    dt.save_adjacency_csv(out.file("adjacency.csv"), graph, grid.node_ids)


def _cmd_synth(cfg: RunConfig, out: _OutputDir) -> int:
    params = dt.SynthParams(steps_per_day=cfg.steps_per_day)
    grid, graph = dt.synth_generate(cfg.seed, cfg.n_nodes, cfg.data_steps, params)
    _write_dataset(out, grid, graph)
    return 0


def _cmd_mask(cfg: RunConfig, out: _OutputDir) -> int:
    grid, graph = _load_dataset(cfg)
    if cfg.mask_protocol == "point":
        grid = dt.mask_point(grid, cfg.mask_p, cfg.mask_seed)
    elif cfg.mask_protocol == "block":
        # --mask-p is the point protocol's rate; block keeps its own 5 %
        grid = dt.mask_block(grid, p_block=cfg.mask_block_p,
                             len_range=(cfg.block_len_min, cfg.block_len_max),
                             steps_per_hour=cfg.steps_per_hour, seed=cfg.mask_seed)
    elif cfg.mask_protocol == "node":
        ids = [s.strip() for s in cfg.mask_nodes.split(",") if s.strip()]
        if not ids:
            raise ConfigError("--mask-nodes must list node ids")
        grid = dt.mask_node(grid, ids)
    else:
        raise ConfigError(f"unknown mask protocol {cfg.mask_protocol!r}")
    _write_dataset(out, grid, graph)
    return 0


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})


def _cmd_pretrain(cfg: RunConfig, out: _OutputDir) -> int:
    grid, graph = _load_dataset(cfg)
    tcfg = _train_config(cfg)
    # pretraining draws its targets out of sample whatever the mask mode
    result = train_joint(grid, graph, replace(tcfg, epochs=0, mask_mode="out_of_sample"))
    if tcfg.strategy != "trainable":
        print(f"warning: strategy {tcfg.strategy!r} has no trainable parameters", file=sys.stderr)
    # the sidecar echoes the given config and the joint epochs that ran: none
    save_checkpoint(replace(result.checkpoint, config=replace(tcfg, epochs=0)),
                    out.file("checkpoint.bin"))
    out.file("checkpoint.bin.json")
    dt.save_log_csv(out.file("pretrain_log.csv"),
                    [(i, x, x, x) for i, x in enumerate(result.pretrain_log)])
    return 0


def _cmd_train(cfg: RunConfig, out: _OutputDir) -> int:
    grid, graph = _load_dataset(cfg)
    result = train_joint(grid, graph, _train_config(cfg))
    save_checkpoint(result.checkpoint, out.file("checkpoint.bin"))
    out.file("checkpoint.bin.json")
    dt.save_log_csv(out.file("train_log.csv"), result.log)
    return 0


def _cmd_impute(cfg: RunConfig, out: _OutputDir) -> int:
    if not cfg.checkpoint:
        raise ConfigError("--checkpoint path is required")
    # the chosen sampler's own option check, before anything loads
    if cfg.sampler == "ancestral":
        sp.check_sampling(cfg.samples)
    elif cfg.sampler == "ddim":
        sp.check_sampling(cfg.samples, cfg.eta)
    else:
        raise ConfigError(f"unknown sampler {cfg.sampler!r}")
    ckpt = load_checkpoint(cfg.checkpoint)
    # the checkpoint fixes the geometry: window length and node count
    geometry = ckpt.denoiser_config
    grid, graph = _load_dataset(cfg)
    if grid.shape[1] != geometry.n_nodes:
        raise DataError(f"dataset has {grid.shape[1]} nodes, checkpoint "
                        f"{cfg.checkpoint} was trained on {geometry.n_nodes}")
    rng = np.random.default_rng(cfg.seed)
    if cfg.sampler == "ancestral" and not (ckpt.config.predict_x0
                                           or ckpt.config.no_cond_forward):
        drift = orc.ancestral_condition_drift(ckpt.sched)
        print(f"warning: the ancestral chain leaves the marginal this noise-target "
              f"checkpoint was trained on: its condition coefficient drifts by up to "
              f"{drift:.2f}; --sampler ddim --accelerate-steps {ckpt.sched.T} --eta 1 "
              f"stays on it", file=sys.stderr)
    if cfg.sampler == "ancestral":
        result = sp.ancestral_impute(ckpt, grid, graph, cfg.samples, rng)
        step_count = ckpt.sched.T
    else:
        result = sp.accelerated_impute(ckpt, grid, graph, cfg.accelerate_steps,
                                       cfg.samples, rng, cfg.eta)
        step_count = cfg.accelerate_steps
    outputs = {"median": result.median, "q05": result.q_low, "q95": result.q_high}
    if cfg.write_samples:
        outputs.update({f"sample_{s:03d}": sample for s, sample in enumerate(result.samples)})
    for name, values in outputs.items():
        dt.save_values_csv(out.file(f"{name}.csv"), values, grid.timestamps, grid.node_ids)
    summary = {
        "sampler": cfg.sampler,
        "samples": cfg.samples,
        "step_count": step_count,
        "quantile_levels": list(sp.Q_LEVELS),
        "seed": cfg.seed,
        "metrics": result.metrics,
    }
    dt.save_json(out.file("summary.json"), summary)
    return 0


def _cmd_eval(cfg: RunConfig, out: _OutputDir) -> int:
    if not cfg.imputed:
        raise ConfigError("--imputed directory is required")
    grid, _ = _load_dataset(cfg)
    med_path = Path(cfg.imputed) / "median.csv"
    if not med_path.exists():
        raise DataError(f"{med_path} not found")
    median, timestamps, node_ids = dt.load_values_csv(med_path)
    if median.shape != grid.shape:
        raise DataError("imputed grid shape does not match dataset")
    if node_ids != grid.node_ids or not np.array_equal(timestamps, grid.timestamps):
        raise DataError(f"{med_path} does not share the dataset's node ids and timestamps")
    scores = dt.metrics(median, grid.values, grid.eval_mask)
    dt.save_json(out.file("metrics.json"), scores)
    print(json.dumps(scores, sort_keys=True))
    return 0


def _cmd_verify(cfg: RunConfig, out: _OutputDir) -> int:
    report = run_audits(cfg.seed)
    dt.save_json(out.file("audit.json"), report)
    for a in report["audits"]:
        status = "pass" if a["pass"] else "FAIL"
        print(f"{status}  {a['name']}  residual={a['residual']:.3e} "
              f"tol={a['tolerance']:.1e}")
    if not report["all_pass"]:
        # the report itself is the artifact; keep it and signal failure
        print("derivation audits failed", file=sys.stderr)
        return 4
    return 0


def _sweep_list(name: str, raw: str, kind) -> list:
    """A comma-separated sweep grid; a malformed entry is a config error."""
    return [_coerce(name, x, kind) for x in raw.split(",")]


def _cmd_sweep(cfg: RunConfig, out: _OutputDir) -> int:
    """One-factor-at-a-time sensitivity sweeps on a synthetic dataset."""
    grids = [("t_steps", _sweep_list("sweep-t", cfg.sweep_t, int)),
             ("lam", _sweep_list("sweep-lam", cfg.sweep_lam, float)),
             ("accelerate_steps", _sweep_list("sweep-k", cfg.sweep_k, int))]
    # the sampling options, then every grid point's config and substep
    # count, so that a bad value fails before the first model trains
    sp.check_sampling(cfg.samples, cfg.eta)
    base = {"t_steps": cfg.t_steps, "lam": cfg.lam,
            "accelerate_steps": cfg.accelerate_steps}
    points = []
    for name, values in grids:
        for value in values:
            point = {**base, name: value}
            tcfg = replace(_train_config(cfg), t_steps=point["t_steps"], lam=point["lam"])
            k = min(point["accelerate_steps"], tcfg.t_steps)
            sp.substep_schedule(tcfg.t_steps, k)
            points.append((name, value, tcfg, k))
    params = dt.SynthParams(steps_per_day=cfg.steps_per_day)
    grid, graph = dt.synth_generate(cfg.seed, cfg.n_nodes, cfg.data_steps, params)
    grid = dt.mask_point(grid, cfg.mask_p, cfg.mask_seed)

    def rows():
        for _, value, tcfg, k in points:
            result = train_joint(grid, graph, tcfg)
            m = sp.accelerated_impute(result.checkpoint, grid, graph, k, cfg.samples,
                                      np.random.default_rng(cfg.seed), cfg.eta).metrics
            yield value, m["mae"], m["mse"], m["mre"]

    dt.save_sweep_csv(out.file("sweep.csv"), [name for name, *_ in points], rows())
    return 0


# glibc mallopt parameters and values: the largest mmap threshold a 64-bit
# glibc accepts, and a trim threshold far above the working set of any command
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


def keep_freed_memory() -> bool:
    """Keep freed allocations in the process heap for reuse; True if in effect.

    Every denoiser call allocates tens of megabytes of short-lived numpy
    temporaries.  Under glibc's default dynamic thresholds the large ones are
    mmapped and the heap top is trimmed, so each call's pages go back to the
    kernel and are faulted in again by the next call.  Fixing both thresholds
    (which also ends glibc's dynamic adjustment) lets the T reverse steps and
    every training step reuse the same pages.  The CLI owns its process and
    calls this; importing the library changes nothing.  Without glibc's
    ``mallopt`` this does nothing and returns False; calling it again is
    harmless.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


_COMMANDS = {
    "synth": _cmd_synth,
    "mask": _cmd_mask,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "impute": _cmd_impute,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and message prefix; an exception outside the taxonomy is a
    defect, not bad input, and exits 1 naming its type."""
    if isinstance(exc, ConfigError):
        return 2, "config error"
    if isinstance(exc, DataError):
        return 3, "data error"
    if isinstance(exc, (NumericError, FloatingPointError)):
        return 4, "numeric failure"
    return 1, f"error: {type(exc).__name__}"


def main(argv=None) -> int:
    keep_freed_memory()
    parser = argparse.ArgumentParser(
        prog="residiff",
        description="Two-stage residual-diffusion imputation for "
                    "spatiotemporal sensor grids",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default="", help="JSON config file")
    args, overrides = parser.parse_known_args(argv)

    out = None
    try:
        cfg = resolve_config(args, overrides)
        out = _OutputDir(cfg.out)
        dt.save_json(out.file("config.json"), asdict(cfg))
        return _COMMANDS[args.command](cfg, out)
    except Exception as exc:
        if out:
            out.cleanup()
        code, prefix = _failure(exc)
        message = " ".join(str(exc).splitlines())
        print(f"{prefix}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
