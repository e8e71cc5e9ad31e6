"""Joint training of the rough-fill model and the residual denoiser.

Per batch: windows are cut at random offsets, artificial targets are drawn
from the visible cells (out-of-sample mode) or taken from the dataset's
annotated targets (in-sample mode), the rough fill produces the residual
target and condition, a diffusion step and noise are drawn, and one Adam
step is taken on

    L_joint = L_simple + lambda * L_init

with L_simple the masked mean squared noise error and L_init the rough-fill
error.  Gradients flow into the fill model through the residual, the
condition, and L_init unless it is frozen.  Everything is driven by one
explicit RNG, so a fixed config and seed reproduce checkpoints bit-exactly.

Ablation flags:
  no_cond_forward    condition zeroed in the forward marginal and samplers
                     (the denoiser still sees it)
  no_residual        the diffusion target is the data itself; the rough fill
                     drops out of the target and the sampler's combination
                     but still provides the condition
  freeze_initial     no gradients into the fill model
  skip_pretrain      fill model keeps its initialization
  predict_x0         the network outputs the clean residual instead of noise
  flip_residual_sign negates the residual convention end to end
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import data as dt
from . import denoiser as dn
from . import initial as ini
from .errors import ConfigError, DataError, NumericError
from .forward import q_sample
from .schedule import NoiseSchedule, build_linear_schedule

__all__ = [
    "TrainConfig",
    "Checkpoint",
    "TrainResult",
    "Adam",
    "pretrain_initial",
    "train_joint",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class TrainConfig:
    # schedule
    t_steps: int = 50
    beta_min: float = 1e-4
    beta_max: float = 0.2
    # optimization
    lam: float = 0.2
    learning_rate: float = 1e-3
    epochs: int = 40
    batch_size: int = 16
    n_window: int = 24
    seed: int = 0
    # denoiser
    d: int = 32
    head_count: int = 4
    conv_width: int = 3
    # initial stage
    strategy: str = "node_mean"
    init_hidden: int = 16
    pretrain_epochs: int = 10
    init_norm: str = "l1"
    # masking during training
    mask_mode: str = "out_of_sample"
    target_p: float = 0.25
    target_protocol: str = "point"
    block_p: float = 0.0015
    block_len_min: int = 1
    block_len_max: int = 4
    steps_per_hour: int = 1
    # ablation flags
    no_cond_forward: bool = False
    no_residual: bool = False
    freeze_initial: bool = False
    skip_pretrain: bool = False
    predict_x0: bool = False
    flip_residual_sign: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError("loss balance must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.t_steps < 1:
            raise ConfigError("diffusion step count must be >= 1")
        if self.mask_mode not in ("in_sample", "out_of_sample"):
            raise ConfigError(f"unknown mask mode {self.mask_mode!r}")

    @property
    def residual_sign(self) -> float:
        return -1.0 if bool(self.flip_residual_sign) != bool(self.no_residual) else 1.0

    def denoiser_config(self, n_nodes: int) -> dn.DenoiserConfig:
        return dn.DenoiserConfig(
            n_window=self.n_window, n_nodes=n_nodes, n_steps=self.t_steps,
            d=self.d, conv_width=self.conv_width, head_count=self.head_count,
        )

    def schedule(self) -> NoiseSchedule:
        return build_linear_schedule(self.t_steps, self.beta_min, self.beta_max)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config a checkpoint's sidecar echoes; every field must be there."""
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = known - set(d)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**d)


@dataclass
class Checkpoint:
    """Trained state; the noise schedule ``sched`` is derived from ``config``
    on construction, never stored, so the two cannot disagree."""

    denoiser: dict[str, np.ndarray]  # laid out by dn.param_shapes
    initial: ini.InitialModel
    stats: dt.NormStats  # one mean and std per node
    config: TrainConfig

    def __post_init__(self):
        self.sched = self.config.schedule()

    @property
    def denoiser_config(self) -> dn.DenoiserConfig:
        return self.config.denoiser_config(len(self.stats.mean))


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list  # rows of (step, loss_simple, loss_init, loss_joint)


class Adam:
    """Standard adaptive first-order optimizer over a dict of arrays."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(arr) for n, arr in params.items()}
        self.v = {n: np.zeros_like(arr) for n, arr in params.items()}

    def step(self, params: dict, grads: dict):
        """Update ``params`` (the dict given at construction) in place."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, arr in params.items():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arr -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _window_batches(L: int, n_window: int, batch_size: int, rng):
    if L < n_window:
        raise DataError(f"series of length {L} shorter than window {n_window}")
    count = max(1, L // n_window)
    starts = rng.integers(0, L - n_window + 1, size=count)
    for lo in range(0, count, batch_size):
        yield starts[lo : lo + batch_size]


def _draw_targets(config: TrainConfig, visible: np.ndarray, rng) -> np.ndarray:
    if config.target_protocol == "point":
        return dt.draw_point_targets(visible, config.target_p, rng)
    if config.target_protocol == "block":
        return dt.draw_block_targets(
            visible, config.target_p, config.block_p,
            (config.block_len_min, config.block_len_max),
            config.steps_per_hour, rng,
        )
    raise ConfigError(f"unknown target protocol {config.target_protocol!r}")


def pretrain_initial(grid: dt.MaskedGrid, graph: dt.Graph, config: TrainConfig,
                     rng: np.random.Generator) -> tuple[ini.InitialModel, list]:
    """Fit the trainable rough-fill model on re-masked batches.

    No-op (with a warning) for parameterless strategies; skipped when the
    config says so.  Returns the model and the per-step loss trace.
    """
    model = ini.InitialModel(config.strategy, config.init_hidden)
    if not model.trainable:
        warnings.warn(f"strategy {config.strategy!r} has no trainable parameters")
        return model, []
    model.params = ini.init_trainable_params(config.init_hidden, rng)
    if config.skip_pretrain:
        return model, []
    adam = Adam(model.params, config.learning_rate)
    losses = []
    L = grid.shape[0]
    for _ in range(config.pretrain_epochs):
        for starts in _window_batches(L, config.n_window, config.batch_size, rng):
            values, vis, _ = _slice_windows(grid, starts, config.n_window)
            target = _draw_targets(config, vis, rng)
            keep = target.reshape(len(starts), -1).any(axis=1)
            if not keep.any():
                continue
            values, vis, target = values[keep], vis[keep], target[keep]
            cond_vis = vis & ~target
            leaves = ad.leaves(model.params)
            x_init = ini.impute_initial(values, cond_vis, graph, model, leaves)
            loss = ini.init_loss(x_init, values, target, config.init_norm)
            if not np.isfinite(loss.value):
                raise NumericError("non-finite pretraining loss")
            loss.backward()
            adam.step(model.params, ad.grads(leaves))
            losses.append(float(loss.value))
    return model, losses


def _group(arrays: dict, prefix: str) -> dict:
    """The entries named ``prefix/<name>``, keyed by ``<name>``."""
    return {k.split("/", 1)[1]: v for k, v in arrays.items() if k.startswith(prefix + "/")}


def _slice_windows(grid: dt.MaskedGrid, starts, n_window: int):
    values = np.stack([grid.values[s : s + n_window] for s in starts])
    vis = np.stack([grid.visible_mask[s : s + n_window] for s in starts])
    ev = np.stack([grid.eval_mask[s : s + n_window] for s in starts])
    return values, vis, ev


def train_joint(grid: dt.MaskedGrid, graph: dt.Graph, config: TrainConfig,
                rng: np.random.Generator | None = None) -> TrainResult:
    """Run the full two-stage training loop and return a checkpoint."""
    if not grid.observed_mask.any():
        raise DataError("training data has no observed cells")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    grid_n, stats = dt.normalize(grid)
    sched = config.schedule()
    if config.strategy == "trainable":
        model, _ = pretrain_initial(grid_n, graph, config, rng)
    else:
        model = ini.InitialModel(config.strategy, config.init_hidden)

    dcfg = config.denoiser_config(grid.shape[1])
    dparams = dn.init_params(dcfg, rng)
    a_hat = dn.normalized_adjacency(graph.adjacency)

    train_initial = model.trainable and not config.freeze_initial
    opt_params = {f"denoiser/{n}": arr for n, arr in dparams.items()}
    if train_initial:
        opt_params.update({f"initial/{n}": arr for n, arr in model.params.items()})
    adam = Adam(opt_params, config.learning_rate)

    log = []
    step = 0
    L = grid.shape[0]
    for _ in range(config.epochs):
        for starts in _window_batches(L, config.n_window, config.batch_size, rng):
            values, vis, ev = _slice_windows(grid_n, starts, config.n_window)
            # each window's phase in the denoiser's temporal table
            widx = (starts[:, None] + np.arange(config.n_window)) % config.n_window
            if config.mask_mode == "in_sample":
                target = ev
                cond_vis = vis
            else:
                target = _draw_targets(config, vis, rng)
                cond_vis = vis & ~target
            keep = (target.reshape(len(starts), -1).any(axis=1)
                    & cond_vis.reshape(len(starts), -1).any(axis=1))
            if not keep.any():
                continue
            values, cond_vis, target, widx = (
                values[keep], cond_vis[keep], target[keep], widx[keep])
            b = values.shape[0]

            leaves = ad.leaves(opt_params)
            x_init = ini.impute_initial(values, cond_vis, graph, model,
                                        _group(leaves, "initial") if train_initial else None)
            z0m, z0c = ini.residual_and_condition(
                x_init, values, target, sign=config.residual_sign,
                no_residual=config.no_residual)
            z0c_fwd = np.zeros_like(values) if config.no_cond_forward else z0c

            t_draw = rng.integers(1, config.t_steps + 1, size=b)
            eps = rng.standard_normal(values.shape)
            z_t = q_sample(z0m, z0c_fwd, t_draw, eps, sched, target)

            net_out = dn.forward(_group(leaves, "denoiser"), dcfg, z_t, z0c, t_draw, a_hat, widx)
            if config.predict_x0:
                loss_simple = dn.masked_mse(net_out, z0m, target)
            else:
                loss_simple = dn.masked_mse(net_out, eps, target)
            loss_init = ini.init_loss(x_init, values, target, config.init_norm)
            loss_joint = ad.add(loss_simple, ad.mul(loss_init, config.lam))

            ls = float(loss_simple.value)
            li = float(ad.value_of(loss_init))
            lj = float(loss_joint.value)
            if not np.isfinite(lj):
                raise NumericError(f"non-finite joint loss at step {step}: "
                                   f"simple={ls} init={li}")
            loss_joint.backward()
            adam.step(opt_params, ad.grads(leaves))
            log.append((step, ls, li, lj))
            step += 1

    ckpt = Checkpoint(denoiser=dparams, initial=model, stats=stats, config=config)
    return TrainResult(checkpoint=ckpt, log=log)


# --------------------------------------------------------------------------
# Checkpoint container: versioned binary file plus a JSON sidecar holding the
# config and the node count, from which the schedule, the fill model and every
# array's shape follow.  Header: magic, u32 version, u32 array count, then per
# array a u32 name length, the utf-8 name, u32 ndim and u64 dims; payload holds
# the float64 little-endian arrays in declared order.  Arrays the loader does
# not ask for are skipped, so files that still carry ``schedule/*`` arrays load.

_MAGIC = b"RSDFCKPT"
_FORMAT_VERSION = 1


def _checkpoint_arrays(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    arrays = {"norm/mean": ckpt.stats.mean, "norm/std": ckpt.stats.std}
    for n, arr in ckpt.denoiser.items():
        arrays[f"denoiser/{n}"] = arr
    for n in sorted(ckpt.initial.params):
        arrays[f"initial/{n}"] = ckpt.initial.params[n]
    return arrays


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``path`` (binary) and ``path + '.json'`` (config sidecar)."""
    arrays = _checkpoint_arrays(ckpt)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, len(arrays)))
        for name, arr in arrays.items():
            enc = name.encode("utf-8")
            fh.write(struct.pack("<I", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    sidecar = {"config": asdict(ckpt.config), "n_nodes": ckpt.denoiser_config.n_nodes}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a truncated, inconsistent or missing one is a DataError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:8] != _MAGIC:
            raise DataError(f"{path} is not a checkpoint file")
        with open(str(path) + ".json") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc

    off = 8

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise DataError(f"checkpoint {path} is truncated")
        off += n
        return blob[off - n : off]

    version, count = struct.unpack("<II", take(8))
    if version != _FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    headers = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8", errors="replace")
        (ndim,) = struct.unpack("<I", take(4))
        headers.append((name, struct.unpack(f"<{ndim}Q", take(8 * ndim))))
    arrays = {}
    for name, shape in headers:
        raw = take(8 * math.prod(shape))
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"checkpoint {path}: {name} holds non-finite values")
    if off != len(blob):
        raise DataError(f"checkpoint {path} has {len(blob) - off} trailing bytes")

    try:
        config = TrainConfig.from_dict(sidecar["config"])
        n_nodes = int(sidecar["n_nodes"])
        dshapes = dn.param_shapes(config.denoiser_config(n_nodes))
        model = ini.InitialModel(config.strategy, config.init_hidden)
        ishapes = ini.param_shapes(model.hidden) if model.trainable else {}
        shapes = {"norm/mean": (n_nodes,), "norm/std": (n_nodes,),
                  **{f"denoiser/{n}": shape for n, shape in dshapes.items()},
                  **{f"initial/{n}": shape for n, shape in ishapes.items()}}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise DataError(f"checkpoint {path}: {name} has shape "
                                f"{arrays[name].shape}, its sidecar implies {shape}")
        if np.any(arrays["norm/std"] <= 0):
            raise DataError(f"checkpoint {path}: norm/std holds an entry <= 0")
        model.params = {n: arrays[f"initial/{n}"] for n in ishapes}
        return Checkpoint(denoiser={n: arrays[f"denoiser/{n}"] for n in dshapes},
                          initial=model, config=config,
                          stats=dt.NormStats(mean=arrays["norm/mean"], std=arrays["norm/std"]))
    except ConfigError as exc:
        # the bad input is the checkpoint's sidecar, not the run's config
        raise DataError(f"checkpoint {path} has an invalid sidecar config: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} is incomplete or malformed: {exc!r}") from exc
