"""Joint training of the rough-fill model and the residual denoiser.

One batch generator serves pretraining and joint training: windows are cut
at random offsets, artificial targets are drawn from the visible cells
(out-of-sample mode; always so in pretraining) or taken from the dataset's
annotated targets (in-sample mode), and a window is kept if it has a target
and a visible cell.  Pretraining fits the trainable fill alone on L_init;
with no joint epochs, ``train_joint`` is the ``pretrain`` command.
Per joint batch, the rough fill produces the residual target and condition,
a diffusion step and noise are drawn, and one Adam step is taken on

    L_joint = L_simple + lambda * L_init

with L_simple the masked mean squared noise error and L_init the rough-fill
error.  Gradients flow into the fill through the residual, the condition,
and L_init unless it is frozen.

The fill runs once per batch and stays one tape node.  The denoiser runs
over the batch in the calls of ``dn.call_slices`` at the budget of one
attention block, ``ad._BLOCK_BYTES``, smaller than the sampler's because a
taped call holds its whole graph.  A step's memory follows the call, not
the batch: on small graphs a call's attention is one block, and on large
ones a call is one window, whose attention backward recomputes the blocks
it no longer holds.  Each call is taped from fresh leaves, with its
windows' slice of the fill output as a leaf, and differentiated at once:
its loss is its share of L_simple (its squared error over the batch's
target count), its denoiser gradients add up over the calls, and its
gradient on the fill slice is kept.  One backward
through the fill then carries those kept gradients and lambda * L_init into
the fill's parameters, and one Adam step follows.

The fill's state is a plain dict of arrays (empty unless the strategy is
trainable); its strategy and width are read only from the config.
Everything is driven by one explicit RNG, so a fixed config and seed
reproduce checkpoints bit-exactly.

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
import numbers
import struct
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


# the values a config field takes, by the type of its default; a bool is
# an Integral, so only bool fields take one
_FIELD_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


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
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, _FIELD_KINDS[kind])):
                raise ConfigError(f"config key {f.name!r} expects {kind.__name__}, "
                                  f"got {value!r}")
            if kind is float:
                setattr(self, f.name, float(value))  # a JSON integer echoes as 1.0
            if f.name.endswith("seed") and value < 0:  # also RunConfig's mask_seed
                raise ConfigError(f"config key {f.name!r} must be >= 0, got {value}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"loss balance must be finite and nonnegative, got {self.lam}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.n_window < 1:
            raise ConfigError("window length must be >= 1")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.init_hidden < 1:
            raise ConfigError(f"rough-fill width must be >= 1, got {self.init_hidden}")
        if self.steps_per_hour < 1:
            raise ConfigError(f"steps per hour must be >= 1, got {self.steps_per_hour}")
        for name, allowed in (("strategy", ("node_mean", "interp_graph", "trainable")),
                              ("init_norm", ("l1", "l2")),
                              ("target_protocol", ("point", "block")),
                              ("mask_mode", ("in_sample", "out_of_sample"))):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"expected one of {', '.join(allowed)}")
        dt.check_target_draw(self.target_protocol, self.target_p, self.block_p,
                             (self.block_len_min, self.block_len_max))
        # the denoiser's own shape checks and the noise schedule's, here so
        # that a bad value fails before any training; neither involves the
        # node count
        self.denoiser_config(n_nodes=1)
        self.schedule()

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
    initial: dict[str, np.ndarray]  # laid out by _fill_shapes(config)
    stats: dt.NormStats  # one mean and std per node
    config: TrainConfig

    def __post_init__(self):
        want = _fill_shapes(self.config)
        for name in [*want, *sorted(self.initial.keys() - want.keys())]:
            got = np.shape(self.initial[name]) if name in self.initial else "no array"
            if got != want.get(name, "no array"):
                raise DataError(
                    f"initial/{name}: found {got}, the config's {self.config.strategy!r} "
                    f"fill of width {self.config.init_hidden} implies "
                    f"{want.get(name, 'no array')}")
        self.sched = self.config.schedule()

    @property
    def denoiser_config(self) -> dn.DenoiserConfig:
        return self.config.denoiser_config(len(self.stats.mean))


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list  # rows of (step, loss_simple, loss_init, loss_joint)
    pretrain_log: list  # the rough fill's pretraining loss per step


class Adam:
    """Standard adaptive first-order optimizer over a dict of arrays."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict, lr: float):
        self.lr = lr
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


def _fill_shapes(config: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every rough-fill array the config implies."""
    return ini.param_shapes(config.init_hidden) if config.strategy == "trainable" else {}


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
    return dt.draw_block_targets(visible, config.target_p, config.block_p,
                                 (config.block_len_min, config.block_len_max),
                                 config.steps_per_hour, rng)


def _batches(grid: dt.MaskedGrid, config: TrainConfig, epochs: int, rng,
             in_sample: bool = False):
    """Yield ``(values, cond_vis, target, window_phase)`` per training batch.

    Windows are cut at random offsets; the targets are the annotated eval
    cells (``in_sample``) or drawn from the visible cells, which then leave
    the condition.  A window is kept if it has a target and a visible cell.
    """
    n_window = config.n_window
    for _ in range(epochs):
        for starts in _window_batches(grid.shape[0], n_window, config.batch_size, rng):
            steps = starts[:, None] + np.arange(n_window)
            values, vis = grid.values[steps], grid.visible_mask[steps]
            if in_sample:
                target, cond_vis = grid.eval_mask[steps], vis
            else:
                target = _draw_targets(config, vis, rng)
                cond_vis = vis & ~target
            keep = target.any(axis=(1, 2)) & cond_vis.any(axis=(1, 2))
            if keep.any():
                # each window's phase in the denoiser's temporal table
                phase = steps % n_window
                yield values[keep], cond_vis[keep], target[keep], phase[keep]


def pretrain_initial(grid: dt.MaskedGrid, graph: dt.Graph, config: TrainConfig,
                     rng: np.random.Generator) -> tuple[dict, list]:
    """Fit the trainable rough fill on re-masked batches.

    A no-op that draws nothing for parameterless strategies; skipped when the
    config says so.  Returns the fill's arrays and the per-step loss trace.
    """
    if config.strategy != "trainable":
        return {}, []
    params = ini.init_trainable_params(config.init_hidden, rng)
    if config.skip_pretrain:
        return params, []
    adam = Adam(params, config.learning_rate)
    losses = []
    for values, cond_vis, target, _ in _batches(grid, config, config.pretrain_epochs, rng):
        leaves = ad.leaves(params)
        x_init = ini.impute_initial(values, cond_vis, graph, config.strategy, leaves)
        loss = ini.init_loss(x_init, values, target, config.init_norm)
        if not np.isfinite(loss.value):
            raise NumericError("non-finite pretraining loss")
        loss.backward()
        adam.step(params, ad.grads(leaves))
        losses.append(float(loss.value))
    return params, losses


def train_joint(grid: dt.MaskedGrid, graph: dt.Graph, config: TrainConfig) -> TrainResult:
    """Run the full two-stage training loop and return a checkpoint."""
    if not grid.observed_mask.any():
        raise DataError("training data has no observed cells")
    if config.mask_mode == "in_sample" and not grid.eval_mask.any():
        # in-sample training targets the eval cells; without any it would
        # run zero steps and write an untrained checkpoint
        raise DataError("mask mode in_sample trains on the eval cells, "
                        "and the training data has none")
    rng = np.random.default_rng(config.seed)

    grid_n, stats = dt.normalize(grid)
    sched = config.schedule()
    initial, pretrain_log = pretrain_initial(grid_n, graph, config, rng)

    dcfg = config.denoiser_config(grid.shape[1])
    dparams = dn.init_params(dcfg, rng)
    a_hat = dn.normalized_adjacency(graph.adjacency)

    train_initial = bool(initial) and not config.freeze_initial
    opt_params = {f"denoiser/{n}": arr for n, arr in dparams.items()}
    if train_initial:
        opt_params.update({f"initial/{n}": arr for n, arr in initial.items()})
    adam = Adam(opt_params, config.learning_rate)

    log = []
    batches = _batches(grid_n, config, config.epochs, rng,
                       in_sample=config.mask_mode == "in_sample")
    for step, (values, cond_vis, target, phase) in enumerate(batches):
        fill = ad.leaves(initial) if train_initial else initial
        x_init = ini.impute_initial(values, cond_vis, graph, config.strategy, fill)
        t_draw = rng.integers(1, config.t_steps + 1, size=len(values))
        eps = rng.standard_normal(values.shape)
        count = target.sum()

        ls, grads, d_x = 0.0, {}, np.empty_like(values)
        for win in dn.call_slices(values.shape, dcfg.head_count, ad._BLOCK_BYTES):
            x_win = ad.value_of(x_init)[win]
            if train_initial:
                x_win = ad.Tensor(x_win)
            z0m, z0c = ini.residual_and_condition(
                x_win, values[win], target[win], sign=config.residual_sign,
                no_residual=config.no_residual)
            z0c_fwd = np.zeros_like(values[win]) if config.no_cond_forward else z0c
            z_t = q_sample(z0m, z0c_fwd, t_draw[win], eps[win], sched, target[win])
            leaves = ad.leaves(dparams)
            net_out = dn.forward(leaves, dcfg, z_t, z0c, t_draw[win], a_hat, phase[win])
            loss = dn.masked_mse(net_out, z0m if config.predict_x0 else eps[win],
                                 target[win], count)
            ls += float(loss.value)
            if not math.isfinite(ls):
                break  # no backward and no Adam step on a non-finite loss
            loss.backward()
            for n, g in ad.grads(leaves).items():
                key = f"denoiser/{n}"
                grads[key] = grads[key] + g if key in grads else g
            if train_initial:
                d_x[win] = x_win.grad

        loss_init = ini.init_loss(x_init, values, target, config.init_norm)
        li = float(ad.value_of(loss_init))
        lj = ls + config.lam * li
        if not np.isfinite(lj):
            raise NumericError(f"non-finite joint loss at step {step}: "
                               f"simple={ls} init={li}")
        if train_initial:
            # one backward through the fill: the first term's gradient with
            # respect to x_init is exactly d_x, the denoiser losses' gradient
            ad.add(ad.sum_(ad.mul(x_init, d_x)), ad.mul(loss_init, config.lam)).backward()
            grads.update({f"initial/{n}": g for n, g in ad.grads(fill).items()})
        adam.step(opt_params, grads)
        log.append((step, ls, li, lj))

    ckpt = Checkpoint(denoiser=dparams, initial=initial, stats=stats, config=config)
    return TrainResult(checkpoint=ckpt, log=log, pretrain_log=pretrain_log)


# --------------------------------------------------------------------------
# Checkpoint container: versioned binary file plus a JSON sidecar holding the
# config and the node count, from which the schedule, the fill's strategy and
# every array's shape follow.  Header: magic, u32 version, u32 array count, then per
# array a u32 name length, the utf-8 name, u32 ndim and u64 dims; payload holds
# the float64 little-endian arrays in declared order.  Arrays the loader does
# not ask for are skipped, so files that still carry ``schedule/*`` arrays load.

_MAGIC = b"RSDFCKPT"
_FORMAT_VERSION = 1


def _checkpoint_arrays(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    arrays = {"norm/mean": ckpt.stats.mean, "norm/std": ckpt.stats.std}
    for n, arr in ckpt.denoiser.items():
        arrays[f"denoiser/{n}"] = arr
    for n in sorted(ckpt.initial):
        arrays[f"initial/{n}"] = ckpt.initial[n]
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
    dt.save_json(str(path) + ".json", sidecar)


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

    try:
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

        config = TrainConfig.from_dict(sidecar["config"])
        n_nodes = int(sidecar["n_nodes"])
        dshapes = dn.param_shapes(config.denoiser_config(n_nodes))
        shapes = {"norm/mean": (n_nodes,), "norm/std": (n_nodes,),
                  **{f"denoiser/{n}": shape for n, shape in dshapes.items()}}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise DataError(f"checkpoint {path}: {name} has shape "
                                f"{arrays[name].shape}, its sidecar implies {shape}")
        if np.any(arrays["norm/std"] <= 0):
            raise DataError(f"checkpoint {path}: norm/std holds an entry <= 0")
        return Checkpoint(denoiser={n: arrays[f"denoiser/{n}"] for n in dshapes},
                          initial={n: arrays[f"initial/{n}"] for n in _fill_shapes(config)},
                          config=config,
                          stats=dt.NormStats(mean=arrays["norm/mean"], std=arrays["norm/std"]))
    except ConfigError as exc:
        # the bad input is the checkpoint's sidecar, not the run's config
        raise DataError(f"checkpoint {path} has an invalid sidecar config: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"checkpoint {path} is incomplete or malformed: {exc!r}") from exc
