"""Noise-prediction network over time x node grids.

Pipeline (residual connections around each attention/graph block):

  1. 1D convolution along time over the 2-channel stack [condition, state],
     followed by tanh.
  2. Additive embeddings: time-of-window table, node table, diffusion-step
     table.
  3. Multi-head self-attention along time, per node.
  4. Graph propagation with the symmetrically normalized adjacency
     (self-loops added), linear map, tanh.
  5. Multi-head self-attention along nodes, per time step.
  6. Linear head projecting the embedding to one scalar per cell.

The forward pass is written against the polymorphic autodiff ops, so it runs
tape-free on ndarrays (inference) and tracked on Tensors (training).
Identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

__all__ = [
    "DenoiserConfig",
    "DenoiserParams",
    "init_params",
    "normalized_adjacency",
    "forward",
    "predict_eps",
    "loss_and_grads",
    "batch_loss",
]


@dataclass(frozen=True)
class DenoiserConfig:
    n_window: int
    n_nodes: int
    n_steps: int
    d: int = 32
    conv_width: int = 3
    head_count: int = 4

    def __post_init__(self):
        if self.d % self.head_count != 0:
            raise ConfigError("embedding dim must be divisible by head count")
        if self.conv_width % 2 != 1:
            raise ConfigError("conv width must be odd (symmetric padding)")


_TENSOR_NAMES = (
    "conv_kernel",
    "temporal_table",
    "spatial_table",
    "step_table",
    "tem_wq",
    "tem_wk",
    "tem_wv",
    "tem_wo",
    "spa_wq",
    "spa_wk",
    "spa_wv",
    "spa_wo",
    "graph_weight",
    "head",
)


@dataclass
class DenoiserParams:
    """All trainable tensors, float64, shapes fixed by the config."""

    config: DenoiserConfig
    conv_kernel: np.ndarray
    temporal_table: np.ndarray
    spatial_table: np.ndarray
    step_table: np.ndarray
    tem_wq: np.ndarray
    tem_wk: np.ndarray
    tem_wv: np.ndarray
    tem_wo: np.ndarray
    spa_wq: np.ndarray
    spa_wk: np.ndarray
    spa_wv: np.ndarray
    spa_wo: np.ndarray
    graph_weight: np.ndarray
    head: np.ndarray

    @staticmethod
    def tensor_names() -> tuple[str, ...]:
        return _TENSOR_NAMES

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(
            self.config, *(getattr(self, n).copy() for n in _TENSOR_NAMES)
        )


def init_params(config: DenoiserConfig, rng: np.random.Generator) -> DenoiserParams:
    """Uniform +-1/sqrt(fan_in) for weights, +-0.02 for embedding tables."""
    d, w = config.d, config.conv_width

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def table(shape):
        return rng.uniform(-0.02, 0.02, size=shape)

    mats = {name: uniform((d, d), d) for name in _TENSOR_NAMES[4:13]}
    return DenoiserParams(
        config=config,
        conv_kernel=uniform((w, 2, d), 2 * w),
        temporal_table=table((config.n_window, d)),
        spatial_table=table((config.n_nodes, d)),
        step_table=table((config.n_steps, d)),
        head=uniform((d,), d),
        **mats,
    )


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2}; self-loops keep each node's own signal."""
    a = np.asarray(adjacency, dtype=np.float64) + np.eye(adjacency.shape[0])
    deg = a.sum(axis=1)
    inv_root = 1.0 / np.sqrt(deg)
    return a * inv_root[:, None] * inv_root[None, :]


def _lift(grid):
    """Normalize a grid to (B, L, N); report whether it was unbatched."""
    v = grid.value if isinstance(grid, ad.Tensor) else np.asarray(grid)
    if v.ndim == 2:
        return ad.reshape(grid, (1,) + v.shape), True
    return grid, False


def _attention(z, wq, wk, wv, wo, heads: int, axis: str):
    """Multi-head self-attention along time (axis='time') or nodes ('space').

    Sequences are moved into the trailing two axes so the contractions run
    through batched matmul.
    """
    b, l, n, d = (z.value if isinstance(z, ad.Tensor) else z).shape
    dh = d // heads
    # projections as one flat GEMM, then (B, L, N, h, dh) -> (B, seq-batch, h, seq, dh)
    perm = (0, 2, 3, 1, 4) if axis == "time" else (0, 1, 3, 2, 4)
    flat = ad.reshape(z, (b * l * n, d))

    def proj(w, scale=None):
        p = ad.matmul(flat, w)
        if scale is not None:
            p = ad.mul(p, scale)
        return ad.transpose(ad.reshape(p, (b, l, n, heads, dh)), perm)

    # the score scale rides on Q, cheaper than scaling the score tensor
    q = proj(wq, 1.0 / np.sqrt(dh))
    k, v = proj(wk), proj(wv)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 2, 4, 3)))
    attn = ad.softmax(scores, axis=-1)
    ctx = ad.transpose(ad.matmul(attn, v), np.argsort(perm))
    out = ad.matmul(ad.reshape(ctx, (b * l * n, d)), wo)
    return ad.reshape(out, (b, l, n, d))


def forward(p, config: DenoiserConfig, z_t, z0c, t, a_hat: np.ndarray, time_index=None):
    """Noise estimate for batched grids (B, L, N); t is step 1..T per item.

    ``p`` supplies the parameter tensors by attribute (either a
    DenoiserParams of ndarrays or a namespace of autodiff Tensors).
    """
    z_t, _ = _lift(z_t)
    z0c, _ = _lift(z0c)
    v = z_t.value if isinstance(z_t, ad.Tensor) else z_t
    b, l, n = v.shape
    if n != config.n_nodes:
        raise ValueError(f"expected {config.n_nodes} nodes, got {n}")
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if np.any(t < 1) or np.any(t > config.n_steps):
        raise IndexError(f"step outside 1..{config.n_steps}")
    if t.shape == (1,) and b > 1:
        t = np.full(b, t[0])
    if time_index is None:
        time_index = np.arange(l) % config.n_window
    time_index = np.asarray(time_index, dtype=np.int64)
    if time_index.ndim == 1:
        time_index = np.broadcast_to(time_index, (b, l))

    x = ad.stack_last(z0c, z_t)  # (B, L, N, 2)
    half = config.conv_width // 2
    xp = ad.pad(x, ((0, 0), (half, half), (0, 0), (0, 0)))
    ef = None
    for k in range(config.conv_width):
        term = ad.matmul(xp[:, k : k + l], p.conv_kernel[k])
        ef = term if ef is None else ad.add(ef, term)
    ef = ad.tanh(ef)

    d = config.d
    tem = ad.reshape(ad.take_rows(p.temporal_table, time_index), (b, l, 1, d))
    spa = ad.reshape(p.spatial_table, (1, 1, n, d))
    step = ad.reshape(ad.take_rows(p.step_table, t - 1), (b, 1, 1, d))
    z = ad.add(ad.add(ad.add(ef, tem), spa), step)

    z = ad.add(z, _attention(z, p.tem_wq, p.tem_wk, p.tem_wv, p.tem_wo,
                             config.head_count, "time"))
    gz = ad.matmul(ad.matmul(a_hat, z), p.graph_weight)
    z = ad.add(z, ad.tanh(gz))
    z = ad.add(z, _attention(z, p.spa_wq, p.spa_wk, p.spa_wv, p.spa_wo,
                             config.head_count, "space"))
    return ad.einsum2("blnd,d->bln", z, p.head)


def predict_eps(params: DenoiserParams, z_t, z0c, t, graph, time_index=None) -> np.ndarray:
    """Tape-free noise prediction; returns an array shaped like the input."""
    adj = getattr(graph, "adjacency", graph)
    a_hat = normalized_adjacency(adj)
    z = np.asarray(z_t, dtype=np.float64)
    unbatched = z.ndim == 2
    out = forward(params, params.config, z, np.asarray(z0c, dtype=np.float64),
                  t, a_hat, time_index)
    out = np.asarray(out)
    return out[0] if unbatched else out


def wrap_params(params: DenoiserParams) -> SimpleNamespace:
    """Fresh Tensor leaves for one training step."""
    return SimpleNamespace(
        **{n: ad.Tensor(getattr(params, n)) for n in _TENSOR_NAMES}
    )


def masked_mse(pred, target: np.ndarray, target_mask: np.ndarray):
    """Mean over target cells of (target - pred)^2; error on an empty mask."""
    mask = np.asarray(target_mask, dtype=np.float64)
    count = mask.sum()
    if count == 0:
        raise ValueError("empty target mask: mean squared error undefined")
    diff = ad.sub(target, pred)
    return ad.mul(ad.sum_(ad.mul(ad.mul(diff, diff), mask)), 1.0 / count)


def loss_and_grads(params: DenoiserParams, graph, z_t, z0c, t, eps, target_mask,
                   time_index=None):
    """Masked mean-squared noise error and gradients for every tensor."""
    adj = getattr(graph, "adjacency", graph)
    a_hat = normalized_adjacency(adj)
    pt = wrap_params(params)
    eps_hat = forward(pt, params.config, z_t, z0c, t, a_hat, time_index)
    loss = masked_mse(eps_hat, np.asarray(eps, dtype=np.float64), target_mask)
    loss.backward()
    grads = {
        n: (getattr(pt, n).grad
            if getattr(pt, n).grad is not None
            else np.zeros_like(getattr(params, n)))
        for n in _TENSOR_NAMES
    }
    return float(loss.value), grads


def batch_loss(params: DenoiserParams, graph, z_t, z0c, t, eps, target_mask,
               time_index=None) -> float:
    """Loss only, computed on the tape-free path (finite-difference probes)."""
    adj = getattr(graph, "adjacency", graph)
    a_hat = normalized_adjacency(adj)
    eps_hat = forward(params, params.config, z_t, z0c, t, a_hat, time_index)
    return float(masked_mse(eps_hat, np.asarray(eps, dtype=np.float64), target_mask))
