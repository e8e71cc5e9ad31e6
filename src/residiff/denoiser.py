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

Parameters are a plain name -> array dict laid out by ``param_shapes``.  The
forward pass is written against the polymorphic autodiff ops, so it runs
tape-free on that dict (inference) and tracked on ``ad.leaves`` of it
(training).
Identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError

__all__ = [
    "DenoiserConfig",
    "param_shapes",
    "init_params",
    "normalized_adjacency",
    "call_slices",
    "forward",
    "masked_mse",
]

# Budget for one attention score tensor per tape-free denoiser call: one
# core's L2 cache (2 MiB on a 2-core Xeon).  It bounds the working set of
# each op, whose operands then stay in cache (at 20 nodes, 100-window calls
# took 1.75x the time per window of 5-window calls).  What a tape-free call
# holds in scores is one block of ``ad._BLOCK_BYTES``, whatever its size; a
# taped call holds its whole graph, so training splits by that smaller budget.
_SCORE_BYTES = 2 * 2**20


def _windows_per_call(n_nodes: int, n_window: int, head_count: int,
                      budget: int = _SCORE_BYTES) -> int:
    """Windows per denoiser call that keep the larger score tensor, temporal
    (N, h, L, L) or spatial (L, h, N, N) per window, within ``budget`` bytes;
    never fewer than one."""
    per_window = 8 * head_count * n_window * n_nodes * max(n_window, n_nodes)
    return max(1, budget // per_window)


def call_slices(shape: tuple[int, int, int], head_count: int,
                budget: int = _SCORE_BYTES) -> list[slice]:
    """One slice per denoiser call over a (B, L, N) window batch, each of
    ``_windows_per_call`` windows for ``budget`` bytes of scores.  The
    sampler splits by ``_SCORE_BYTES``.  The trainer splits by
    ``ad._BLOCK_BYTES``, because a taped call holds its whole graph: a call's
    attention is then one block, which its backward need not recompute,
    and with 24-step windows and 4 heads a call is one window from 15 nodes
    up.  Below that it keeps several windows per call: at 5 nodes, taped
    one-window calls took about twice the time per window of 5-window
    calls."""
    b, l, n = shape
    step = _windows_per_call(n, l, head_count, budget)
    return [slice(lo, lo + step) for lo in range(0, b, step)]


@dataclass(frozen=True)
class DenoiserConfig:
    n_window: int
    n_nodes: int
    n_steps: int
    d: int = 32
    conv_width: int = 3
    head_count: int = 4

    def __post_init__(self):
        for name in ("d", "head_count", "conv_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.head_count != 0:
            raise ConfigError("embedding dim must be divisible by head count")
        if self.conv_width % 2 != 1:
            raise ConfigError("conv width must be odd (symmetric padding)")


_MATRICES = ("tem_wq", "tem_wk", "tem_wv", "tem_wo",
             "spa_wq", "spa_wk", "spa_wv", "spa_wo", "graph_weight")


def param_shapes(config: DenoiserConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every denoiser tensor, in checkpoint order."""
    d = config.d
    return {
        "conv_kernel": (config.conv_width, 2, d),
        "temporal_table": (config.n_window, d),
        "spatial_table": (config.n_nodes, d),
        "step_table": (config.n_steps, d),
        **{name: (d, d) for name in _MATRICES},
        "head": (d,),
    }


def init_params(config: DenoiserConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) for weights, +-0.02 for embedding tables.

    The d x d matrices are drawn first, then the kernel, tables and head;
    that draw order is what a seed's weights depend on.
    """
    shapes = param_shapes(config)

    def uniform(name, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shapes[name])

    p = {name: uniform(name, config.d) for name in _MATRICES}
    p["conv_kernel"] = uniform("conv_kernel", 2 * config.conv_width)
    for name in ("temporal_table", "spatial_table", "step_table"):
        p[name] = rng.uniform(-0.02, 0.02, size=shapes[name])
    p["head"] = uniform("head", config.d)
    return {name: p[name] for name in shapes}


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2}; self-loops keep each node's own signal."""
    a = np.asarray(adjacency, dtype=np.float64) + np.eye(adjacency.shape[0])
    deg = a.sum(axis=1)
    inv_root = 1.0 / np.sqrt(deg)
    return a * inv_root[:, None] * inv_root[None, :]


def _attention(z, p, prefix: str, heads: int):
    """Multi-head self-attention along time (prefix 'tem') or nodes ('spa').

    Sequences are moved into the trailing two axes, where ``ad.attention``
    runs softmax(q kᵀ) v as one op; its context comes back in the memory
    order of the projections, so the inverse transpose and the flattening
    reshape before the output projection copy nothing.
    """
    b, l, n, d = z.shape
    dh = d // heads
    # projections as one flat GEMM, then (B, L, N, h, dh) -> (B, seq-batch, h, seq, dh)
    perm = (0, 2, 3, 1, 4) if prefix == "tem" else (0, 1, 3, 2, 4)
    flat = ad.reshape(z, (b * l * n, d))

    def proj(name, scale=None):
        out = ad.matmul(flat, p[f"{prefix}_{name}"])
        if scale is not None:
            out = ad.mul(out, scale)
        return ad.transpose(ad.reshape(out, (b, l, n, heads, dh)), perm)

    # the score scale rides on Q, cheaper than scaling the score tensor
    q = proj("wq", 1.0 / np.sqrt(dh))
    k, v = proj("wk"), proj("wv")
    ctx = ad.transpose(ad.attention(q, k, v), np.argsort(perm))
    del q, k, v  # freed before the output projection allocates
    out = ad.matmul(ad.reshape(ctx, (b * l * n, d)), p[f"{prefix}_wo"])
    return ad.reshape(out, (b, l, n, d))


def _embed(p, config: DenoiserConfig, z_t, z0c, t: np.ndarray, time_index: np.ndarray):
    """Convolution over the [condition, state] stack, tanh, and the three
    additive embeddings: the (B, L, N, d) input of the first attention."""
    b, l, n = z_t.shape
    x = ad.stack_last(z0c, z_t)  # (B, L, N, 2)
    half = config.conv_width // 2
    xp = ad.pad(x, ((0, 0), (half, half), (0, 0), (0, 0)))
    ef = None
    for k in range(config.conv_width):
        term = ad.matmul(xp[:, k : k + l], p["conv_kernel"][k])
        ef = term if ef is None else ad.add(ef, term)
    ef = ad.tanh(ef)

    d = config.d
    tem = ad.reshape(ad.take_rows(p["temporal_table"], time_index), (b, l, 1, d))
    spa = ad.reshape(p["spatial_table"], (1, 1, n, d))
    step = ad.reshape(ad.take_rows(p["step_table"], t - 1), (b, 1, 1, d))
    return ad.add(ad.add(ad.add(ef, tem), spa), step)


def forward(p, config: DenoiserConfig, z_t, z0c, t, a_hat: np.ndarray, time_index=None):
    """Noise estimate for batched grids (B, L, N); t is step 1..T per item.

    ``p`` maps each name of ``param_shapes`` to an ndarray (tape-free) or to
    an autodiff Tensor (training).
    """
    b, l, n = z_t.shape
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

    # each activation is dropped once the next layer has read it; the tape
    # still keeps whatever its gradient functions read
    z = _embed(p, config, z_t, z0c, t, time_index)
    z = ad.add(z, _attention(z, p, "tem", config.head_count))
    z = ad.add(z, ad.tanh(ad.matmul(ad.matmul(a_hat, z), p["graph_weight"])))
    z = ad.add(z, _attention(z, p, "spa", config.head_count))
    d = config.d
    # one matrix-vector product per window, so that a window's output does
    # not depend on the other windows in its call; BLAS sends the last
    # ``rows mod 4`` rows of a product through another kernel
    head = ad.reshape(p["head"], (d, 1))
    out = ad.matmul(ad.reshape(z, (b, l * n, d)), head)
    return ad.reshape(out, (b, l, n))


def _masked_mean(per_cell, target_mask: np.ndarray, count=None):
    """Sum of ``per_cell`` over target cells, divided by ``count``.

    ``count`` defaults to the number of target cells, which makes this the
    mean; a batch run in parts passes each part the whole batch's count, so
    the parts' losses add up to the batch's mean.  A zero count is a DataError.
    """
    mask = np.asarray(target_mask, dtype=np.float64)
    if count is None:
        count = mask.sum()
    if count == 0:
        raise DataError("empty target mask: the masked mean is undefined")
    return ad.mul(ad.sum_(ad.mul(per_cell, mask)), 1.0 / count)


def masked_mse(pred, target: np.ndarray, target_mask: np.ndarray, count=None):
    """Masked mean of (target - pred)^2; ``count`` as in ``_masked_mean``."""
    diff = ad.sub(target, pred)
    return _masked_mean(ad.mul(diff, diff), target_mask, count)
