"""Stage-one deterministic imputation producing the rough fill.

Three strategies share one contract: the output equals the input exactly on
visible cells and is a finite deterministic fill elsewhere.

  node_mean    per-node mean of visible cells (global mean fallback)
  interp_graph temporal linear interpolation per node; fully missing nodes
               take the normalized-adjacency-weighted average of the others
  trainable    a light bidirectional recurrent cell per node with one graph
               hop per direction; differentiable so joint training can push
               gradients into it

The residual convention: the diffusion target is fill - truth on target
cells, and the final imputation is fill - sampled_residual, so a perfectly
recovered residual returns the truth exactly.  A config flag elsewhere flips
the sign of both at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .denoiser import normalized_adjacency
from .errors import ConfigError, DataError

__all__ = [
    "InitialModel",
    "init_trainable_params",
    "impute_initial",
    "node_mean_fill",
    "interp_graph_fill",
    "trainable_fill",
    "residual_and_condition",
    "init_loss",
]

@dataclass
class InitialModel:
    strategy: str = "node_mean"
    hidden: int = 16
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.strategy not in ("node_mean", "interp_graph", "trainable"):
            raise ConfigError(f"unknown initial strategy {self.strategy!r}")

    @property
    def trainable(self) -> bool:
        return self.strategy == "trainable"


def init_trainable_params(hidden: int, rng: np.random.Generator) -> dict:
    """Uniform +-1/sqrt(fan_in) weights, zero biases, per direction."""
    params: dict[str, np.ndarray] = {}
    for prefix in ("fwd", "bwd"):
        params[f"{prefix}_w_x"] = rng.uniform(-1.0, 1.0, size=hidden)
        params[f"{prefix}_w_m"] = rng.uniform(-1.0, 1.0, size=hidden)
        bound = 1.0 / np.sqrt(hidden)
        params[f"{prefix}_W_h"] = rng.uniform(-bound, bound, size=(hidden, hidden))
        params[f"{prefix}_b_h"] = np.zeros(hidden)
        params[f"{prefix}_w_p"] = rng.uniform(-bound, bound, size=hidden)
        params[f"{prefix}_w_q"] = rng.uniform(-bound, bound, size=hidden)
        params[f"{prefix}_b_p"] = np.zeros(1)
    return params


def node_mean_fill(values: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """Fill every non-visible cell with its node's visible mean."""
    if not visible.any():
        raise DataError("cannot impute a grid with no visible cells")
    fill = np.empty(values.shape[1])
    global_mean = values[visible].mean()
    for j in range(values.shape[1]):
        col = values[visible[:, j], j]
        fill[j] = col.mean() if col.size else global_mean
    return np.where(visible, values, fill[None, :])


def interp_graph_fill(values: np.ndarray, visible: np.ndarray,
                      adjacency: np.ndarray) -> np.ndarray:
    """Linear interpolation in time per node; graph average for empty nodes."""
    if not visible.any():
        raise DataError("cannot impute a grid with no visible cells")
    L, n = values.shape
    out = values.copy()
    idx = np.arange(L)
    empty = []
    for j in range(n):
        vis = visible[:, j]
        if not vis.any():
            empty.append(j)
            continue
        out[:, j] = np.interp(idx, idx[vis], values[vis, j])
    global_mean = values[visible].mean()
    for j in empty:
        w = adjacency[j].astype(np.float64).copy()
        w[empty] = 0.0
        s = w.sum()
        out[:, j] = out @ (w / s) if s > 0 else global_mean
    return np.where(visible, values, out)


def trainable_fill(p, hidden: int, values, visible: np.ndarray, mix: np.ndarray):
    """Bidirectional recurrent fill; ``p`` holds tensors by name lookup.

    Per direction, the cell consumes the visible value (its own running
    prediction where hidden), updates a per-node hidden state, takes one
    graph hop, and predicts the next value from the previous state.  The two
    directions are averaged and merged with the visible cells.
    """
    b, L, n = values.shape
    vis = np.asarray(visible, dtype=np.float64)
    preds = {}
    for prefix, order in (("fwd", range(L)), ("bwd", range(L - 1, -1, -1))):
        w_x, w_m = p[f"{prefix}_w_x"], p[f"{prefix}_w_m"]
        W_h, b_h = p[f"{prefix}_W_h"], p[f"{prefix}_b_h"]
        w_p, w_q, b_p = p[f"{prefix}_w_p"], p[f"{prefix}_w_q"], p[f"{prefix}_b_p"]
        h = np.zeros((b, n, hidden))
        step_preds = [None] * L
        for i in order:
            hop = ad.einsum2("mn,bnh->bmh", mix, h)
            pred = ad.add(
                ad.add(ad.einsum2("bnh,h->bn", h, w_p), ad.einsum2("bnh,h->bn", hop, w_q)),
                b_p,
            )
            step_preds[i] = pred
            m_i = vis[:, i]
            v_i = ad.add(ad.mul(m_i, values[:, i]), ad.mul(1.0 - m_i, pred))
            pre = ad.add(
                ad.add(
                    ad.mul(ad.reshape(v_i, (b, n, 1)), w_x),
                    ad.mul(m_i.reshape(b, n, 1), w_m),
                ),
                ad.add(ad.matmul(h, W_h), b_h),
            )
            h = ad.tanh(pre)
        preds[prefix] = ad.stack_seq(step_preds, axis=1)
    x_hat = ad.mul(ad.add(preds["fwd"], preds["bwd"]), 0.5)
    x_obs = ad.mul(values, vis)
    return ad.add(x_obs, ad.mul(x_hat, 1.0 - vis))


def impute_initial(values, visible, graph, model: InitialModel, params=None):
    """Deterministic fill of every non-visible cell of (B, L, N) windows.

    ``params`` overrides the trainable model's arrays, e.g. with
    ``ad.leaves`` of them so the fill is differentiable; the result is then
    a Tensor.
    """
    adj = getattr(graph, "adjacency", graph)
    if model.trainable:
        p = model.params if params is None else params
        return trainable_fill(p, model.hidden, values, visible, normalized_adjacency(adj))
    out = np.empty_like(values)
    for i in range(values.shape[0]):
        if model.strategy == "node_mean":
            out[i] = node_mean_fill(values[i], visible[i])
        else:
            out[i] = interp_graph_fill(values[i], visible[i], adj)
    return out


def residual_and_condition(x_init, values, target_mask, observed_mask=None,
                           training: bool = True, sign: float = 1.0,
                           no_residual: bool = False):
    """Residual target and condition on target cells (zero elsewhere).

    residual = sign * (fill - truth) with fill = x_init, or zero under
    ``no_residual`` (the target is then the data itself); condition =
    x_init.  Arrays in, arrays out; Tensors in, Tensors out.  In training
    mode every target cell must carry ground truth (be observed).
    """
    mask = np.asarray(target_mask, dtype=bool)
    if training:
        if observed_mask is not None and np.any(mask & ~np.asarray(observed_mask, dtype=bool)):
            raise DataError("target cells must have ground truth during training")
        if values is None:
            raise DataError("training mode requires ground-truth values")
    maskf = mask.astype(np.float64)
    z0c = ad.mul(x_init, maskf)
    if values is None:
        return None, z0c
    fill = np.zeros_like(values) if no_residual else x_init
    z0m = ad.mul(ad.mul(ad.sub(fill, values), maskf), sign)
    return z0m, z0c


def init_loss(x_init, values, target_mask, norm: str = "l1"):
    """Mean absolute (or squared) rough-fill error over target cells."""
    mask = np.asarray(target_mask, dtype=np.float64)
    count = mask.sum()
    if count == 0:
        raise DataError("empty target mask")
    diff = ad.sub(x_init, values)
    if norm == "l1":
        per_cell = ad.absolute(diff)
    elif norm == "l2":
        per_cell = ad.mul(diff, diff)
    else:
        raise ConfigError(f"unknown norm {norm!r}")
    return ad.mul(ad.sum_(ad.mul(per_cell, mask)), 1.0 / count)
