"""Stage-one deterministic imputation producing the rough fill.

Three strategies share one contract: the output equals the input exactly on
visible cells and is a finite deterministic fill elsewhere.

  node_mean    per-node mean of visible cells (global mean fallback)
  interp_graph temporal linear interpolation per node; fully missing nodes
               take the normalized-adjacency-weighted average of the others
  trainable    a light bidirectional recurrent cell per node with one graph
               hop per direction; differentiable so joint training can push
               gradients into it.  The whole recurrence is one tape node
               whose backward is a hand-written backpropagation through
               time; ``oracle.trainable_fill_reference`` is the same fill
               unrolled op by op, which the tests hold it to

A strategy is a name and its state a plain dict of arrays: laid out by
``param_shapes`` for the trainable fill, empty for the other two.

The residual convention: the diffusion target is fill - truth on target
cells, and the final imputation is fill - sampled_residual, so a perfectly
recovered residual returns the truth exactly.  A config flag elsewhere flips
the sign of both at once.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import data as dt
from .denoiser import _masked_mean, normalized_adjacency
from .errors import ConfigError, DataError

__all__ = [
    "param_shapes",
    "init_trainable_params",
    "impute_initial",
    "node_mean_fill",
    "interp_graph_fill",
    "trainable_fill",
    "residual_and_condition",
    "init_loss",
]


def param_shapes(hidden: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every trainable-fill tensor, in draw order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix in ("fwd", "bwd"):
        shapes.update({
            f"{prefix}_w_x": (hidden,), f"{prefix}_w_m": (hidden,),
            f"{prefix}_W_h": (hidden, hidden), f"{prefix}_b_h": (hidden,),
            f"{prefix}_w_p": (hidden,), f"{prefix}_w_q": (hidden,),
            f"{prefix}_b_p": (1,),
        })
    return shapes


def init_trainable_params(hidden: int, rng: np.random.Generator) -> dict:
    """Zero biases; uniform +-1 for the scalar-input weights w_x and w_m,
    +-1/sqrt(hidden) for the rest; drawn in ``param_shapes`` order."""
    bound = 1.0 / np.sqrt(hidden)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(hidden).items():
        kind = name.split("_", 1)[1]
        if kind.startswith("b_"):
            params[name] = np.zeros(shape)
        else:
            scale = 1.0 if kind in ("w_x", "w_m") else bound
            params[name] = rng.uniform(-scale, scale, size=shape)
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


def _hop(mix: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One graph hop, ``einsum("mn,bnh->bmh", mix, h, optimize=True)``.

    Written out as the transpose, GEMM and transposed view that numpy's
    einsum runs, so the values match it bit for bit without its per-call
    path search; the readout of this non-contiguous view then matches too.
    """
    b, n, k = h.shape
    return (h.transpose(0, 2, 1).reshape(b * k, n) @ mix.T).reshape(b, k, n).transpose(0, 2, 1)


def _readout(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``einsum("bnh,h->bn", h, w, optimize=True)``, written out like ``_hop``."""
    b, n, k = h.shape
    return (w.reshape(1, k) @ h.transpose(2, 0, 1).reshape(k, b * n)).reshape(b, n)


def _recur(q: dict, order, values: np.ndarray, vis: np.ndarray, mix: np.ndarray):
    """One direction of the recurrence over time steps ``order``.

    Returns the (B, L, N) predictions, the hidden states ``hs`` (``hs[s]``
    enters step s, ``hs[s + 1]`` is its tanh output) and each step's
    consumed value ``v``, which the backward pass reads.
    """
    b, L, n = values.shape
    w_x, w_m, W_h, b_h = q["w_x"], q["w_m"], q["W_h"], q["b_h"]
    w_p, w_q, b_p = q["w_p"], q["w_q"], q["b_p"]
    hs = [np.zeros((b, n, W_h.shape[0]))]
    vs = []
    preds = [None] * L
    for i in order:
        h = hs[-1]
        pred = (_readout(h, w_p) + _readout(_hop(mix, h), w_q)) + b_p
        preds[i] = pred
        m_i = vis[:, i]
        v_i = m_i * values[:, i] + (1.0 - m_i) * pred
        pre = (v_i.reshape(b, n, 1) * w_x + m_i.reshape(b, n, 1) * w_m) + (h @ W_h + b_h)
        vs.append(v_i)
        hs.append(np.tanh(pre))
    return np.stack(preds, axis=1), hs, vs


def _bptt(q: dict, order, hs: list, vs: list, vis: np.ndarray, mix: np.ndarray,
          d_pred: np.ndarray) -> dict:
    """Backpropagation through time for one direction of ``_recur``.

    ``d_pred`` is the loss gradient of its (B, L, N) predictions.  Only the
    hidden-state gradient is carried step by step; each parameter's
    gradient is then one contraction over all steps.
    """
    W_h, w_x, w_p, w_q = q["W_h"], q["w_x"], q["w_p"], q["w_q"]
    k = W_h.shape[0]
    steps = len(hs) - 1
    m = np.moveaxis(vis[:, list(order)], 1, 0)        # (steps, B, N)
    d_pre = np.empty((steps,) + hs[0].shape)
    d_out = np.empty(m.shape)
    d_hop = np.empty(m.shape)
    d_h = np.zeros_like(hs[0])                        # the last state feeds nothing
    for s in range(steps - 1, -1, -1):
        dp = d_pre[s] = d_h * (1.0 - hs[s + 1] * hs[s + 1])           # tanh
        do = d_out[s] = d_pred[:, order[s]] + (dp @ w_x) * (1.0 - m[s])  # v = m x + (1 - m) pred
        dm = d_hop[s] = do @ mix                                        # graph hop
        d_h = dp @ W_h.T + do[..., None] * w_p + dm[..., None] * w_q
    d_pre = d_pre.reshape(-1, k)
    d_out = d_out.reshape(-1)
    h_in = np.stack(hs[:-1]).reshape(-1, k)
    return {
        "w_x": np.stack(vs).reshape(-1) @ d_pre, "w_m": m.reshape(-1) @ d_pre,
        "W_h": h_in.T @ d_pre, "b_h": d_pre.sum(axis=0),
        "w_p": d_out @ h_in, "w_q": d_hop.reshape(-1) @ h_in,
        "b_p": d_out.sum(keepdims=True),
    }


def trainable_fill(p, values, visible: np.ndarray, mix: np.ndarray):
    """Bidirectional recurrent fill; ``p`` holds tensors by name lookup, laid
    out by ``param_shapes`` of the width of ``fwd_W_h``; ``values`` and
    ``visible`` are plain (B, L, N) arrays.

    Per direction, the cell consumes the visible value (its own running
    prediction where hidden), updates a per-node hidden state, takes one
    graph hop, and predicts the next value from the previous state.  The two
    directions are averaged and merged with the visible cells.

    The whole recurrence is one tape node over the parameters in ``p``:
    the forward runs tape-free, and the node's gradients come from one
    backpropagation-through-time pass over its stored states, shared by
    all parameters and run once per output gradient.
    """
    values = np.asarray(values, dtype=np.float64)
    vis = np.asarray(visible, dtype=np.float64)
    L = values.shape[1]
    names = list(param_shapes(ad.value_of(p["fwd_W_h"]).shape[0]))
    orders = {"fwd": range(L), "bwd": range(L - 1, -1, -1)}
    qs = {prefix: {name.split("_", 1)[1]: ad.value_of(p[name])
                   for name in names if name.startswith(prefix)} for prefix in orders}
    runs = {prefix: _recur(qs[prefix], order, values, vis, mix)
            for prefix, order in orders.items()}
    x_hat = (runs["fwd"][0] + runs["bwd"][0]) * 0.5
    out = values * vis + x_hat * (1.0 - vis)

    cache = {}

    def grads_for(g):
        if cache.get("g") is not g:
            d_pred = g * (1.0 - vis) * 0.5
            cache.clear()
            cache["g"] = g
            for prefix, order in orders.items():
                _, hs, vs = runs[prefix]
                for kind, grad in _bptt(qs[prefix], order, hs, vs, vis, mix, d_pred).items():
                    cache[f"{prefix}_{kind}"] = grad
        return cache

    return ad._node(out, [p[name] for name in names],
                    [lambda g, name=name: grads_for(g)[name] for name in names])


def impute_initial(values, visible, graph: dt.Graph, strategy: str, params: dict):
    """Deterministic fill of every non-visible cell of (B, L, N) windows.

    ``params`` holds the trainable fill's arrays (empty for the other
    strategies); given as ``ad.leaves`` of them, the fill is differentiable
    and the result is a Tensor.
    """
    if strategy == "trainable":
        return trainable_fill(params, values, visible, normalized_adjacency(graph.adjacency))
    if strategy not in ("node_mean", "interp_graph"):
        raise ConfigError(f"unknown initial strategy {strategy!r}")
    out = np.empty_like(values)
    for i in range(values.shape[0]):
        out[i] = (node_mean_fill(values[i], visible[i]) if strategy == "node_mean"
                  else interp_graph_fill(values[i], visible[i], graph.adjacency))
    return out


def residual_and_condition(x_init, values, target_mask, sign: float = 1.0,
                           no_residual: bool = False):
    """Residual target and condition on target cells (zero elsewhere).

    residual = sign * (fill - truth) with fill = x_init, or zero under
    ``no_residual`` (the target is then the data itself); condition =
    x_init.  Arrays in, arrays out; Tensors in, Tensors out.
    """
    maskf = np.asarray(target_mask, dtype=np.float64)
    z0c = ad.mul(x_init, maskf)
    fill = np.zeros_like(values) if no_residual else x_init
    z0m = ad.mul(ad.mul(ad.sub(fill, values), maskf), sign)
    return z0m, z0c


def init_loss(x_init, values, target_mask, norm: str = "l1"):
    """Mean absolute (or squared) rough-fill error over target cells."""
    diff = ad.sub(x_init, values)
    if norm == "l1":
        per_cell = ad.absolute(diff)
    elif norm == "l2":
        per_cell = ad.mul(diff, diff)
    else:
        raise ConfigError(f"unknown norm {norm!r}")
    return _masked_mean(per_cell, target_mask)
