"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Every operation here is polymorphic: given plain ndarrays it returns a plain
ndarray (fast inference path, no tape), and as soon as one operand is a
:class:`Tensor` the result is a Tensor carrying one gradient function per
Tensor operand.  The same forward code therefore serves both gradient-tracked
training and tape-free evaluation, which keeps finite-difference auditing
cheap.

Parameters travel as plain name -> array dicts.  ``leaves`` wraps such a dict
as fresh Tensor leaves for one taped evaluation, and after ``backward``
``grads`` reads their gradients back under the same names.

The tape is made of value-free nodes: a Tensor pairs its value with its
node, and a node links to its parents' nodes and holds one gradient function
per parent.  A gradient function keeps only what its formula reads (shapes,
or the operand values and outputs it multiplies by), so an interior value
lives only while the caller holds its Tensor or a gradient function reads
it; the tape keeps no value for its own sake.

``backward`` consumes the tape it walks: each interior node drops its
gradient and its links to its parents as soon as it has passed the gradient
on, so a training step never holds more than the graph it is differentiating.
Leaves keep their gradients.  To differentiate again, build the graph again;
a second ``backward`` through a consumed node raises ``RuntimeError``.

The engine is deliberately small: only the primitives needed by the models in
this package are implemented.  All values are float64; gradients accumulate
by summation in a fixed topological order, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "value_of",
    "leaves",
    "grads",
    "add",
    "sub",
    "mul",
    "absolute",
    "tanh",
    "matmul",
    "attention",
    "sum_",
    "reshape",
    "transpose",
    "pad",
    "index",
    "take_rows",
    "stack_last",
]


class _Node:
    """A tape entry, holding no value: the gradient accumulated so far, the
    nodes of the Tensor operands and, per operand, the function mapping the
    output gradient to that operand's gradient.
    """

    __slots__ = ("grad", "parents", "grad_fns")

    def __init__(self, parents=(), grad_fns=()):
        self.grad = None
        self.parents = parents
        self.grad_fns = grad_fns


class Tensor:
    """A value and its tape node.

    The node links to its parents' nodes, not to their Tensors, so an
    interior value lives only while the caller holds its Tensor or a
    gradient function reads it.
    """

    __slots__ = ("value", "node")

    # keep numpy from consuming Tensors in mixed expressions: ndarray * Tensor
    # raises TypeError instead of building an object array
    __array_ufunc__ = None

    def __init__(self, value, node=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.node = _Node() if node is None else node

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        return self.node.grad

    def backward(self):
        """Run reverse accumulation seeding this (scalar) node with grad 1.

        Backward consumes the tape.  Once an interior node has passed its
        gradient to its parents, its gradient, parents and gradient
        functions are dropped, so the arrays only they held are freed while
        the walk goes on; afterwards only leaves hold a gradient.  A later
        ``backward`` that reaches a consumed node raises ``RuntimeError``.
        """
        root = self.node
        order: list[_Node] = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.grad_fns is None:
                raise RuntimeError("graph already consumed by backward; "
                                   "build it again to differentiate again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        root.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if not node.parents:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                for parent, grad_fn in zip(node.parents, node.grad_fns):
                    g = grad_fn(node.grad)
                    parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = None
            node.parents = ()
            node.grad_fns = None

    def __getitem__(self, idx):
        return index(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def value_of(x):
    """Unwrap a Tensor (or pass an array/scalar through) as float64 ndarray."""
    if isinstance(x, Tensor):
        return x.value
    return np.asarray(x, dtype=np.float64)


def leaves(params: dict) -> dict:
    """Fresh Tensor leaves over a name -> array dict, sharing its arrays."""
    return {name: Tensor(arr) for name, arr in params.items()}


def grads(leaves: dict) -> dict:
    """Each leaf's gradient after ``backward``; zeros where the loss did not reach."""
    return {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            for name, leaf in leaves.items()}


def _node(out, operands, grad_fns):
    """``out`` as a tape node over those ``operands`` that are Tensors.

    ``grad_fns[i]`` maps the output gradient to the gradient of operand i and
    is kept only when that operand is a Tensor; with none, ``out`` is returned
    as the plain array it is.
    """
    tracked = [i for i, x in enumerate(operands) if isinstance(x, Tensor)]
    if not tracked:
        return out
    return Tensor(out, _Node(tuple(operands[i].node for i in tracked),
                             tuple(grad_fns[i] for i in tracked)))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# A gradient function's closure names only what its formula reads: naming
# an operand just for its ``.shape`` would keep its value alive until backward.


def add(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = av.shape, bv.shape
    return _node(av + bv, (a, b), (lambda g: _unbroadcast(g, sa),
                                   lambda g: _unbroadcast(g, sb)))


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = av.shape, bv.shape
    return _node(av - bv, (a, b), (lambda g: _unbroadcast(g, sa),
                                   lambda g: _unbroadcast(-g, sb)))


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = av.shape, bv.shape
    return _node(av * bv, (a, b), (lambda g: _unbroadcast(g * bv, sa),
                                   lambda g: _unbroadcast(g * av, sb)))


def absolute(a):
    """Elementwise |a| with sign subgradient (0 at the kink)."""
    av = value_of(a)
    return _node(np.abs(av), (a,), (lambda g: g * np.sign(av),))


def tanh(a):
    out = np.tanh(value_of(a))
    return _node(out, (a,), (lambda g: g * (1.0 - out * out),))


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    sa, sb = av.shape, bv.shape
    return _node(av @ bv, (a, b),
                 (lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), sa),
                  lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, sb)))


# Longest sequence whose scores ``attention`` lays out key-major.  OpenBLAS
# 0.3.31's SkylakeX kernels give k qᵀ == (q kᵀ)ᵀ bit for bit up to about
# 192 x 192 scores per matrix and not beyond; the tests hold the op to the
# composition on both sides of this limit.
_KEY_MAJOR_MAX = 128
# Scores ``attention`` holds at once on plain arrays: it works through the
# leading axes until one block's scores fit (the whole tensor, one window of
# it, or down to a single matrix, which may exceed it), so a tape-free
# call's scores no longer grow with its batch.
_BLOCK_BYTES = 512 * 2**10


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading axis in the order numpy's pairwise sum takes
    along a contiguous row: ``_pairwise_sum(x)`` equals ``np.sum(y, axis=-1)``
    bit for bit, where ``y`` is a C-contiguous copy of ``np.moveaxis(x, 0, -1)``,
    for the at most ``_KEY_MAJOR_MAX`` (128) terms numpy sums without halving.

    Below 8 terms one running sum; otherwise eight strided accumulators
    combined as a tree, then the remainder in order.
    """
    n = x.shape[0]
    if n < 8:
        res = x[0].copy()
        for i in range(1, n):
            res += x[i]
        return res
    r = x[:8].copy()
    tail = n - n % 8
    for i in range(8, tail, 8):
        r += x[i : i + 8]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(tail, n):
        res += x[i]
    return res


def attention(q, k, v):
    """softmax(q kᵀ) v over the last two axes of (..., S, dh) operands with
    the same leading dimensions.

    Equal to ``oracle.attention_reference``, the op-by-op composition, bit
    for bit.  The op works through the leading axes one index at a time,
    outermost first, going one axis deeper until a block's scores fit
    ``_BLOCK_BYTES``; each block runs the same per-matrix GEMMs and the
    same per-row or per-column reductions as the whole tensor would, so
    blocking moves no bit.  With or without a tape, the op holds one
    block's probabilities, and one block's key-major scores while it forms
    them.

    For sequences of up to ``_KEY_MAJOR_MAX`` the scores are laid out
    key-major, ``p[key, ..., query]``, so the softmax's max, exp, sum and
    divide each run over one long leading axis instead of S-wide trailing
    rows; the key sum follows numpy's pairwise order (``_pairwise_sum``),
    and the probabilities are copied to a contiguous (..., query, key)
    array before the GEMM with ``v``, whose small-matrix kernels change bits
    on a strided operand.  That layout gets its scores from ``k @ qᵀ``,
    which matches ``(q @ kᵀ)ᵀ`` only while BLAS takes its small-matrix
    kernels, so longer sequences keep the composition's row layout and
    softmax.  The context is written in q's memory order.

    As a tape node, its three gradients come from one backward pass per
    output gradient, in the composition's operand order.  The pass walks
    the blocks in reverse: the block the forward left in the buffer is
    used as it is, and every other block's probabilities are computed again
    by the same code, so a call of one block recomputes nothing.  The
    gradients are written in the operands' memory order, block by block, so
    the reshape after the denoiser's transpose copies nothing.
    """
    qv, kv, vv = value_of(q), value_of(k), value_of(v)
    *batch, s_q, _ = qv.shape
    s_k = kv.shape[-2]
    depth = 0
    while depth < len(batch) and 8 * s_q * s_k * np.prod(batch[depth:]) > _BLOCK_BYTES:
        depth += 1
    inner = batch[depth:]
    blocks = list(np.ndindex(*batch[:depth]))
    probs = np.empty((*inner, s_q, s_k))
    qt, kt = np.swapaxes(qv, -1, -2), np.swapaxes(kv, -1, -2)
    key_major = max(s_q, s_k) <= _KEY_MAJOR_MAX
    held = None  # the block whose probabilities ``probs`` holds

    def block(idx):
        """The probabilities of block ``idx``, in ``probs``."""
        nonlocal held
        if held != idx:
            if key_major:
                p = np.empty((s_k, *inner, s_q))
                np.matmul(kv[idx], qt[idx], out=np.moveaxis(p, 0, -2))
                p -= p.max(axis=0)
                np.exp(p, out=p)
                p /= _pairwise_sum(p)
                np.copyto(probs, np.moveaxis(p, 0, -1))
            else:
                np.matmul(qv[idx], kt[idx], out=probs)
                np.subtract(probs, np.max(probs, axis=-1, keepdims=True), out=probs)
                np.exp(probs, out=probs)
                np.divide(probs, np.sum(probs, axis=-1, keepdims=True), out=probs)
            held = idx
        return probs

    out = np.empty_like(qv, shape=(*batch, s_q, vv.shape[-1]))
    for idx in blocks:
        np.matmul(block(idx), vv[idx], out=out[idx])

    cache = {}

    def grads_for(g):
        if cache.get("g") is not g:
            gq, gk, gv = np.empty_like(qv), np.empty_like(kv), np.empty_like(vv)
            for idx in reversed(blocks):
                attn = block(idx)
                # the softmax gradient (g_attn - Σ g_attn·attn) · attn, formed
                # in place on g_attn = g vᵀ
                gs = g[idx] @ np.swapaxes(vv[idx], -1, -2)
                gs -= np.sum(gs * attn, axis=-1, keepdims=True)
                gs *= attn
                gq[idx] = gs @ kv[idx]
                gk[idx] = np.swapaxes(qt[idx] @ gs, -1, -2)
                gv[idx] = np.swapaxes(attn, -1, -2) @ g[idx]
            cache.clear()
            cache.update(g=g, q=gq, k=gk, v=gv)
        return cache

    return _node(out, (q, k, v), tuple(lambda g, name=name: grads_for(g)[name]
                                       for name in "qkv"))


def sum_(a):
    """The sum of every entry, as a scalar."""
    av = value_of(a)
    shape = av.shape
    return _node(np.sum(av), (a,), (lambda g: np.broadcast_to(g, shape).copy(),))


def reshape(a, shape):
    av = value_of(a)
    sa = av.shape
    return _node(av.reshape(shape), (a,), (lambda g: g.reshape(sa),))


def transpose(a, axes):
    return _node(np.transpose(value_of(a), axes), (a,),
                 (lambda g: np.transpose(g, np.argsort(axes)),))


def pad(a, pad_width):
    av = value_of(a)
    slices = tuple(slice(lo, lo + n) for (lo, _), n in zip(pad_width, av.shape))
    return _node(np.pad(av, pad_width), (a,), (lambda g: g[slices],))


def index(a, idx):
    """Basic slicing/integer indexing; backward scatters into zeros."""
    av = value_of(a)
    shape = av.shape

    def grad(g):
        full = np.zeros(shape)
        full[idx] = g
        return full

    return _node(av[idx], (a,), (grad,))


def take_rows(table, idx):
    """Embedding lookup ``table[idx]`` with duplicate-safe scatter-add."""
    idx = np.asarray(idx)
    tv = value_of(table)

    def grad(g):
        full = np.zeros_like(tv)
        np.add.at(full, idx.reshape(-1), g.reshape(-1, tv.shape[-1]))
        return full

    return _node(tv[idx], (table,), (grad,))


def stack_last(a, b):
    """Stack two same-shape grids along a new trailing axis."""
    out = np.stack([value_of(a), value_of(b)], axis=-1)
    return _node(out, (a, b), (lambda g: g[..., 0], lambda g: g[..., 1]))
