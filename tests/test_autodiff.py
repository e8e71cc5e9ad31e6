"""Finite-difference checks for every autodiff primitive."""

import gc
import weakref

import numpy as np
import pytest

from residiff import autodiff as ad
from residiff import oracle as orc


def numeric_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op(build, x0, rtol=1e-6):
    """build(tensor) -> scalar Tensor; compares taped grad to central diffs."""
    t = ad.Tensor(x0.copy())
    out = build(t)
    out.backward()
    analytic = t.grad
    numeric = numeric_grad(lambda x: float(ad.value_of(build(x))), x0.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=1e-7)


rng = np.random.default_rng(42)


def test_add_broadcast_grads():
    b = rng.standard_normal((1, 4))
    check_op(lambda t: ad.sum_(ad.mul(ad.add(t, b), ad.add(t, b))),
             rng.standard_normal((3, 4)))


def test_sub():
    b = rng.standard_normal((3, 1))
    check_op(lambda t: ad.sum_(ad.mul(ad.sub(b, t), ad.sub(t, b))),
             rng.standard_normal((3, 4)))


def test_mul_same_operand_twice():
    check_op(lambda t: ad.sum_(ad.mul(t, t)), rng.standard_normal((5,)))


def test_absolute():
    x = rng.standard_normal((6,)) + 0.5  # keep away from the kink
    check_op(lambda t: ad.sum_(ad.absolute(t)), x)


def test_tanh():
    check_op(lambda t: ad.sum_(ad.tanh(t)), rng.standard_normal((4, 3)))


def test_matmul_2d():
    b = rng.standard_normal((4, 2))
    check_op(lambda t: ad.sum_(ad.matmul(t, b)), rng.standard_normal((3, 4)))


def test_matmul_broadcast_batched():
    w = rng.standard_normal((4, 4))
    check_op(lambda t: ad.sum_(ad.mul(ad.matmul(t, w), ad.matmul(t, w))),
             rng.standard_normal((2, 3, 5, 4)))


def test_matmul_left_broadcast():
    z = rng.standard_normal((2, 3, 5, 4))
    check_op(lambda t: ad.sum_(ad.mul(ad.matmul(t, z), 0.3)),
             rng.standard_normal((5, 5)))


def test_einsum2_grads():
    b = rng.standard_normal((2, 6, 3, 4))
    check_op(lambda t: ad.sum_(ad.einsum2("mn,bind->bimd", t, b)),
             rng.standard_normal((3, 3)))
    check_op(lambda t: ad.sum_(ad.einsum2("bind,d->bin", t, np.arange(4.0))),
             rng.standard_normal((2, 6, 3, 4)))


def test_softmax_rows_sum_to_one_and_grads():
    x = rng.standard_normal((3, 5))
    out = ad.softmax(x, axis=-1)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    w = rng.standard_normal((3, 5))
    check_op(lambda t: ad.sum_(ad.mul(ad.softmax(t, axis=-1), w)),
             rng.standard_normal((3, 5)))


TEMPORAL = (0, 2, 3, 1, 4)  # the denoiser's (B, L, N, h, dh) -> (B, N, h, L, dh)


def attention_run(fn, arrays, w, perm=None):
    """Output and leaf gradients of sum(fn(q, k, v) * w).

    With ``perm``, the leaves are (B, S, N, h, dh) grids moved into place by
    a transpose, and the context moved back, as in the denoiser's attention.
    """
    leaves = ad.leaves(arrays)
    q, k, v = (leaves[n] if perm is None else ad.transpose(leaves[n], perm)
               for n in "qkv")
    out = fn(q, k, v)
    if perm is not None:
        out = ad.transpose(out, np.argsort(perm))
    ad.sum_(ad.mul(out, w)).backward()
    return out.value, ad.grads(leaves)


@pytest.mark.parametrize("layout", ["contiguous", "denoiser_views"])
@pytest.mark.parametrize("dh", [1, 4, 8])
@pytest.mark.parametrize("s", [1, 5, 7, 8, 20, 24, 129, 300])
def test_attention_equals_composition_bit_for_bit(s, dh, layout):
    shape, perm = ((2, 3, s, dh), None) if layout == "contiguous" else ((2, s, 2, 2, dh), TEMPORAL)
    arrays = {n: rng.standard_normal(shape) for n in "qkv"}
    views = [a if perm is None else a.transpose(perm) for a in arrays.values()]
    assert np.array_equal(ad.attention(*views), orc.attention_reference(*views))
    w = rng.standard_normal(shape)
    out, grads = attention_run(ad.attention, arrays, w, perm)
    ref_out, ref_grads = attention_run(orc.attention_reference, arrays, w, perm)
    assert np.array_equal(out, ref_out)
    for name in "qkv":
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_attention_context_keeps_the_query_memory_order():
    q, k, v = (rng.standard_normal((2, 6, 3, 2, 4)).transpose(TEMPORAL) for _ in range(3))
    ctx = ad.attention(q, k, v)
    assert ctx.strides == q.strides
    assert ctx.transpose(np.argsort(TEMPORAL)).flags.c_contiguous


def test_attention_passes_finite_differences():
    params = {n: rng.standard_normal((2, 5, 3)) for n in "qkv"}
    w = rng.standard_normal((2, 5, 3))
    report = orc.finite_diff_check(
        lambda p: ad.sum_(ad.mul(ad.attention(p["q"], p["k"], p["v"]), w)), params, step=1e-5)
    assert report["max_rel_err"] <= 1e-6


def test_pairwise_sum_matches_numpy_sum_for_every_length():
    for n in range(1, 301):
        x = rng.standard_normal((n, 5))
        assert np.array_equal(ad._pairwise_sum(x), np.sum(np.ascontiguousarray(x.T), axis=-1)), n


def test_sum_axis():
    check_op(lambda t: ad.sum_(ad.mul(ad.sum_(t, axis=1), np.array([1.0, -2.0, 3.0]))),
             rng.standard_normal((3, 4)))


def test_reshape_transpose():
    w = rng.standard_normal((4, 3, 2))
    check_op(lambda t: ad.sum_(ad.mul(ad.transpose(ad.reshape(t, (2, 3, 4)), (2, 1, 0)), w)),
             rng.standard_normal((6, 4)))


def test_pad_and_index_overlapping_slices():
    def build(t):
        p = ad.pad(t, ((1, 1), (0, 0)))
        a = p[0:3]
        b = p[1:4]
        return ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b)))

    check_op(build, rng.standard_normal((3, 2)))


def test_take_rows_duplicate_indices():
    idx = np.array([0, 1, 1, 2])
    w = rng.standard_normal((4, 3))
    check_op(lambda t: ad.sum_(ad.mul(ad.take_rows(t, idx), w)),
             rng.standard_normal((5, 3)))


def test_stack_last():
    def build(t):
        both = ad.stack_last(t, ad.mul(t, 2.0))
        return ad.sum_(ad.mul(both, both))

    check_op(build, rng.standard_normal((3, 4)))


def test_plain_arrays_bypass_tape():
    out = ad.add(np.ones(3), np.ones(3))
    assert isinstance(out, np.ndarray)
    out = ad.softmax(np.zeros((2, 2)))
    assert isinstance(out, np.ndarray)
    out = ad.attention(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))
    assert isinstance(out, np.ndarray)


def test_mixed_operators_raise_instead_of_leaving_the_tape():
    # arithmetic on Tensors goes through the ops; numpy must not turn a
    # Tensor operand into an untracked object array
    t = ad.Tensor(np.arange(3.0))
    with pytest.raises(TypeError):
        np.ones(3) * t
    with pytest.raises(TypeError):
        t + 1.0


def test_leaves_share_arrays_and_grads_fill_unreached_with_zeros():
    params = {"used": np.arange(3.0), "unused": np.ones((2, 2))}
    leaves = ad.leaves(params)
    assert leaves["used"].value is params["used"]
    ad.sum_(ad.mul(leaves["used"], leaves["used"])).backward()
    grads = ad.grads(leaves)
    assert list(grads) == ["used", "unused"]
    np.testing.assert_array_equal(grads["used"], 2.0 * params["used"])
    np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))


def test_backward_accumulates_through_shared_nodes():
    t = ad.Tensor(np.array([2.0]))
    y = ad.add(ad.mul(t, 3.0), ad.mul(t, 4.0))
    z = ad.sum_(ad.mul(y, y))
    z.backward()
    # d/dt (7t)^2 = 98 t
    np.testing.assert_allclose(t.grad, [98.0 * 2.0])


def test_backward_twice_on_one_loss_raises():
    t = ad.Tensor(np.array([2.0, -1.0]))
    loss = ad.sum_(ad.mul(t, t))
    loss.backward()
    np.testing.assert_array_equal(t.grad, [4.0, -2.0])
    with pytest.raises(RuntimeError, match="graph already consumed by backward"):
        loss.backward()
    # the failed call changed nothing: the leaf keeps its gradient
    np.testing.assert_array_equal(t.grad, [4.0, -2.0])


def test_new_graph_through_a_consumed_node_raises():
    t = ad.Tensor(np.array([3.0]))
    y = ad.mul(t, 2.0)
    ad.sum_(y).backward()
    # the consumed node still serves its value to a new graph ...
    again = ad.sum_(ad.mul(y, y))
    assert float(again.value) == 36.0
    # ... but cannot be differentiated through a second time
    with pytest.raises(RuntimeError, match="graph already consumed by backward"):
        again.backward()
    # a graph rebuilt from the leaf differentiates as before
    ad.sum_(ad.mul(ad.mul(t, 2.0), ad.mul(t, 2.0))).backward()
    np.testing.assert_array_equal(t.grad, [24.0])


@pytest.fixture
def no_gc():
    """Run a test with the cycle collector off, so only refcounting frees."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _closure_arrays(grad_fn):
    """The arrays a gradient function's closure holds."""
    return [cell.cell_contents for cell in grad_fn.__closure__ or ()
            if isinstance(cell.cell_contents, np.ndarray)]


def test_interior_value_dies_with_its_tensor(no_gc):
    x, w = ad.Tensor(rng.standard_normal((3, 4))), ad.Tensor(rng.standard_normal((4, 2)))
    h = ad.matmul(x, w)
    value = weakref.ref(h.value)
    loss = ad.sum_(ad.add(h, np.ones((3, 2))))
    del h
    # the add's gradient reads only shapes, so nothing on the tape holds h
    assert value() is None
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)) @ w.value.T)
    np.testing.assert_array_equal(w.grad, x.value.T @ np.ones((3, 2)))


def test_value_a_gradient_reads_lives_with_the_graph(no_gc):
    x = ad.Tensor(rng.standard_normal(5))
    y = ad.tanh(x)
    value = weakref.ref(y.value)
    loss = ad.sum_(ad.mul(y, 2.0))
    expected = 2.0 * (1.0 - y.value * y.value)
    del y
    assert value() is not None  # tanh's gradient reads its output
    loss.backward()
    assert value() is None
    np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("build", [
    lambda a, b: ad.add(a, b),
    lambda a, b: ad.sub(a, b),
    lambda a, b: ad.reshape(a, (6,)),
    lambda a, b: ad.sum_(a, axis=0),
    lambda a, b: ad.index(a, (slice(None), 1)),
], ids=["add", "sub", "reshape", "sum_", "index"])
def test_shape_only_gradients_hold_no_operand(build):
    a, b = ad.Tensor(rng.standard_normal((2, 3))), ad.Tensor(rng.standard_normal((2, 3)))
    out = build(a, b)
    assert all(_closure_arrays(fn) == [] for fn in out.node.grad_fns)


@pytest.mark.parametrize("op", [ad.matmul, ad.mul])
def test_each_operand_gradient_holds_only_the_other_operand(op):
    a, b = ad.Tensor(rng.standard_normal((3, 3))), ad.Tensor(rng.standard_normal((3, 3)))
    grad_a, grad_b = op(a, b).node.grad_fns
    assert [id(x) for x in _closure_arrays(grad_a)] == [id(b.value)]
    assert [id(x) for x in _closure_arrays(grad_b)] == [id(a.value)]
