import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from residiff import autodiff as ad
from residiff import denoiser as dn
from residiff import oracle as orc
from residiff.errors import ConfigError


def eps_hat(p, cfg, adj, z, c, t):
    return dn.forward(p, cfg, z, c, t, dn.normalized_adjacency(adj))


def noise_loss(cfg, adj, z, c, t, eps, mask):
    """The training step's noise loss as a function of the parameter dict."""
    return lambda p: dn.masked_mse(eps_hat(p, cfg, adj, z, c, t), eps, mask)


@pytest.fixture
def small():
    cfg = dn.DenoiserConfig(n_window=4, n_nodes=3, n_steps=5, d=8,
                            conv_width=3, head_count=2)
    rng = np.random.default_rng(0)
    params = dn.init_params(cfg, rng)
    adj = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.3], [0.5, 0.3, 0.0]])
    return cfg, params, adj, rng


def test_config_validation():
    with pytest.raises(ConfigError):
        dn.DenoiserConfig(n_window=4, n_nodes=3, n_steps=5, d=9, head_count=2)
    with pytest.raises(ConfigError):
        dn.DenoiserConfig(n_window=4, n_nodes=3, n_steps=5, d=8, conv_width=4)


def test_output_shape_contract(small):
    cfg, params, adj, rng = small
    z = rng.standard_normal((1, 4, 3))
    c = rng.standard_normal((1, 4, 3))
    out = eps_hat(params, cfg, adj, z, c, 2)
    assert out.shape == (1, 4, 3)
    batch = eps_hat(params, cfg, adj, np.concatenate([z, z]), np.concatenate([c, c]),
                    np.array([1, 5]))
    assert batch.shape == (2, 4, 3)


def test_param_shapes_lay_out_init_params(small):
    cfg, params, adj, rng = small
    shapes = dn.param_shapes(cfg)
    assert list(params) == list(shapes)
    assert {n: a.shape for n, a in params.items()} == shapes


def test_zero_head_gives_zero_output(small):
    cfg, params, adj, rng = small
    params["head"][:] = 0.0
    out = eps_hat(params, cfg, adj, rng.standard_normal((1, 4, 3)),
                  rng.standard_normal((1, 4, 3)), 3)
    np.testing.assert_array_equal(out, 0.0)


def test_determinism_bit_identical(small):
    cfg, params, adj, rng = small
    z = rng.standard_normal((1, 4, 3))
    c = rng.standard_normal((1, 4, 3))
    a = eps_hat(params, cfg, adj, z, c, 2)
    b = eps_hat(params, cfg, adj, z.copy(), c.copy(), 2)
    assert np.array_equal(a, b)


def test_attention_rows_sum_to_one(small, monkeypatch):
    cfg, params, adj, rng = small
    captured = []
    orig = ad.attention

    def tap(q, k, v):
        # with v all ones, each context entry is one probability row's sum
        ones = np.ones_like(ad.value_of(v))
        captured.append(orig(ad.value_of(q), ad.value_of(k), ones))
        return orig(q, k, v)

    monkeypatch.setattr(dn.ad, "attention", tap)
    eps_hat(params, cfg, adj, rng.standard_normal((1, 4, 3)),
            rng.standard_normal((1, 4, 3)), 1)
    assert len(captured) == 2  # one temporal, one spatial block
    for row_sums in captured:
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)


def test_fused_attention_matches_composition_through_the_network(small, monkeypatch):
    # the fused op replaces four tape nodes; the network's output and every
    # parameter gradient must not move by a bit
    cfg, params, adj, rng = small
    z, c, eps = (rng.standard_normal((2, 4, 3)) for _ in range(3))
    t = np.array([2, 5])
    mask = rng.random((2, 4, 3)) < 0.6
    loss = noise_loss(cfg, adj, z, c, t, eps, mask)
    runs = []
    for op in (ad.attention, orc.attention_reference):
        monkeypatch.setattr(dn.ad, "attention", op)
        leaves = ad.leaves(params)
        loss(leaves).backward()
        runs.append((eps_hat(params, cfg, adj, z, c, t), ad.grads(leaves)))
    (out, grads), (ref_out, ref_grads) = runs
    assert np.array_equal(out, ref_out)
    for name in params:
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_locality_with_mixing_disabled(small):
    cfg, params, adj, rng = small
    for name in ("graph_weight", "tem_wo", "spa_wo"):
        params[name][:] = 0.0
    z = rng.standard_normal((1, 4, 3))
    c = rng.standard_normal((1, 4, 3))
    base = eps_hat(params, cfg, adj, z, c, 2)
    # perturb outside the conv receptive field of cell (0, 0): other node
    z2 = z.copy()
    z2[0, 0, 2] += 10.0
    out = eps_hat(params, cfg, adj, z2, c, 2)
    assert out[0, 0, 0] == base[0, 0, 0]
    # same node two steps away in time (width-3 kernel reaches one step)
    z3 = z.copy()
    z3[0, 3, 0] += 10.0
    out = eps_hat(params, cfg, adj, z3, c, 2)
    assert out[0, 0, 0] == base[0, 0, 0]
    # within the receptive field the output must move
    z4 = z.copy()
    z4[0, 1, 0] += 10.0
    out = eps_hat(params, cfg, adj, z4, c, 2)
    assert out[0, 0, 0] != base[0, 0, 0]


def test_normalized_adjacency_symmetric_rows():
    adj = np.array([[0.0, 2.0], [2.0, 0.0]])
    a_hat = dn.normalized_adjacency(adj)
    np.testing.assert_allclose(a_hat, a_hat.T)
    # self-loops present
    assert np.all(np.diag(a_hat) > 0)


def test_loss_perfect_fit_and_head_stationarity(small):
    cfg, params, adj, rng = small
    z = rng.standard_normal((2, 4, 3))
    c = rng.standard_normal((2, 4, 3))
    t = np.array([1, 2])
    mask = np.ones((2, 4, 3), dtype=bool)
    target = eps_hat(params, cfg, adj, z, c, t)
    leaves = ad.leaves(params)
    loss = noise_loss(cfg, adj, z, c, t, target, mask)(leaves)
    loss.backward()
    grads = ad.grads(leaves)
    assert float(loss.value) == pytest.approx(0.0, abs=1e-24)
    assert list(grads) == list(params)
    for name in params:
        np.testing.assert_allclose(grads[name], 0.0, atol=1e-10)


def test_loss_masking_contract(small):
    cfg, params, adj, rng = small
    from residiff.forward import q_sample
    from residiff.schedule import build_linear_schedule

    sched = build_linear_schedule(5, 0.05, 0.3)
    mask = rng.random((1, 4, 3)) < 0.5
    mask[0, 0, 0] = True
    maskf = mask.astype(float)
    z0m = rng.standard_normal((1, 4, 3)) * maskf
    z0c = rng.standard_normal((1, 4, 3)) * maskf
    eps = rng.standard_normal((1, 4, 3))
    t = np.array([3])
    z_t = q_sample(z0m, z0c, t, eps, sched, mask)
    base = float(noise_loss(cfg, adj, z_t, z0c, t, eps, mask)(params))
    # perturb everything outside the target cells; the pipeline zero-fills
    # them, so the loss cannot move
    off = ~mask
    z0m2 = z0m + 5.0 * off
    z0c2 = z0c.copy()
    eps2 = eps + 3.0 * off
    z_t2 = q_sample(z0m2 * maskf, z0c2 * maskf, t, eps2, sched, mask)
    after = float(noise_loss(cfg, adj, z_t2, z0c2 * maskf, t, eps2, mask)(params))
    # eps outside the mask does not enter the masked mean either
    assert after == pytest.approx(base, abs=1e-12)


def test_loss_rejects_empty_mask(small):
    cfg, params, adj, rng = small
    z = rng.standard_normal((1, 4, 3))
    with pytest.raises(ValueError):
        noise_loss(cfg, adj, z, z, np.array([1]), z,
                   np.zeros((1, 4, 3), dtype=bool))(ad.leaves(params))


def test_gradients_match_finite_differences(small):
    cfg, params, adj, rng = small
    z = rng.standard_normal((2, 4, 3))
    c = rng.standard_normal((2, 4, 3))
    t = rng.integers(1, 6, size=2)
    eps = rng.standard_normal((2, 4, 3))
    mask = rng.random((2, 4, 3)) < 0.6
    mask[0, 0, 0] = True
    report = orc.finite_diff_check(noise_loss(cfg, adj, z, c, t, eps, mask), params,
                                   step=1e-3)
    assert report["max_rel_err"] <= 1e-4


def test_step_out_of_range_and_node_mismatch(small):
    cfg, params, adj, rng = small
    z = rng.standard_normal((1, 4, 3))
    with pytest.raises(IndexError):
        eps_hat(params, cfg, adj, z, z, 6)
    with pytest.raises(ValueError):
        eps_hat(params, cfg, np.zeros((5, 5)), rng.standard_normal((1, 4, 5)),
                rng.standard_normal((1, 4, 5)), 1)


def _captured_arrays(root, held):
    """Weak references to every array that a gradient function of an
    interior node below ``root`` captured, other than those in ``held``.

    Closures are followed into the functions, dicts, lists and tuples they
    hold, as ``ad.attention``'s three gradient functions share one cache.
    """
    held = {id(x) for x in held}
    refs, nodes, seen = [], [root.node], set()
    while nodes:
        node = nodes.pop()
        if id(node) in seen or not node.parents:
            continue
        seen.add(id(node))
        nodes.extend(node.parents)
        stack = list(node.grad_fns)
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if id(obj) not in held:
                    refs.append(weakref.ref(obj))
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple)):
                stack.extend(obj)
            elif callable(obj) and getattr(obj, "__closure__", None):
                stack.extend(cell.cell_contents for cell in obj.__closure__)
    return refs


def test_backward_frees_every_interior_node(small):
    # Interior nodes hold no values; what an interior node keeps alive is
    # what its gradient functions captured.  Apart from the leaves' values
    # and the inputs the caller holds, refcounting alone must free all of it.
    cfg, params, adj, rng = small
    z, c, eps = (rng.standard_normal((2, 4, 3)) for _ in range(3))
    mask = rng.random((2, 4, 3)) < 0.6
    mask[0, 0, 0] = True
    leaves = ad.leaves(params)
    loss = noise_loss(cfg, adj, z, c, np.array([2, 5]), eps, mask)(leaves)
    captured = _captured_arrays(loss, [*params.values(), z, c, eps, mask, adj])
    assert len(captured) > 20
    enabled = gc.isenabled()
    gc.disable()
    try:
        loss.backward()
        alive = sum(ref() is not None for ref in captured)
    finally:
        if enabled:
            gc.enable()
    assert alive == 0
    assert all(leaf.grad is not None for leaf in leaves.values())


def test_two_training_steps_hold_one_graph_at_a_time():
    # Two taped steps at 20 nodes x batch 16 x window 24, d 32, keeping the
    # first step's loss and gradients alive as the training loop does until
    # it reassigns them.  With a value-free tape whose gradient functions
    # keep only what they read, the peak is about 47 MiB.  It was 76 MiB
    # when the tape pinned every interior value, and 219.5 MiB when backward
    # also left the first graph and its interior gradients alive.
    cfg = dn.DenoiserConfig(n_window=24, n_nodes=20, n_steps=50, d=32, head_count=4)
    rng = np.random.default_rng(0)
    params = dn.init_params(cfg, rng)
    adj = rng.random((20, 20))
    a_hat = dn.normalized_adjacency(adj + adj.T)
    z, c, eps = (rng.standard_normal((16, 24, 20)) for _ in range(3))
    mask = rng.random((16, 24, 20)) < 0.3
    t = rng.integers(1, 51, size=16)
    held = []
    tracemalloc.start()
    try:
        for _ in range(2):
            leaves = ad.leaves(params)
            loss = dn.masked_mse(dn.forward(leaves, cfg, z, c, t, a_hat), eps, mask)
            loss.backward()
            held.append((loss, ad.grads(leaves)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
