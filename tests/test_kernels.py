"""Property tests of the conv and pool kernels against loop oracles and
against the whole-batch patch convolution and pooling formula they replaced,
of the pool-before-relu block order against the relu-before-pool reference,
and memory ceilings for the preset-1 network."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.layers import (
    conv2d_backward,
    conv2d_forward,
    cross_entropy_loss,
    dropout,
    dropout_backward,
    fc_backward,
    fc_forward,
    maxpool_backward,
    maxpool_forward,
    relu,
    relu_backward,
)
from fruitnet.network import (
    NetworkConfig,
    backward,
    dropout_masks,
    forward,
    init_params,
    param_shapes,
    preset_configuration,
)
from fruitnet.seeding import make_rng

from helpers import conv2d_batch_patches, conv2d_grad_x_oracle, max_rel_err, maxpool_oracle, maxpool_whole_batch

SEEDS = st.integers(0, 2**32 - 1)


@given(
    n=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    c=st.integers(1, 3),
    ties=st.booleans(),
    seed=SEEDS,
)
@settings(max_examples=60, deadline=None)
def test_maxpool_matches_loop_oracle(n, h, w, c, ties, seed):
    rng = np.random.default_rng(seed)
    # a few small integers force ties inside most windows
    x = rng.integers(-2, 3, (n, h, w, c)).astype(np.float64) if ties else rng.normal(size=(n, h, w, c))
    y, cache = maxpool_forward(x)
    grad_y = rng.normal(size=y.shape)
    y_ref, gx_ref = maxpool_oracle(x, grad_y)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(maxpool_backward(grad_y, cache), gx_ref)


@given(
    n=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    c=st.integers(1, 3),
    dtype=st.sampled_from([np.float32, np.float64]),
    values=st.sampled_from(["normal", "ties", "special"]),
    seed=SEEDS,
)
@settings(max_examples=120, deadline=None)
def test_maxpool_bit_identical_to_whole_batch_formula(n, h, w, c, dtype, values, seed):
    rng = np.random.default_rng(seed)
    if values == "normal":
        x = rng.normal(size=(n, h, w, c))
    else:
        # a few small integers tie inside most windows; "special" then puts
        # +-inf and NaN into about a third of the cells
        x = rng.integers(-2, 3, (n, h, w, c)).astype(np.float64)
        if values == "special":
            x = np.where(rng.random(x.shape) < 1 / 3, rng.choice([np.inf, -np.inf, np.nan], x.shape), x)
    x = x.astype(dtype)
    y_ref, (shape_ref, idx_ref) = maxpool_whole_batch(x)
    y, (shape, idx) = maxpool_forward(x)
    assert shape == shape_ref
    assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref, equal_nan=True)
    assert idx.dtype == idx_ref.dtype == np.int8 and np.array_equal(idx, idx_ref)


@given(
    k=st.sampled_from([1, 2, 3, 4, 5]),  # even k pads unevenly, so the flipped kernel swaps sides
    n=st.integers(1, 2),
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    ci=st.integers(1, 3),
    co=st.integers(1, 3),
    seed=SEEDS,
)
@settings(max_examples=60, deadline=None)
def test_conv_input_gradient_matches_scatter_oracle(k, n, h, w, ci, co, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, h, w, ci))
    wt = rng.normal(size=(k, k, ci, co))
    y, cache = conv2d_forward(x, wt, np.zeros(co))
    grad_y = rng.normal(size=y.shape)
    grad_x, _, _ = conv2d_backward(grad_y, cache)
    assert grad_x.shape == x.shape
    assert max_rel_err(grad_x, conv2d_grad_x_oracle(grad_y, wt)) < 1e-9


@given(
    k=st.integers(1, 5),
    n=st.integers(1, 4),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    ci=st.integers(1, 6),
    co=st.integers(1, 6),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=SEEDS,
)
@settings(max_examples=80, deadline=None)
def test_conv_bit_identical_to_whole_batch_patches(k, n, h, w, ci, co, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, h, w, ci)).astype(dtype)
    wt = rng.normal(size=(k, k, ci, co)).astype(dtype)
    bias = rng.normal(size=co).astype(dtype)
    grad_y = rng.normal(size=(n, h, w, co)).astype(dtype)
    y_ref, gx_ref, gw_ref, gb_ref = conv2d_batch_patches(x, wt, bias, grad_y)

    y, cache = conv2d_forward(x, wt, bias)
    assert y.dtype == dtype and np.array_equal(y, y_ref)
    grad_x, grad_w, grad_b = conv2d_backward(grad_y, cache)
    assert np.array_equal(grad_x, gx_ref)
    assert np.array_equal(grad_w, gw_ref)
    assert np.array_equal(grad_b, gb_ref)
    grad_x, grad_w, grad_b = conv2d_backward(grad_y, cache, input_grad=False)
    assert grad_x is None
    assert np.array_equal(grad_w, gw_ref)
    assert np.array_equal(grad_b, gb_ref)


def relu_before_pool_forward(cfg, params, x, keep_prob, masks):
    """The network with each block ordered conv -> relu -> pool."""
    caches = {}
    h = x
    for i in (1, 2, 3, 4):
        h, caches[f"conv{i}"] = conv2d_forward(h, params[f"conv{i}_w"], params[f"conv{i}_b"])
        h, caches[f"relu_c{i}"] = relu(h)
        h, caches[f"pool{i}"] = maxpool_forward(h)
    caches["flat_shape"] = h.shape
    h = h.reshape(h.shape[0], -1)
    h, caches["fc1"] = fc_forward(h, params["fc1_w"], params["fc1_b"])
    h, caches["relu_f1"] = relu(h)
    h, caches["drop1"] = dropout(h, keep_prob, masks[0])
    h, caches["fc2"] = fc_forward(h, params["fc2_w"], params["fc2_b"])
    h, caches["relu_f2"] = relu(h)
    h, caches["drop2"] = dropout(h, keep_prob, masks[1])
    logits, caches["out"] = fc_forward(h, params["out_w"], params["out_b"])
    return logits, caches


def relu_before_pool_backward(caches, grad_logits):
    grads = {}
    g, grads["out_w"], grads["out_b"] = fc_backward(grad_logits, caches["out"])
    g = relu_backward(dropout_backward(g, caches["drop2"]), caches["relu_f2"])
    g, grads["fc2_w"], grads["fc2_b"] = fc_backward(g, caches["fc2"])
    g = relu_backward(dropout_backward(g, caches["drop1"]), caches["relu_f1"])
    g, grads["fc1_w"], grads["fc1_b"] = fc_backward(g, caches["fc1"])
    g = g.reshape(caches["flat_shape"])
    for i in (4, 3, 2, 1):
        g = maxpool_backward(g, caches[f"pool{i}"])
        g = relu_backward(g, caches[f"relu_c{i}"])
        g, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = conv2d_backward(g, caches[f"conv{i}"], input_grad=(i > 1))
    return grads


@given(
    h=st.integers(5, 12),
    w=st.integers(5, 12),
    keep_prob=st.sampled_from([1.0, 0.7]),
    seed=SEEDS,
)
@settings(max_examples=25, deadline=None)
def test_pool_before_relu_equals_relu_before_pool(h, w, keep_prob, seed):
    cfg = NetworkConfig(
        num_classes=3, input_channels=2, conv_maps=(3, 2, 3, 2), fc_sizes=(5, 4),
        input_height=h, input_width=w,
    )
    prng = make_rng(seed)
    params = {name: prng.uniform(-0.5, 0.5, size=shape) for name, shape in param_shapes(cfg).items()}
    x = np.random.default_rng(seed).random((2, h, w, 2))
    labels = np.array([0, 2])

    masks = dropout_masks(cfg, len(x), keep_prob, make_rng(seed, 1))
    logits, caches = forward(cfg, params, x, keep_prob, masks)
    ref_masks = dropout_masks(cfg, len(x), keep_prob, make_rng(seed, 1))
    ref_logits, ref_caches = relu_before_pool_forward(cfg, params, x, keep_prob, ref_masks)
    assert np.array_equal(logits, ref_logits)
    _, grad_logits = cross_entropy_loss(logits, labels)
    grads = backward(caches, grad_logits)
    ref_grads = relu_before_pool_backward(ref_caches, grad_logits)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_preset_one_memory_ceiling():
    # the conv caches hold width-only patch matrices, k times each conv input;
    # a k * k im2col would take the forward past 100 MB at this batch
    cfg = preset_configuration(1, num_classes=5)
    params = init_params(cfg, make_rng(0))
    x = np.random.default_rng(0).random((8, 100, 100, 4)).astype(np.float32)
    labels = np.arange(8) % 5
    tracemalloc.start()
    try:
        logits, caches = forward(cfg, params, x)
        _, forward_peak = tracemalloc.get_traced_memory()
        _, grad_logits = cross_entropy_loss(logits, labels)
        backward(caches, grad_logits)
        _, total_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward_peak < 50e6, f"forward peaked at {forward_peak / 1e6:.1f} MB"
    assert total_peak < 100e6, f"forward plus backward peaked at {total_peak / 1e6:.1f} MB"


def test_preset_one_memory_ceiling_at_train_slice():
    # train runs forward and backward on 30-image slices; each conv builds its
    # patch matrix one image at a time, so no buffer grows with the slice
    # beyond the activations the caches keep
    cfg = preset_configuration(1, num_classes=5)
    params = init_params(cfg, make_rng(0))
    x = np.random.default_rng(0).random((30, 100, 100, 4)).astype(np.float32)
    labels = np.arange(30) % 5
    tracemalloc.start()
    try:
        logits, caches = forward(cfg, params, x)
        _, forward_peak = tracemalloc.get_traced_memory()
        _, grad_logits = cross_entropy_loss(logits, labels)
        backward(caches, grad_logits)
        _, total_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward_peak < 50e6, f"forward peaked at {forward_peak / 1e6:.1f} MB"
    assert total_peak < 100e6, f"forward plus backward peaked at {total_peak / 1e6:.1f} MB"
