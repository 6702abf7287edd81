import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.errors import InvalidInputError, ShapeError
from fruitnet.layers import cross_entropy_loss
from fruitnet.network import (
    NetworkConfig,
    backward,
    dropout_masks,
    forward,
    init_params,
    param_shapes,
    preset_configuration,
    truncated_normal,
)
from fruitnet.seeding import make_rng

from helpers import finite_difference, max_rel_err, truncated_normal_oracle

TINY = NetworkConfig(
    num_classes=3,
    input_channels=2,
    conv_maps=(1, 2, 2, 2),
    fc_sizes=(5, 4),
    input_height=12,
    input_width=12,
)


class TestConfig:
    def test_preset_one_is_the_reference_network(self):
        cfg = preset_configuration(1, num_classes=91)
        assert cfg.conv_maps == (16, 32, 64, 128)
        assert cfg.fc_sizes == (1024, 256)
        assert cfg.input_channels == 4
        assert (cfg.input_height, cfg.input_width) == (100, 100)

    def test_presets_vary_where_expected(self):
        assert preset_configuration(2, 10).conv_maps == (8, 32, 64, 128)
        assert preset_configuration(7, 10).conv_maps == (16, 32, 128, 128)
        assert preset_configuration(9, 10).fc_sizes == (512, 256)
        assert preset_configuration(10, 10).fc_sizes == (1024, 512)

    def test_invalid_preset_rejected(self):
        with pytest.raises(InvalidInputError):
            preset_configuration(11, 10)

    def test_pooled_size_follows_ceiling_formula(self):
        cfg = preset_configuration(1, 10)
        assert (cfg.pooled_height, cfg.pooled_width) == (7, 7)
        assert cfg.flat_size == 7 * 7 * 128 == 6272
        assert TINY.pooled_height == 1 and TINY.flat_size == 2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            NetworkConfig(num_classes=0)
        with pytest.raises(InvalidInputError):
            NetworkConfig(num_classes=2, conv_maps=(1, 2, 3))


class TestInitParams:
    def test_biases_are_exactly_zero(self):
        params = init_params(preset_configuration(1, 91), make_rng(0))
        for name, value in params.items():
            if name.endswith("_b"):
                assert not value.any()

    def test_reference_shapes(self):
        params = init_params(preset_configuration(1, 91, input_channels=4), make_rng(0))
        assert params["conv1_w"].shape == (5, 5, 4, 16)
        assert params["conv4_w"].shape == (5, 5, 64, 128)
        assert params["fc1_w"].shape == (6272, 1024)
        assert params["out_w"].shape == (256, 91)
        assert params["conv1_w"].dtype == np.float32

    def test_truncated_normal_statistics(self):
        draws = truncated_normal(make_rng(1), (100_000,), stddev=0.05, dtype=np.float64)
        assert np.abs(draws).max() <= 0.1  # resampled outside two stddev
        assert 0.04 <= draws.std() <= 0.05

    @given(
        shape=st.lists(st.integers(0, 40), min_size=0, max_size=3).map(tuple),
        stddev=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncated_normal_equals_the_whole_array_resampling(self, shape, stddev, seed, dtype):
        """Redrawing only the rejected entries makes the same draws in the same
        order as re-testing the whole array each pass: same bits, same dtype,
        and the stream left in the same state."""
        got_rng, want_rng = make_rng(seed), make_rng(seed)
        got = truncated_normal(got_rng, shape, stddev=stddev, dtype=dtype)
        want = truncated_normal_oracle(want_rng, shape, stddev, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_same_seed_same_params(self):
        a = init_params(TINY, make_rng(3))
        b = init_params(TINY, make_rng(3))
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestForward:
    def test_reference_activation_shape_chain(self):
        cfg = preset_configuration(1, num_classes=91, input_channels=4)
        params = init_params(cfg, make_rng(0))
        x = np.random.default_rng(1).random((2, 100, 100, 4)).astype(np.float32)
        logits, caches = forward(cfg, params, x, keep_prob=1.0)

        conv_dims = [caches[f"conv{i}"][0] for i in (1, 2, 3, 4)]
        assert conv_dims == [(2, 100, 100), (2, 50, 50), (2, 25, 25), (2, 13, 13)]
        pool_shapes = [caches[f"pool{i}"][1].shape for i in (1, 2, 3, 4)]
        assert pool_shapes == [(2, 50, 50, 16), (2, 25, 25, 32), (2, 13, 13, 64), (2, 7, 7, 128)]
        assert caches["flat_shape"] == (2, 7, 7, 128)
        assert caches["fc1"][0].shape == (2, 6272)
        assert caches["fc2"][0].shape == (2, 1024)
        assert caches["out"][0].shape == (2, 256)
        assert logits.shape == (2, 91)

    def test_deterministic_at_keep_prob_one(self):
        params = init_params(TINY, make_rng(4))
        x = np.random.default_rng(5).random((3, 12, 12, 2))
        a, _ = forward(TINY, params, x, 1.0)
        b, _ = forward(TINY, params, x, 1.0)
        assert np.array_equal(a, b)

    def test_wrong_spatial_dims_rejected(self):
        params = init_params(TINY, make_rng(6))
        with pytest.raises(ShapeError):
            forward(TINY, params, np.zeros((1, 10, 12, 2)))

    def test_batch_concatenation_property(self):
        params = init_params(TINY, make_rng(7), dtype=np.float64)
        rng = np.random.default_rng(8)
        xa, xb = rng.random((2, 12, 12, 2)), rng.random((3, 12, 12, 2))
        ya, _ = forward(TINY, params, xa, 1.0)
        yb, _ = forward(TINY, params, xb, 1.0)
        yab, _ = forward(TINY, params, np.concatenate([xa, xb]), 1.0)
        assert np.abs(yab - np.concatenate([ya, yb])).max() < 1e-6

    def test_dropout_reproducible_given_rng(self):
        params = init_params(TINY, make_rng(9))
        x = np.random.default_rng(10).random((2, 12, 12, 2)).astype(np.float32)
        masks = dropout_masks(TINY, len(x), 0.5, make_rng(11))
        a, caches = forward(TINY, params, x, 0.5, masks)
        b, _ = forward(TINY, params, x, 0.5, dropout_masks(TINY, len(x), 0.5, make_rng(11)))
        c, _ = forward(TINY, params, x, 0.5, dropout_masks(TINY, len(x), 0.5, make_rng(12)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert caches["drop1"][0] is masks[0] and caches["drop2"][0] is masks[1]
        assert dropout_masks(TINY, 2, 1.0, None) == (None, None)


class TestEndToEndGradients:
    def test_every_parameter_matches_finite_differences(self):
        # the default 0.05-stddev init leaves pre-activations at the scale of
        # the finite-difference step, right on the relu kinks; sample larger
        # weights instead and assert the kink margin so the check stays valid
        cfg = TINY
        rng = make_rng(24)
        params = {
            name: rng.uniform(-0.5, 0.5, size=shape) for name, shape in param_shapes(cfg).items()
        }
        data_rng = np.random.default_rng(25)
        x = data_rng.random((2, 12, 12, 2))
        labels = np.array([0, 2])

        logits, caches = forward(cfg, params, x, 1.0)
        for key in ("relu_c1", "relu_c2", "relu_c3", "relu_c4", "relu_f1", "relu_f2"):
            assert np.abs(caches[key]).min() > 1e-3, f"{key} too close to its kink"
        _, grad_logits = cross_entropy_loss(logits, labels)
        grads = backward(caches, grad_logits)

        def loss():
            lgts, _ = forward(cfg, params, x, 1.0)
            value, _ = cross_entropy_loss(lgts, labels)
            return value

        assert grads.keys() == params.keys()
        for name in params:
            numeric = finite_difference(loss, params[name])
            assert max_rel_err(grads[name], numeric) < 1e-3, name


class TestParamShapes:
    def test_canonical_order_and_completeness(self):
        shapes = param_shapes(TINY)
        assert list(shapes) == [
            "conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b",
            "conv4_w", "conv4_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b", "out_w", "out_b",
        ]
        assert shapes["fc1_w"] == (TINY.flat_size, 5)
