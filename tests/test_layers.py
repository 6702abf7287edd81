import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.errors import InvalidInputError, ShapeError
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
    softmax,
)
from fruitnet.seeding import make_rng

from helpers import conv2d_same_oracle, finite_difference, max_rel_err


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 4, 5, 3))
        w = np.eye(3).reshape(1, 1, 3, 3)
        y, _ = conv2d_forward(x, w, np.zeros(3))
        assert np.allclose(y, x, atol=1e-12)

    def test_all_ones_kernel_sums_window(self):
        # 3x3 input under a 5x5 ones kernel: every output position sees the
        # whole image, clipped by the zero padding
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        y, _ = conv2d_forward(x, np.ones((5, 5, 1, 1)), np.zeros(1))
        img = x[0, :, :, 0]
        for p in range(3):
            for q in range(3):
                lo_r, hi_r = max(0, p - 2), min(3, p + 3)
                lo_c, hi_c = max(0, q - 2), min(3, q + 3)
                assert y[0, p, q, 0] == img[lo_r:hi_r, lo_c:hi_c].sum()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_six_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, h, wd = rng.integers(1, 3), rng.integers(2, 7), rng.integers(2, 7)
        ci, co = rng.integers(1, 4), rng.integers(1, 4)
        k = int(rng.choice([1, 3, 5]))
        x = rng.normal(size=(n, h, wd, ci))
        w = rng.normal(size=(k, k, ci, co))
        b = rng.normal(size=co)
        y, _ = conv2d_forward(x, w, b)
        assert np.abs(y - conv2d_same_oracle(x, w, b)).max() < 1e-6

    def test_bias_gradient_is_channel_sum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 3, 2))
        w = rng.normal(size=(3, 3, 2, 4))
        y, cache = conv2d_forward(x, w, np.zeros(4))
        gy = rng.normal(size=y.shape)
        _, _, gb = conv2d_backward(gy, cache)
        assert np.allclose(gb, gy.sum(axis=(0, 1, 2)), atol=1e-12)

    def test_zero_upstream_gradient_gives_zero_gradients(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        y, cache = conv2d_forward(x, w, np.zeros(3))
        gx, gw, gb = conv2d_backward(np.zeros_like(y), cache)
        assert not gx.any() and not gw.any() and not gb.any()

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(2, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        b = rng.normal(size=2)
        direction = rng.normal(size=(2, 4, 4, 2))

        def loss():
            y, _ = conv2d_forward(x, w, b)
            return float((y * direction).sum())

        y, cache = conv2d_forward(x, w, b)
        gx, gw, gb = conv2d_backward(direction, cache)
        assert max_rel_err(gx, finite_difference(loss, x)) < 1e-4
        assert max_rel_err(gw, finite_difference(loss, w)) < 1e-4
        assert max_rel_err(gb, finite_difference(loss, b)) < 1e-4

    def test_linear_in_input(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(1, 4, 4, 2)), rng.normal(size=(1, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        bias = np.zeros(2)
        ya, _ = conv2d_forward(a, w, bias)
        yb, _ = conv2d_forward(b, w, bias)
        yab, _ = conv2d_forward(a + b, w, bias)
        assert np.abs(yab - (ya + yb)).max() < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2, 2, 3\)"):
            conv2d_forward(np.zeros((1, 2, 2, 3)), np.zeros((3, 3, 2, 4)), np.zeros(4))

    def test_backward_rejects_wrong_grad_shape(self):
        x = np.zeros((1, 3, 3, 1))
        y, cache = conv2d_forward(x, np.ones((3, 3, 1, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            conv2d_backward(np.zeros((1, 3, 3, 5)), cache)


class TestMaxpool:
    def test_constant_input(self):
        y, _ = maxpool_forward(np.full((1, 4, 4, 2), 0.3))
        assert y.shape == (1, 2, 2, 2)
        assert np.allclose(y, 0.3)

    def test_two_by_two(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        y, _ = maxpool_forward(x)
        assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 4.0

    def test_odd_dims_ignore_out_of_range(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        y, _ = maxpool_forward(x)
        assert y.shape == (1, 2, 2, 1)
        assert y[0, 0, 0, 0] == 4.0  # max of [[0,1],[3,4]]
        assert y[0, 0, 1, 0] == 5.0  # column 2 only
        assert y[0, 1, 0, 0] == 7.0  # row 2 only
        assert y[0, 1, 1, 0] == 8.0  # single corner cell

    def test_spatial_chain_100_to_7(self):
        n = 100
        sizes = [n]
        x = np.random.default_rng(6).random((1, n, n, 1))
        for _ in range(4):
            x, _ = maxpool_forward(x)
            sizes.append(x.shape[1])
        assert sizes == [100, 50, 25, 13, 7]

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        y, cache = maxpool_forward(x)
        gx = maxpool_backward(np.array([[[[5.0]]]]), cache)
        assert gx[0, 1, 1, 0] == 5.0
        assert gx.sum() == 5.0

    def test_tie_breaks_to_first_row_major(self):
        x = np.full((1, 2, 2, 1), 7.0)
        y, cache = maxpool_forward(x)
        gx = maxpool_backward(np.ones((1, 1, 1, 1)), cache)
        assert gx[0, 0, 0, 0] == 1.0 and gx.sum() == 1.0

    def test_zero_gradient_passes_through(self):
        x = np.random.default_rng(7).random((2, 5, 6, 3))
        y, cache = maxpool_forward(x)
        assert not maxpool_backward(np.zeros_like(y), cache).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rng.permutation(np.arange(2 * 5 * 5 * 2, dtype=np.float64)).reshape(2, 5, 5, 2)
        direction = rng.normal(size=(2, 3, 3, 2))

        def loss():
            y, _ = maxpool_forward(x)
            return float((y * direction).sum())

        y, cache = maxpool_forward(x)
        gx = maxpool_backward(direction, cache)
        assert max_rel_err(gx, finite_difference(loss, x)) < 1e-4


class TestRelu:
    def test_basic_values(self):
        y, _ = relu(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(y, [0.0, 0.0, 2.0])

    def test_all_negative_gives_zero_output_and_gradient(self):
        x = -np.random.default_rng(8).random((3, 4)) - 0.1
        y, cache = relu(x)
        assert not y.any()
        assert not relu_backward(np.ones_like(x), cache).any()

    def test_gradient_matches_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 5))
        x[np.abs(x) < 1e-2] += 0.05  # keep clear of the kink
        direction = rng.normal(size=(4, 5))

        def loss():
            y, _ = relu(x)
            return float((y * direction).sum())

        _, cache = relu(x)
        gx = relu_backward(direction, cache)
        assert max_rel_err(gx, finite_difference(loss, x)) < 1e-4


class TestDropout:
    def test_keep_prob_one_is_exact_identity_and_draws_nothing(self):
        x = np.random.default_rng(10).random((7, 9))
        rng = make_rng(55)
        y, cache = dropout(x, 1.0, rng)
        assert y is x
        assert rng.bit_generator.state == make_rng(55).bit_generator.state
        assert dropout_backward(x, cache) is x

    def test_elements_are_zero_or_exactly_scaled(self):
        keep = 0.8
        x = np.random.default_rng(11).random((100, 100)) + 0.5
        y, _ = dropout(x, keep, make_rng(1))
        scaled = x / x.dtype.type(keep)
        assert ((y == 0.0) | (y == scaled)).all()
        assert (y == 0.0).any() and (y == scaled).any()

    def test_mean_is_preserved_within_one_percent(self):
        x = np.ones(100_000)
        y, _ = dropout(x, 0.8, make_rng(2))
        assert abs(y.mean() / x.mean() - 1.0) < 0.01

    def test_backward_uses_the_same_mask(self):
        x = np.random.default_rng(12).random((50, 50))
        y, cache = dropout(x, 0.5, make_rng(3))
        gy = np.ones_like(x)
        gx = dropout_backward(gy, cache)
        assert np.array_equal(gx == 0.0, y == 0.0)
        assert np.allclose(gx[gx != 0], 2.0)

    def test_invalid_keep_prob_rejected(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidInputError):
                dropout(np.ones(3), bad, make_rng(0))

    def test_missing_rng_rejected(self):
        with pytest.raises(InvalidInputError):
            dropout(np.ones(3), 0.5, None)


class TestFullyConnected:
    def test_identity_weights(self):
        x = np.random.default_rng(13).random((3, 4))
        y, _ = fc_forward(x, np.eye(4), np.zeros(4))
        assert np.allclose(y, x, atol=1e-12)

    def test_hand_arithmetic(self):
        y, _ = fc_forward(np.array([[1.0, 2.0]]), np.array([[1.0], [1.0]]), np.array([0.5]))
        assert y[0, 0] == 3.5

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        direction = rng.normal(size=(3, 5))

        def loss():
            y, _ = fc_forward(x, w, b)
            return float((y * direction).sum())

        _, cache = fc_forward(x, w, b)
        gx, gw, gb = fc_backward(direction, cache)
        assert max_rel_err(gx, finite_difference(loss, x)) < 1e-4
        assert max_rel_err(gw, finite_difference(loss, w)) < 1e-4
        assert max_rel_err(gb, finite_difference(loss, b)) < 1e-4

    def test_linear_in_input(self):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        w = rng.normal(size=(4, 3))
        bias = np.zeros(3)
        ya, _ = fc_forward(a, w, bias)
        yb, _ = fc_forward(b, w, bias)
        yab, _ = fc_forward(a + b, w, bias)
        assert np.abs(yab - (ya + yb)).max() < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fc_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))


class TestSoftmax:
    def test_uniform_logits(self):
        probs = softmax(np.zeros((2, 5)))
        assert np.allclose(probs, 0.2, atol=1e-12)

    def test_log_three_example(self):
        probs = softmax(np.array([[0.0, np.log(3.0)]]))
        assert np.allclose(probs, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(4, 6))
        shifted = logits + rng.normal(size=(4, 1))
        assert np.abs(softmax(logits) - softmax(shifted)).max() < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_rows_sum_to_one(self, seed):
        logits = np.random.default_rng(seed).normal(scale=50, size=(3, 7))
        probs = softmax(logits)
        assert ((probs > 0) & (probs < 1)).all() or (probs >= 0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss, _ = cross_entropy_loss(np.zeros((4, 7)), np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(7.0), abs=1e-12)

    def test_confident_correct_prediction_drives_loss_to_zero(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, _ = cross_entropy_loss(logits, np.array([0]))
        assert loss < 1e-6

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(16)
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        _, grad = cross_entropy_loss(logits, labels)
        expected = softmax(logits)
        expected[np.arange(3), labels] -= 1.0
        expected /= 3.0
        assert np.abs(grad - expected).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(3, 5))
        labels = np.array([4, 2, 0])

        def loss():
            value, _ = cross_entropy_loss(logits, labels)
            return value

        _, grad = cross_entropy_loss(logits, labels)
        assert max_rel_err(grad, finite_difference(loss, logits)) < 1e-4

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidInputError):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))

