import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet import augmentation
from fruitnet.augmentation import Scenario, augment_draws, preprocess, preprocess_batch
from fruitnet.errors import InvalidInputError
from fruitnet.imaging import RasterImage, hsv_to_rgb_pixels, rgb_to_hsv_pixels
from fruitnet.seeding import make_rng

# augment_draws rows (hue, saturation, horizontal flip, vertical flip): STILL
# maps to hue shift 0.0, saturation factor 1.0 and no flip, exactly
STILL = (0.5, 1 / 3, 0.9, 0.9)
SAT_HIGH = (0.5, 1.0, 0.9, 0.9)  # saturation factor 1.2, the top of the range
H_FLIP, V_FLIP, BOTH_FLIPS = (0.5, 1 / 3, 0.0, 0.9), (0.5, 1 / 3, 0.9, 0.0), (0.5, 1 / 3, 0.0, 0.0)
AUG = Scenario.HSV_GRAY_AUG


def rgb(pixels) -> RasterImage:
    return RasterImage(np.asarray(pixels, dtype=np.float64))


def random_rgb(seed, h=6, w=5) -> RasterImage:
    return rgb(np.random.default_rng(seed).random((h, w, 3)))


def augmented(img: RasterImage, row=STILL) -> np.ndarray:
    """Train-mode hsv_gray_aug of img with one chosen row of draws."""
    return augmentation._pipeline(img.pixels, AUG, np.array(row))


class TestAdjustHue:
    def test_zero_delta_is_identity(self):
        img = random_rgb(0)
        assert np.abs(augmented(img) - preprocess(img, Scenario.HSV_GRAY)).max() < 1e-6

    def test_red_plus_half_turn_is_cyan(self):
        hsv = rgb_to_hsv_pixels(np.array([[[1.0, 0.0, 0.0]]]))
        hsv[..., 0] = (hsv[..., 0] + 0.5) % 1.0
        assert np.allclose(hsv_to_rgb_pixels(hsv)[0, 0], [0.0, 1.0, 1.0], atol=1e-12)

    def test_hue_wraps_around(self):
        # a hue draw of 0.9 shifts by 0.016, which carries hue 0.99 past 1.0
        start = rgb(hsv_to_rgb_pixels(np.array([[[0.99, 1.0, 1.0]]])))
        hue = augmented(start, (0.9, 1 / 3, 0.9, 0.9))[0, 0, 0]
        assert hue == pytest.approx(0.99 + 0.016 - 1.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.3, 0.5, -0.5])
    def test_any_shift_wraps_modulo_one(self, delta):
        hsv = np.array([[[0.0, 1.0, 1.0], [0.25, 0.5, 0.8], [0.75, 1.0, 0.6], [0.99, 0.7, 1.0]]])
        out = rgb_to_hsv_pixels(augmentation._jitter(hsv_to_rgb_pixels(hsv), delta, 1.0))
        gap = np.abs(out[..., 0] - (hsv[..., 0] + delta) % 1.0) % 1.0
        assert np.minimum(gap, 1.0 - gap).max() < 1e-9
        assert np.allclose(out[..., 1:], hsv[..., 1:], atol=1e-9)


class TestAdjustSaturation:
    def test_factor_one_is_identity(self):
        img = random_rgb(2)
        assert np.abs(augmented(img) - preprocess(img, Scenario.HSV_GRAY)).max() < 1e-6

    def test_gray_pixel_is_fixed_point(self):
        img = rgb([[[0.4, 0.4, 0.4]]])
        assert np.allclose(augmented(img, SAT_HIGH), preprocess(img, Scenario.HSV_GRAY), atol=1e-12)

    def test_saturation_clamps_at_one(self):
        out = augmented(rgb([[[1.0, 0.0, 0.0]]]), SAT_HIGH)
        assert out[0, 0, 1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("factor", [1.5, 2.0, 3.0])
    def test_large_factors_scale_then_clamp(self, factor):
        hsv = np.array([[[0.1, 0.2, 0.9], [0.4, 0.45, 0.7], [0.6, 0.8, 0.5], [0.9, 1.0, 1.0]]])
        out = rgb_to_hsv_pixels(augmentation._jitter(hsv_to_rgb_pixels(hsv), 0.0, factor))
        assert np.allclose(out[..., 1], np.minimum(hsv[..., 1] * factor, 1.0), atol=1e-9)
        assert np.allclose(out[..., [0, 2]], hsv[..., [0, 2]], atol=1e-9)


class TestFlip:
    def test_double_flip_is_identity(self):
        img = random_rgb(4)
        flipped = rgb(img.pixels[::-1, ::-1])
        assert np.array_equal(augmented(flipped, BOTH_FLIPS), augmented(img))
        assert not np.array_equal(augmented(img, BOTH_FLIPS), augmented(img))

    def test_one_by_two_horizontal(self):
        img = rgb([[[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]])
        out = augmented(img, H_FLIP)
        assert np.allclose(out[0, 0, 2:], 0.9) and np.allclose(out[0, 1, 2:], 0.1)

    def test_matches_index_reversal_oracle(self):
        img = random_rgb(5, h=4, w=7)
        for row, horizontal, vertical in ((STILL, 0, 0), (H_FLIP, 1, 0), (V_FLIP, 0, 1), (BOTH_FLIPS, 1, 1)):
            want = np.empty_like(img.pixels)
            for r in range(4):
                for c in range(7):
                    want[r, c] = img.pixels[4 - 1 - r if vertical else r, 7 - 1 - c if horizontal else c]
            assert np.array_equal(augmented(img, row), augmented(rgb(want)))


class TestPreprocess:
    def test_rgb_scenario_is_identity(self):
        img = random_rgb(7)
        assert np.array_equal(preprocess(img, Scenario.RGB), img.pixels)

    def test_hsv_gray_on_pure_red(self):
        out = preprocess(rgb([[[1.0, 0.0, 0.0]]]), Scenario.HSV_GRAY)
        assert np.allclose(out[0, 0], [0.0, 1.0, 1.0, 0.299])

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_channel_counts_match_scenario(self, scenario):
        img = random_rgb(8)
        out = preprocess(img, scenario)
        assert out.shape == (6, 5, scenario.input_channels) and out.dtype == np.float64

    def test_augmented_is_deterministic_under_seed(self):
        images = random_rgb(9).pixels[None]
        a = preprocess_batch(images, AUG, augment_draws(AUG, make_rng(123, 2), 1))
        b = preprocess_batch(images, AUG, augment_draws(AUG, make_rng(123, 2), 1))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scenario", [s for s in Scenario if s is not AUG])
    def test_a_pipeline_that_is_not_random_draws_nothing(self, scenario):
        rng = make_rng(99)
        assert augment_draws(scenario, rng, 3) is None
        assert rng.bit_generator.state == make_rng(99).bit_generator.state

    def test_test_mode_aug_equals_hsv_gray(self):
        img = random_rgb(11)
        assert np.array_equal(preprocess(img, AUG), preprocess(img, Scenario.HSV_GRAY))

    def test_aug_without_rng_rejected(self):
        with pytest.raises(InvalidInputError):
            preprocess_batch(random_rgb(12).pixels[None], AUG, augment_draws(AUG, None, 1))

    def test_non_rgb_input_rejected(self):
        # the image type refuses one channel, so preprocess never sees it
        with pytest.raises(InvalidInputError):
            preprocess(RasterImage(np.zeros((2, 2, 1))), Scenario.GRAY)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_augmented_output_stays_in_unit_range(self, seed):
        images = random_rgb(13).pixels[None]
        out = preprocess_batch(images, AUG, augment_draws(AUG, make_rng(seed, 2), 1))
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.shape[3] == 4

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_flip_commutes_with_colorspace_conversion(self, seed):
        px = np.random.default_rng(seed).random((4, 5, 3))
        for flip in (np.s_[:, ::-1], np.s_[::-1]):
            assert np.array_equal(rgb_to_hsv_pixels(px[flip]), rgb_to_hsv_pixels(px)[flip])

    def test_batch_preprocess_shapes_and_determinism(self):
        images = np.random.default_rng(14).random((3, 8, 8, 3)).astype(np.float32)
        a = preprocess_batch(images, AUG, augment_draws(AUG, make_rng(5, 2, 1), 3))
        b = preprocess_batch(images, AUG, augment_draws(AUG, make_rng(5, 2, 1), 3))
        assert a.shape == (3, 8, 8, 4) and a.dtype == np.float32
        assert np.array_equal(a, b)


class TestScenario:
    def test_from_tag(self):
        assert Scenario.from_tag("HSV_GRAY_AUG") is Scenario.HSV_GRAY_AUG
        with pytest.raises(InvalidInputError):
            Scenario.from_tag("sepia")

    def test_channel_table(self):
        got = {s.value: s.input_channels for s in Scenario}
        assert got == {"gray": 1, "rgb": 3, "hsv": 3, "hsv_gray": 4, "hsv_gray_aug": 4}
