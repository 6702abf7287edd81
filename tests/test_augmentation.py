import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.augmentation import AugmentConfig, Scenario, augment_draws, preprocess, preprocess_batch
from fruitnet.errors import InvalidInputError
from fruitnet.imaging import RasterImage, hsv_to_rgb_pixels, rgb_to_hsv_pixels
from fruitnet.seeding import make_rng

# train-mode hsv_gray_aug with one knob left free: the others are pinned to
# no hue shift, no saturation change and no flips
STILL = dict(hue_max_delta=0.0, sat_lower=1.0, sat_upper=1.0, flip_prob=0.0)


def rgb(pixels) -> RasterImage:
    return RasterImage(np.asarray(pixels, dtype=np.float64))


def random_rgb(seed, h=6, w=5) -> RasterImage:
    return rgb(np.random.default_rng(seed).random((h, w, 3)))


def augmented(img: RasterImage, seed: int = 0, **knobs) -> np.ndarray:
    """Train-mode hsv_gray_aug of img with the STILL config overridden by knobs."""
    config = AugmentConfig(**{**STILL, **knobs})
    return preprocess(img, Scenario.HSV_GRAY_AUG, "train", make_rng(seed, 2), config)


def draws(seed: int, config: AugmentConfig) -> tuple:
    """The hue shift, saturation factor and flips that augmented(..., seed) draws."""
    rng = make_rng(seed, 2)
    delta = rng.uniform(-config.hue_max_delta, config.hue_max_delta)
    factor = rng.uniform(config.sat_lower, config.sat_upper)
    return delta, factor, rng.random() < config.flip_prob, rng.random() < config.flip_prob


class TestAdjustHue:
    def test_zero_delta_is_identity(self):
        img = random_rgb(0)
        out = augmented(img, sat_lower=1.0, sat_upper=1.0, flip_prob=0.0)
        assert np.abs(out - preprocess(img, Scenario.HSV_GRAY, "test")).max() < 1e-6

    def test_red_plus_half_turn_is_cyan(self):
        hsv = rgb_to_hsv_pixels(np.array([[[1.0, 0.0, 0.0]]]))
        hsv[..., 0] = (hsv[..., 0] + 0.5) % 1.0
        assert np.allclose(hsv_to_rgb_pixels(hsv)[0, 0], [0.0, 1.0, 1.0], atol=1e-12)

    def test_hue_wraps_around(self):
        # the first seed whose draw carries hue 0.99 past 1.0
        config = AugmentConfig(**{**STILL, "hue_max_delta": 0.02})
        seed = next(s for s in range(100) if draws(s, config)[0] > 0.011)
        start = rgb(hsv_to_rgb_pixels(np.array([[[0.99, 1.0, 1.0]]])))
        hue = augmented(start, seed, hue_max_delta=0.02)[0, 0, 0]
        assert hue == pytest.approx(0.99 + draws(seed, config)[0] - 1.0, abs=1e-9)


class TestAdjustSaturation:
    def test_factor_one_is_identity(self):
        img = random_rgb(2)
        out = augmented(img, hue_max_delta=0.0, sat_lower=1.0, sat_upper=1.0)
        assert np.abs(out - preprocess(img, Scenario.HSV_GRAY, "test")).max() < 1e-6

    def test_gray_pixel_is_fixed_point(self):
        img = rgb([[[0.4, 0.4, 0.4]]])
        out = augmented(img, sat_lower=1.2, sat_upper=1.2)
        assert np.allclose(out, preprocess(img, Scenario.HSV_GRAY, "test"), atol=1e-12)

    def test_saturation_clamps_at_one(self):
        out = augmented(rgb([[[1.0, 0.0, 0.0]]]), sat_lower=1.2, sat_upper=1.2)
        assert out[0, 0, 1] == pytest.approx(1.0, abs=1e-12)


class TestFlip:
    def test_double_flip_is_identity(self):
        img = random_rgb(4)
        flipped = rgb(img.pixels[::-1, ::-1])
        assert np.array_equal(augmented(flipped, flip_prob=1.0), augmented(img))
        assert not np.array_equal(augmented(img, flip_prob=1.0), augmented(img))

    def test_one_by_two_horizontal(self):
        img = rgb([[[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]])
        out = augmented(img, flip_prob=1.0)
        assert np.allclose(out[0, 0, 2:], 0.9) and np.allclose(out[0, 1, 2:], 0.1)

    def test_matches_index_reversal_oracle(self):
        # flip_prob 0.5 over eight seeds draws all four flip combinations
        img = random_rgb(5, h=4, w=7)
        config = AugmentConfig(**{**STILL, "flip_prob": 0.5})
        seen = set()
        for seed in range(8):
            _, _, horizontal, vertical = draws(seed, config)
            seen.add((horizontal, vertical))
            want = np.empty_like(img.pixels)
            for r in range(4):
                for c in range(7):
                    want[r, c] = img.pixels[4 - 1 - r if vertical else r, 7 - 1 - c if horizontal else c]
            assert np.array_equal(augmented(img, seed, flip_prob=0.5), augmented(rgb(want), seed))
        assert len(seen) == 4


class TestPreprocess:
    def test_rgb_scenario_is_identity(self):
        img = random_rgb(7)
        for mode in ("train", "test"):
            out = preprocess(img, Scenario.RGB, mode)
            assert np.array_equal(out, img.pixels)

    def test_hsv_gray_on_pure_red(self):
        out = preprocess(rgb([[[1.0, 0.0, 0.0]]]), Scenario.HSV_GRAY, "test")
        assert np.allclose(out[0, 0], [0.0, 1.0, 1.0, 0.299])

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_channel_counts_match_scenario(self, scenario):
        img = random_rgb(8)
        out = preprocess(img, scenario, "test")
        assert out.shape == (6, 5, scenario.input_channels) and out.dtype == np.float64

    def test_augmented_is_deterministic_under_seed(self):
        img = random_rgb(9)
        a = preprocess(img, Scenario.HSV_GRAY_AUG, "train", make_rng(123, 2))
        b = preprocess(img, Scenario.HSV_GRAY_AUG, "train", make_rng(123, 2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_test_mode_consumes_zero_draws(self, scenario):
        img = random_rgb(10)
        rng = make_rng(99)
        preprocess(img, scenario, "test", rng)
        assert rng.bit_generator.state == make_rng(99).bit_generator.state

    def test_test_mode_aug_equals_hsv_gray(self):
        img = random_rgb(11)
        a = preprocess(img, Scenario.HSV_GRAY_AUG, "test")
        b = preprocess(img, Scenario.HSV_GRAY, "test")
        assert np.array_equal(a, b)

    def test_train_aug_without_rng_rejected(self):
        with pytest.raises(InvalidInputError):
            preprocess(random_rgb(12), Scenario.HSV_GRAY_AUG, "train")

    def test_non_rgb_input_rejected(self):
        # the image type refuses one channel, so preprocess never sees it
        with pytest.raises(InvalidInputError):
            preprocess(RasterImage(np.zeros((2, 2, 1))), Scenario.GRAY, "test")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_augmented_output_stays_in_unit_range(self, seed):
        img = random_rgb(13)
        out = preprocess(img, Scenario.HSV_GRAY_AUG, "train", make_rng(seed, 2))
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.shape[2] == 4

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_flip_commutes_with_colorspace_conversion(self, seed):
        px = np.random.default_rng(seed).random((4, 5, 3))
        for flip in (np.s_[:, ::-1], np.s_[::-1]):
            assert np.array_equal(rgb_to_hsv_pixels(px[flip]), rgb_to_hsv_pixels(px)[flip])

    def test_batch_preprocess_shapes_and_determinism(self):
        images = np.random.default_rng(14).random((3, 8, 8, 3)).astype(np.float32)
        aug = Scenario.HSV_GRAY_AUG
        a = preprocess_batch(images, aug, augment_draws(aug, "train", make_rng(5, 2, 1), 3))
        b = preprocess_batch(images, aug, augment_draws(aug, "train", make_rng(5, 2, 1), 3))
        assert a.shape == (3, 8, 8, 4) and a.dtype == np.float32
        assert np.array_equal(a, b)


class TestAugmentConfig:
    def test_defaults(self):
        cfg = AugmentConfig()
        assert (cfg.hue_max_delta, cfg.sat_lower, cfg.sat_upper, cfg.flip_prob) == (0.02, 0.9, 1.2, 0.5)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(InvalidInputError):
            AugmentConfig(hue_max_delta=0.7)
        with pytest.raises(InvalidInputError):
            AugmentConfig(sat_lower=0.0)
        with pytest.raises(InvalidInputError):
            AugmentConfig(sat_lower=1.3, sat_upper=1.2)


class TestScenario:
    def test_from_tag(self):
        assert Scenario.from_tag("HSV_GRAY_AUG") is Scenario.HSV_GRAY_AUG
        with pytest.raises(InvalidInputError):
            Scenario.from_tag("sepia")

    def test_channel_table(self):
        got = {s.value: s.input_channels for s in Scenario}
        assert got == {"gray": 1, "rgb": 3, "hsv": 3, "hsv_gray": 4, "hsv_gray_aug": 4}
