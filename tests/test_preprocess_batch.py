"""The batched preprocessing path against the per-image public operations:
the augmentation oracle, preprocess on each image, and the batch input check."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.augmentation import Scenario, augment_draws, preprocess, preprocess_batch
from fruitnet.errors import InvalidInputError
from fruitnet.imaging import RasterImage
from fruitnet.seeding import make_rng

from helpers import hsv_gray_aug_oracle

# white, mid gray and black: the achromatic pixels where hue is undefined
ACHROMATIC = np.array([[255, 255, 255], [128, 128, 128], [0, 0, 0]])


def u8_batch(seed: int, b: int, h: int, w: int) -> np.ndarray:
    """A float32 batch on the 8-bit grid, as shards deliver it, with about a
    third of the pixels achromatic and at least one of each kind."""
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, (b, h, w, 3))
    pick = rng.integers(0, 2 * len(ACHROMATIC), (b, h, w))
    special = pick < len(ACHROMATIC)
    px[special] = ACHROMATIC[pick[special]]
    flat = px.reshape(-1, 3)
    flat[: len(ACHROMATIC)] = ACHROMATIC
    return px.astype(np.float32) / np.float32(255.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(3, 6),
)
@settings(max_examples=60, deadline=None)
def test_batched_augmentation_matches_per_image_oracle(seed, b, h, w):
    images = u8_batch(seed, b, h, w)
    rng, oracle_rng = make_rng(seed, 2), make_rng(seed, 2)
    draws = augment_draws(Scenario.HSV_GRAY_AUG, rng, b)
    got = preprocess_batch(images, Scenario.HSV_GRAY_AUG, draws)
    want = hsv_gray_aug_oracle(images, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state  # same draws, same count
    hue_gap = np.abs(got[..., 0] - want[..., 0]) % 1.0
    assert np.minimum(hue_gap, 1.0 - hue_gap).max() < 1e-6
    assert np.abs(got[..., 1:] - want[..., 1:]).max() < 1e-6


@given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_block_draw_equals_the_per_image_draw_sequence(seed, n):
    rng, per_image = make_rng(seed, 2), make_rng(seed, 2)
    block = augment_draws(Scenario.HSV_GRAY_AUG, rng, n)
    assert block.shape == (n, 4)
    for u_hue, u_sat, u_hflip, u_vflip in block:
        # the mapping the pipeline applies to each row, with the published values
        assert -0.02 + (0.02 - -0.02) * u_hue == per_image.uniform(-0.02, 0.02)
        assert 0.9 + (1.2 - 0.9) * u_sat == per_image.uniform(0.9, 1.2)
        assert (u_hflip < 0.5) == (per_image.random() < 0.5)
        assert (u_vflip < 0.5) == (per_image.random() < 0.5)
    assert rng.bit_generator.state == per_image.bit_generator.state


def test_slices_with_their_rows_of_the_block_equal_the_whole_batch():
    images = u8_batch(4, 5, 6, 7)
    block = augment_draws(Scenario.HSV_GRAY_AUG, make_rng(4, 2), len(images))
    whole = preprocess_batch(images, Scenario.HSV_GRAY_AUG, block)
    for rows in (slice(0, 3), slice(3, 5)):
        got = preprocess_batch(images[rows], Scenario.HSV_GRAY_AUG, block[rows])
        assert np.array_equal(got, whole[rows])
    with pytest.raises(InvalidInputError, match="augment draws"):
        preprocess_batch(images, Scenario.HSV_GRAY_AUG, block[:3])


@pytest.mark.parametrize("scenario", list(Scenario))
def test_preprocess_and_preprocess_batch_agree(scenario):
    images = u8_batch(3, 4, 5, 7)
    batch = preprocess_batch(images, scenario)
    for i, px in enumerate(images):
        out = preprocess(RasterImage(px.astype(np.float64)), scenario)
        assert out.dtype == np.float64
        assert np.array_equal(out.astype(np.float32), batch[i])


@pytest.mark.parametrize(
    "shape, value",
    [
        ((2, 4, 4), 0.5),  # no channel axis
        ((2, 4, 4, 4), 0.5),  # four channels
        ((2, 0, 4, 3), 0.5),  # empty images
        ((2, 4, 4, 3), np.nan),
        ((2, 4, 4, 3), 1.5),
        ((2, 4, 4, 3), -0.25),
    ],
)
def test_batch_input_is_checked_once_for_the_whole_batch(shape, value):
    images = np.full(shape, 0.5, dtype=np.float32)
    if images.size:
        images.flat[-1] = value
    for scenario in (Scenario.RGB, Scenario.HSV_GRAY_AUG):
        with pytest.raises(InvalidInputError):
            preprocess_batch(images, scenario, augment_draws(scenario, make_rng(0), len(images)))


def test_batch_rejects_a_missing_rng():
    images = np.full((1, 2, 2, 3), 0.5, dtype=np.float32)
    with pytest.raises(InvalidInputError, match="needs an rng"):
        preprocess_batch(images, Scenario.HSV_GRAY_AUG, augment_draws(Scenario.HSV_GRAY_AUG, None, 1))


def test_a_pipeline_that_is_not_random_refuses_augment_draws():
    images = u8_batch(5, 2, 3, 3)
    draws = augment_draws(Scenario.HSV_GRAY_AUG, make_rng(5, 2), len(images))
    for scenario in (Scenario.GRAY, Scenario.RGB, Scenario.HSV, Scenario.HSV_GRAY):
        with pytest.raises(InvalidInputError, match="hsv_gray_aug takes"):
            preprocess_batch(images, scenario, draws)


# sha256 prefixes of the float32 outputs, computed with the plain-formula
# colorspace conversions (the oracles in helpers.py); the kernels must keep them
PINNED_BATCH_DIGESTS = {
    ("gray", "train"): "0897ed343c41aaeb",
    ("gray", "test"): "0897ed343c41aaeb",
    ("rgb", "train"): "ac18fdc6ef1dd2fd",
    ("rgb", "test"): "ac18fdc6ef1dd2fd",
    ("hsv", "train"): "e67b3065bf986874",
    ("hsv", "test"): "e67b3065bf986874",
    ("hsv_gray", "train"): "e1b052bef1ca0647",
    ("hsv_gray", "test"): "e1b052bef1ca0647",
    ("hsv_gray_aug", "train"): "c56a43f24271305b",
    ("hsv_gray_aug", "test"): "e1b052bef1ca0647",
}


@pytest.mark.parametrize("mode", ["train", "test"])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_batch_outputs_match_their_pinned_digests(scenario, mode):
    images = u8_batch(20, 4, 12, 12)
    images[:, 0, :, 1] = images[:, 0, :, 0]  # r = g
    images[:, 1, :, 2] = images[:, 1, :, 1]  # g = b
    images[:, 2, :, 2] = images[:, 2, :, 0]  # r = b
    draws = augment_draws(scenario, make_rng(9, 2), len(images)) if mode == "train" else None
    out = preprocess_batch(images, scenario, draws)
    assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == PINNED_BATCH_DIGESTS[scenario.value, mode]
