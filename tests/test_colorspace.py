"""The RGB/HSV kernels against their plain-formula oracles, bit for bit.

Equality is checked on uint64 views of the float64 results, so -0.0 and 0.0
count as different and so would any NaN payload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fruitnet.imaging import hsv_to_rgb_pixels, rgb_to_hsv_pixels

from helpers import hsv_to_rgb_oracle, rgb_to_hsv_oracle


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert not differ.any(), f"{differ.sum()} values differ, first at {np.argwhere(differ)[0]}"


ONE_MINUS_EPS = float(np.nextafter(1.0, 0.0))
# the edges of the unit range, including -0.0, which passes the [0, 1] check
UNIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, ONE_MINUS_EPS]), st.floats(0.0, 1.0))


@st.composite
def pixel_grids(draw, elements, last):
    """A (h, w, 3) float64 grid, sometimes as a mirrored view like the flips
    of the augmentation pipeline; last(draw, px) may then rewrite it."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    px = draw(hnp.arrays(np.float64, (h, w, 3), elements=elements))
    last(draw, px)
    return px[:, ::-1] if draw(st.booleans()) else px


def force_ties(draw, px):
    """Per pixel, leave it, or copy r to g, g to b or r to b, or make it
    achromatic (all three channels equal)."""
    tie = draw(hnp.arrays(np.int8, px.shape[:2], elements=st.integers(0, 4)))
    px[tie == 1, 1] = px[tie == 1, 0]
    px[tie == 2, 2] = px[tie == 2, 1]
    px[tie == 3, 2] = px[tie == 3, 0]
    px[tie == 4] = px[tie == 4][:, :1]


def wide_hue(draw, px):
    """Hue anywhere on a few turns of the circle, not only in [0, 1]."""
    if draw(st.booleans()):
        px[..., 0] = draw(hnp.arrays(np.float64, px.shape[:2], elements=st.floats(-3.0, 3.0)))


@given(pixel_grids(UNIT, force_ties))
@settings(max_examples=400, deadline=None)
def test_rgb_to_hsv_is_the_oracle_bit_for_bit(px):
    assert_same_bits(rgb_to_hsv_pixels(px), rgb_to_hsv_oracle(px))


@given(pixel_grids(UNIT, wide_hue))
@settings(max_examples=400, deadline=None)
def test_hsv_to_rgb_is_the_oracle_bit_for_bit(px):
    assert_same_bits(hsv_to_rgb_pixels(px), hsv_to_rgb_oracle(px))


EDGE_RGB = [
    [1.0, 0.0, 1e-17],  # hue rounds up to exactly 1.0, which wraps to 0.0
    [1.0, 1e-17, 0.0],
    [0.0, 0.0, 0.0],
    [-0.0, 0.0, -0.0],
    [0.5, 0.5, 0.5],
    [1.0, 1.0, 0.0],  # r and g tie at the max: the r formula wins
    [0.0, 1.0, 1.0],  # g and b tie: the g formula wins
    [1.0, 0.0, 1.0],  # r and b tie: the r formula wins
    [5e-324, 0.0, 0.0],
]
EDGE_HSV = [[h, s, v] for h in (0.0, 1.0, ONE_MINUS_EPS, -1e-17, 1 / 6, 5 / 6) for s in (0.0, 1.0) for v in (0.0, 1.0)]


def test_edge_pixels_are_the_oracle_bit_for_bit():
    rgb, hsv = np.array(EDGE_RGB), np.array(EDGE_HSV)
    assert_same_bits(rgb_to_hsv_pixels(rgb), rgb_to_hsv_oracle(rgb))
    assert_same_bits(hsv_to_rgb_pixels(hsv), hsv_to_rgb_oracle(hsv))


def test_round_trip_is_the_oracle_round_trip_on_a_random_image():
    px = np.random.default_rng(4).random((50, 60, 3))
    assert_same_bits(hsv_to_rgb_pixels(rgb_to_hsv_pixels(px)), hsv_to_rgb_oracle(rgb_to_hsv_oracle(px)))


def test_kernels_return_fresh_arrays_and_leave_the_input_alone():
    px = np.random.default_rng(5).random((3, 4, 3))
    before = px.copy()
    for kernel in (rgb_to_hsv_pixels, hsv_to_rgb_pixels):
        out = kernel(px)
        assert not np.shares_memory(out, px) and out.flags.writeable
        assert_same_bits(px, before)


@pytest.mark.slow
def test_rgb_to_hsv_is_the_oracle_on_every_8bit_colour():
    # 2^24 colours, one red level (256 x 256 greens and blues) at a time
    levels = np.arange(256) / 255.0
    gb = np.stack(np.meshgrid(levels, levels, indexing="ij"), axis=-1)
    px = np.empty((256, 256, 3))
    px[..., 1:] = gb
    for red in levels:
        px[..., 0] = red
        assert_same_bits(rgb_to_hsv_pixels(px), rgb_to_hsv_oracle(px))
