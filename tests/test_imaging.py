import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.errors import FormatError, InvalidInputError
from fruitnet.augmentation import Scenario, preprocess
from fruitnet.imaging import (
    FloodFillParams,
    RasterImage,
    check_unit_range,
    flood_fill_background,
    hsv_to_rgb_pixels,
    read_ppm,
    remove_background,
    resize_bilinear,
    rgb_to_gray_pixels,
    rgb_to_hsv_pixels,
    to_u8,
    write_ppm,
)

from helpers import PpmOracleError, damage, floodfill_bfs_oracle, read_ppm_oracle


def rgb(pixels) -> RasterImage:
    return RasterImage(np.asarray(pixels, dtype=np.float64))


def random_rgb(rng, h, w) -> RasterImage:
    return rgb(rng.random((h, w, 3)))


class TestRasterImage:
    def test_empty_image_rejected(self):
        with pytest.raises(InvalidInputError):
            RasterImage(np.zeros((0, 5, 3)))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            rgb(np.full((2, 2, 3), 1.5))

    def test_channel_count_must_match_colorspace(self):
        # the colorspace is RGB: three channels, no more, no fewer
        for shape in ((2, 2, 1), (2, 2, 4), (2, 2)):
            with pytest.raises(InvalidInputError):
                RasterImage(np.zeros(shape))

    def test_pixels_are_a_read_only_copy(self):
        source = np.full((2, 3, 3), 0.5)
        img = RasterImage(source)
        source[0, 0, 0] = 2.0  # the caller's array stays the caller's
        assert not np.shares_memory(img.pixels, source)
        out = preprocess(img, Scenario.RGB)  # the RGB scenario hands out img.pixels
        with pytest.raises(ValueError):
            out[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 2.0
        assert (img.pixels == 0.5).all()


@pytest.mark.parametrize(
    "values, message",
    [
        ([0.5, np.nan], "finite"),
        ([0.5, np.inf], "finite"),
        ([-np.inf, 0.5], "finite"),
        ([np.nan, 2.0], "finite"),
        ([-0.5, np.inf], "finite"),
        ([-0.5, 0.5], r"lie in \[0, 1\]"),
        ([0.5, 1.5], r"lie in \[0, 1\]"),
    ],
)
def test_unit_range_prefers_the_finiteness_message(values, message):
    # a non-finite value is reported as such, also beside an out-of-range one;
    # NaN fails both comparisons, an infinity lands in min or max
    for dtype in (np.float32, np.float64):
        with pytest.raises(InvalidInputError, match=message):
            check_unit_range(np.array(values, dtype=dtype))


def test_unit_range_accepts_the_closed_interval_and_empty_arrays():
    check_unit_range(np.array([0.0, -0.0, 1.0]))
    check_unit_range(np.zeros((0, 3)))


class TestFloodFill:
    def test_uniform_image_fully_marked(self):
        mask = flood_fill_background(rgb(np.full((3, 3, 3), 0.5)), FloodFillParams(0.1))
        assert mask.all()

    def test_zero_threshold_marks_border_only(self):
        rng = np.random.default_rng(0)
        img = random_rgb(rng, 6, 7)
        mask = flood_fill_background(img, FloodFillParams(0.0))
        expected = np.zeros((6, 7), dtype=bool)
        expected[0, :] = expected[-1, :] = True
        expected[:, 0] = expected[:, -1] = True
        assert np.array_equal(mask, expected)

    def test_matches_bfs_oracle_on_random_images(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            img = random_rgb(rng, 16, 16)
            mask = flood_fill_background(img, FloodFillParams(0.2))
            oracle = floodfill_bfs_oracle(img.pixels, 0.2)
            assert np.array_equal(mask, oracle)

    def test_blob_is_protected(self):
        # bright blob on a dark background: fill stops at the color jump
        px = np.full((9, 9, 3), 0.1)
        px[3:6, 3:6] = 0.9
        mask = flood_fill_background(rgb(px), FloodFillParams(0.3))
        assert mask.sum() == 81 - 9
        assert not mask[3:6, 3:6].any()

    def test_mask_is_a_fixed_point(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            img = random_rgb(rng, 12, 12)
            t = 0.25
            marked = flood_fill_background(img, FloodFillParams(t))
            px = img.pixels
            # one more expansion round must add nothing
            for r in range(12):
                for c in range(12):
                    if marked[r, c]:
                        continue
                    for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                        if 0 <= rr < 12 and 0 <= cc < 12 and marked[rr, cc]:
                            d = np.sqrt(((px[r, c] - px[rr, cc]) ** 2).sum())
                            assert not d < t

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.3), st.floats(0.0, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_mask_monotone_in_threshold(self, seed, t1, extra):
        rng = np.random.default_rng(seed)
        img = random_rgb(rng, 8, 8)
        small = flood_fill_background(img, FloodFillParams(t1))
        large = flood_fill_background(img, FloodFillParams(t1 + extra))
        assert (small <= large).all()

    def test_wrong_colorspace_rejected(self):
        # the image type refuses one channel, so flood fill never sees it
        with pytest.raises(InvalidInputError):
            flood_fill_background(RasterImage(np.zeros((2, 2, 1))), FloodFillParams(0.1))

    def test_the_mask_is_a_bool_array_of_the_image_shape(self):
        mask = flood_fill_background(random_rgb(np.random.default_rng(4), 5, 7), FloodFillParams(0.2))
        assert type(mask) is np.ndarray and mask.dtype == bool and mask.shape == (5, 7)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            FloodFillParams(-0.5)


class TestRemoveBackground:
    def test_all_marked_gives_white(self):
        rng = np.random.default_rng(1)
        img = random_rgb(rng, 4, 4)
        out = remove_background(img, np.ones((4, 4), dtype=bool))
        assert (out.pixels == 1.0).all()

    def test_nothing_marked_is_identity(self):
        rng = np.random.default_rng(2)
        img = random_rgb(rng, 4, 4)
        out = remove_background(img, np.zeros((4, 4), dtype=bool))
        assert np.array_equal(out.pixels, img.pixels)

    def test_unmarked_pixels_bit_identical_with_oracle_mask(self):
        px = np.full((10, 10, 3), 0.2)
        px[4:7, 4:7] = np.array([0.9, 0.3, 0.1])
        img = rgb(px)
        oracle = floodfill_bfs_oracle(img.pixels, 0.4)
        out = remove_background(img, oracle)
        assert (out.pixels[oracle] == 1.0).all()
        assert np.array_equal(out.pixels[~oracle], img.pixels[~oracle])

    def test_dimension_mismatch_rejected(self):
        img = rgb(np.zeros((3, 3, 3)))
        with pytest.raises(InvalidInputError):
            remove_background(img, np.zeros((2, 3), dtype=bool))

    def test_a_zero_one_uint8_mask_is_read_as_bool(self):
        img = random_rgb(np.random.default_rng(3), 4, 4)
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0] = 1
        out = remove_background(img, mask)
        assert (out.pixels[0] == 1.0).all()
        assert np.array_equal(out.pixels[1:], img.pixels[1:])

    def test_a_mask_with_a_channel_axis_is_refused(self):
        img = rgb(np.zeros((3, 3, 3)))
        with pytest.raises(InvalidInputError, match=r"mask of shape \(3, 3, 1\)"):
            remove_background(img, np.ones((3, 3, 1), dtype=bool))


class TestResize:
    def test_identity_resize_is_exact(self):
        rng = np.random.default_rng(3)
        img = random_rgb(rng, 17, 9)
        out = resize_bilinear(img, 17, 9)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_image_stays_constant(self):
        out = resize_bilinear(rgb(np.full((2, 2, 3), 0.37)), 100, 100)
        assert out.pixels.shape == (100, 100, 3)
        assert np.allclose(out.pixels, 0.37, atol=1e-12)

    def test_downscale_ramp_hits_corners(self):
        # corner alignment: a 4x4 -> 2x2 resize samples exactly the corners
        ramp = np.arange(16, dtype=np.float64).reshape(4, 4) / 15.0
        img = rgb(np.repeat(ramp[..., None], 3, axis=2))
        out = resize_bilinear(img, 2, 2)
        expected = np.array([[ramp[0, 0], ramp[0, 3]], [ramp[3, 0], ramp[3, 3]]])
        for c in range(3):
            assert np.allclose(out.pixels[..., c], expected, atol=1e-15)

    def test_midpoint_interpolation_matches_hand_formula(self):
        # 4x4 -> 3x3 puts the middle sample at source coordinate 1.5 on both
        # axes: the hand-evaluated bilinear value is the mean of the 4 center
        # pixels; edge-midpoints average 2 pixels
        ramp = (np.arange(4)[:, None] * 0.11 + np.arange(4)[None, :] * 0.023)
        img = rgb(np.stack([ramp, 1.0 - ramp, ramp], axis=-1))
        out = resize_bilinear(img, 3, 3).pixels[..., 0]
        assert out[1, 1] == pytest.approx(ramp[1:3, 1:3].mean(), abs=1e-15)
        assert out[0, 1] == pytest.approx(ramp[0, 1:3].mean(), abs=1e-15)
        assert out[1, 0] == pytest.approx(ramp[1:3, 0].mean(), abs=1e-15)
        assert out[2, 2] == ramp[3, 3]

    def test_zero_target_rejected(self):
        with pytest.raises(InvalidInputError):
            resize_bilinear(rgb(np.zeros((2, 2, 3))), 0, 10)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_output_stays_in_unit_range(self, seed, oh, ow):
        rng = np.random.default_rng(seed)
        out = resize_bilinear(random_rgb(rng, 5, 6), oh, ow)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0
        assert out.pixels.shape == (oh, ow, 3)


class TestColorspaces:
    def test_pure_red_to_hsv(self):
        assert np.allclose(rgb_to_hsv_pixels(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 1.0])

    def test_achromatic_pixel(self):
        assert np.allclose(rgb_to_hsv_pixels(np.array([0.5, 0.5, 0.5])), [0.0, 0.0, 0.5])

    def test_hsv_red_back_to_rgb(self):
        assert np.allclose(hsv_to_rgb_pixels(np.array([0.0, 1.0, 1.0])), [1.0, 0.0, 0.0])

    def test_zero_saturation_ignores_hue(self):
        assert np.allclose(hsv_to_rgb_pixels(np.array([0.73, 0.0, 0.4])), [0.4, 0.4, 0.4])

    def test_round_trip_on_random_pixels(self):
        px = np.random.default_rng(11).random((10, 100, 3))
        back = hsv_to_rgb_pixels(rgb_to_hsv_pixels(px))
        assert np.abs(back - px).max() < 1e-6

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_round_trip_per_pixel(self, r, g, b):
        px = np.array([r, g, b])
        assert np.abs(hsv_to_rgb_pixels(rgb_to_hsv_pixels(px)) - px).max() < 1e-6

    def test_gray_weights(self):
        assert rgb_to_gray_pixels(np.array([1.0, 1.0, 1.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert rgb_to_gray_pixels(np.array([1.0, 0.0, 0.0]))[0] == 0.299
        assert rgb_to_gray_pixels(np.array([0.0, 1.0, 0.0]))[0] == 0.587

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conversions_preserve_size_and_range(self, seed):
        px = np.random.default_rng(seed).random((5, 4, 3))
        for out, depth in ((rgb_to_hsv_pixels(px), 3), (rgb_to_gray_pixels(px), 1)):
            assert out.shape == (5, 4, depth)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestConcat:
    """The hsv_gray scenario: HSV with the luma appended as channel 3."""

    def test_red_pixel_composition(self):
        merged = preprocess(rgb([[[1.0, 0.0, 0.0]]]), Scenario.HSV_GRAY)
        assert np.allclose(merged[0, 0], [0.0, 1.0, 1.0, 0.299])

    def test_shapes_propagate(self):
        rng = np.random.default_rng(5)
        merged = preprocess(random_rgb(rng, 100, 100), Scenario.HSV_GRAY)
        assert merged.shape == (100, 100, 4)

    def test_channel_projections_reproduce_inputs(self):
        rng = np.random.default_rng(6)
        img = random_rgb(rng, 7, 3)
        merged = preprocess(img, Scenario.HSV_GRAY)
        assert np.array_equal(merged[..., :3], preprocess(img, Scenario.HSV))
        assert np.array_equal(merged[..., 3:], preprocess(img, Scenario.GRAY))


class TestPpm:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        raw = rng.integers(0, 256, size=(9, 5, 3), dtype=np.uint8)
        img = rgb(raw.astype(np.float64) / 255.0)
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        assert np.array_equal(to_u8(back), raw)
        assert np.array_equal(back.pixels, img.pixels)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes([0, 0, 0, 255, 255, 255]))
        img = read_ppm(path)
        assert img.width == 2 and img.height == 1
        assert np.allclose(img.pixels[0, 1], 1.0)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError) as err:
            read_ppm(path)
        assert err.value.offset == 0

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x01\x02")
        with pytest.raises(FormatError) as err:
            read_ppm(path)
        assert "truncated" in str(err.value)

    def test_write_requires_rgb(self, tmp_path):
        # the image type refuses one channel, so no PPM is written
        with pytest.raises(InvalidInputError):
            write_ppm(RasterImage(np.zeros((2, 2, 1))), tmp_path / "g.ppm")
        assert not (tmp_path / "g.ppm").exists()


@pytest.mark.parametrize("dims", [b"-5 -5", b"0 0", b"0 5"])
def test_non_positive_ppm_dims_are_a_format_error(tmp_path, dims):
    path = tmp_path / "dims.ppm"
    path.write_bytes(b"P6\n" + dims + b"\n255\n" + bytes(75))
    with pytest.raises(FormatError) as err:
        read_ppm(path)
    assert err.value.path == path
    assert err.value.offset is not None


@pytest.mark.parametrize(
    "header, token",
    [(b"P6 +1 0_1 255", b"+1"), (b"P6 1 0_1 255", b"0_1"), (b"P6 1 1 2_5_5", b"2_5_5"), (b"P6 1 1 255.0", b"255.0")],
)
def test_ppm_header_numbers_must_be_decimal_digits(tmp_path, header, token):
    # int() takes a sign and "_" separators; a PPM header number is digits only
    path = tmp_path / "sign.ppm"
    path.write_bytes(header + b"\n" + bytes(3))
    with pytest.raises(FormatError, match=re.escape(f"{token!r} is not a decimal number")) as err:
        read_ppm(path)
    assert err.value.offset == header.index(token) + len(token)


def test_ppm_header_numbers_may_have_leading_zeros(tmp_path):
    path = tmp_path / "zeros.ppm"
    path.write_bytes(b"P6 01 001 0255\n" + bytes([1, 2, 3]))
    assert np.array_equal(to_u8(read_ppm(path)), [[[1, 2, 3]]])


_PPM = b"P6\n# a comment\n3 2\n255\n" + bytes(range(0, 180, 10))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_ppm_is_a_format_error_or_a_valid_image(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "img.ppm"
    damaged = damage(data, _PPM)
    path.write_bytes(damaged)
    try:
        img = read_ppm(path)
    except FormatError as err:
        assert err.path == path and 0 <= err.offset <= len(damaged)
        return
    assert img.pixels.ndim == 3 and img.pixels.shape[2] == 3 and img.pixels.size > 0
    assert 0.0 <= img.pixels.min() and img.pixels.max() <= 1.0


# every whitespace byte, comments ended by LF and by CR, a comment straight
# after a token, and one whitespace byte before the 2x1 raster
_SPACED_PPM = b"P6\t# first\r2 # second\n\x0b1\x0c\r\n255\n" + bytes([0, 128, 255, 7, 8, 9])


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_read_ppm_agrees_with_the_byte_by_byte_oracle(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("ppm") / "img.ppm"
    damaged = _SPACED_PPM if data.draw(st.booleans(), label="intact") else damage(data, _SPACED_PPM)
    path.write_bytes(damaged)
    try:
        raster = read_ppm_oracle(damaged)
    except PpmOracleError as want:
        with pytest.raises(FormatError) as got:
            read_ppm(path)
        assert str(got.value) == str(FormatError(want.message, path=path, offset=want.offset))
        return
    assert np.array_equal(read_ppm(path).pixels, raster.astype(np.float64) / 255.0)


def test_every_byte_value_round_trips_through_the_float_scale():
    v = np.repeat(np.arange(256, dtype=np.uint8).reshape(1, 256, 1), 3, axis=2)
    assert np.array_equal(to_u8(RasterImage(v / 255.0)), v)
