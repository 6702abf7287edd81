import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.errors import FormatError, InvalidInputError
from fruitnet.imaging import (
    BackgroundMask,
    Colorspace,
    FloodFillParams,
    RasterImage,
    concat_hsv_gray,
    flood_fill_background,
    hsv_to_rgb,
    read_ppm,
    remove_background,
    resize_bilinear,
    rgb_to_gray,
    rgb_to_hsv,
    to_u8,
    write_ppm,
)

from helpers import floodfill_bfs_oracle


def rgb(pixels) -> RasterImage:
    return RasterImage(np.asarray(pixels, dtype=np.float64), Colorspace.RGB)


def random_rgb(rng, h, w) -> RasterImage:
    return rgb(rng.random((h, w, 3)))


class TestRasterImage:
    def test_empty_image_rejected(self):
        with pytest.raises(InvalidInputError):
            RasterImage(np.zeros((0, 5, 3)), Colorspace.RGB)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            rgb(np.full((2, 2, 3), 1.5))

    def test_channel_count_must_match_colorspace(self):
        with pytest.raises(InvalidInputError):
            RasterImage(np.zeros((2, 2, 3)), Colorspace.GRAY)


class TestFloodFill:
    def test_uniform_image_fully_marked(self):
        mask = flood_fill_background(rgb(np.full((3, 3, 3), 0.5)), FloodFillParams(0.1))
        assert mask.marked.all()

    def test_zero_threshold_marks_border_only(self):
        rng = np.random.default_rng(0)
        img = random_rgb(rng, 6, 7)
        mask = flood_fill_background(img, FloodFillParams(0.0))
        expected = np.zeros((6, 7), dtype=bool)
        expected[0, :] = expected[-1, :] = True
        expected[:, 0] = expected[:, -1] = True
        assert np.array_equal(mask.marked, expected)

    def test_matches_bfs_oracle_on_random_images(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            img = random_rgb(rng, 16, 16)
            mask = flood_fill_background(img, FloodFillParams(0.2))
            oracle = floodfill_bfs_oracle(img.pixels, 0.2)
            assert np.array_equal(mask.marked, oracle)

    def test_blob_is_protected(self):
        # bright blob on a dark background: fill stops at the color jump
        px = np.full((9, 9, 3), 0.1)
        px[3:6, 3:6] = 0.9
        mask = flood_fill_background(rgb(px), FloodFillParams(0.3))
        assert mask.marked.sum() == 81 - 9
        assert not mask.marked[3:6, 3:6].any()

    def test_mask_is_a_fixed_point(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            img = random_rgb(rng, 12, 12)
            t = 0.25
            marked = flood_fill_background(img, FloodFillParams(t)).marked
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
        small = flood_fill_background(img, FloodFillParams(t1)).marked
        large = flood_fill_background(img, FloodFillParams(t1 + extra)).marked
        assert (small <= large).all()

    def test_wrong_colorspace_rejected(self):
        gray = RasterImage(np.zeros((2, 2, 1)), Colorspace.GRAY)
        with pytest.raises(InvalidInputError):
            flood_fill_background(gray, FloodFillParams(0.1))

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            FloodFillParams(-0.5)


class TestRemoveBackground:
    def test_all_marked_gives_white(self):
        rng = np.random.default_rng(1)
        img = random_rgb(rng, 4, 4)
        out = remove_background(img, BackgroundMask(np.ones((4, 4), dtype=bool)))
        assert (out.pixels == 1.0).all()

    def test_nothing_marked_is_identity(self):
        rng = np.random.default_rng(2)
        img = random_rgb(rng, 4, 4)
        out = remove_background(img, BackgroundMask(np.zeros((4, 4), dtype=bool)))
        assert np.array_equal(out.pixels, img.pixels)

    def test_unmarked_pixels_bit_identical_with_oracle_mask(self):
        px = np.full((10, 10, 3), 0.2)
        px[4:7, 4:7] = np.array([0.9, 0.3, 0.1])
        img = rgb(px)
        oracle = floodfill_bfs_oracle(img.pixels, 0.4)
        out = remove_background(img, BackgroundMask(oracle))
        assert (out.pixels[oracle] == 1.0).all()
        assert np.array_equal(out.pixels[~oracle], img.pixels[~oracle])

    def test_dimension_mismatch_rejected(self):
        img = rgb(np.zeros((3, 3, 3)))
        with pytest.raises(InvalidInputError):
            remove_background(img, BackgroundMask(np.zeros((2, 3), dtype=bool)))


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
        img = RasterImage(ramp[..., None], Colorspace.GRAY)
        out = resize_bilinear(img, 2, 2)
        expected = np.array([[ramp[0, 0], ramp[0, 3]], [ramp[3, 0], ramp[3, 3]]])
        assert np.allclose(out.pixels[..., 0], expected, atol=1e-15)

    def test_midpoint_interpolation_matches_hand_formula(self):
        # 4x4 -> 3x3 puts the middle sample at source coordinate 1.5 on both
        # axes: the hand-evaluated bilinear value is the mean of the 4 center
        # pixels; edge-midpoints average 2 pixels
        ramp = (np.arange(4)[:, None] * 0.11 + np.arange(4)[None, :] * 0.023)
        img = RasterImage(ramp[..., None], Colorspace.GRAY)
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
        assert (out.height, out.width, out.channels) == (oh, ow, 3)


class TestColorspaces:
    def test_pure_red_to_hsv(self):
        out = rgb_to_hsv(rgb([[[1.0, 0.0, 0.0]]]))
        assert np.allclose(out.pixels[0, 0], [0.0, 1.0, 1.0])

    def test_achromatic_pixel(self):
        out = rgb_to_hsv(rgb([[[0.5, 0.5, 0.5]]]))
        assert np.allclose(out.pixels[0, 0], [0.0, 0.0, 0.5])

    def test_hsv_red_back_to_rgb(self):
        hsv = RasterImage(np.array([[[0.0, 1.0, 1.0]]]), Colorspace.HSV)
        assert np.allclose(hsv_to_rgb(hsv).pixels[0, 0], [1.0, 0.0, 0.0])

    def test_zero_saturation_ignores_hue(self):
        hsv = RasterImage(np.array([[[0.73, 0.0, 0.4]]]), Colorspace.HSV)
        assert np.allclose(hsv_to_rgb(hsv).pixels[0, 0], [0.4, 0.4, 0.4])

    def test_round_trip_on_random_pixels(self):
        rng = np.random.default_rng(11)
        img = rgb(rng.random((10, 100, 3)))
        back = hsv_to_rgb(rgb_to_hsv(img))
        assert np.abs(back.pixels - img.pixels).max() < 1e-6

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_round_trip_per_pixel(self, r, g, b):
        img = rgb([[[r, g, b]]])
        back = hsv_to_rgb(rgb_to_hsv(img))
        assert np.abs(back.pixels - img.pixels).max() < 1e-6

    def test_gray_weights(self):
        assert rgb_to_gray(rgb([[[1.0, 1.0, 1.0]]])).pixels[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert rgb_to_gray(rgb([[[1.0, 0.0, 0.0]]])).pixels[0, 0, 0] == 0.299
        assert rgb_to_gray(rgb([[[0.0, 1.0, 0.0]]])).pixels[0, 0, 0] == 0.587

    def test_conversions_reject_wrong_colorspace(self):
        hsv = RasterImage(np.zeros((2, 2, 3)), Colorspace.HSV)
        gray = RasterImage(np.zeros((2, 2, 1)), Colorspace.GRAY)
        for fn, bad in ((rgb_to_hsv, hsv), (rgb_to_gray, hsv), (hsv_to_rgb, gray)):
            with pytest.raises(InvalidInputError):
                fn(bad)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conversions_preserve_size_and_range(self, seed):
        rng = np.random.default_rng(seed)
        img = random_rgb(rng, 5, 4)
        for out in (rgb_to_hsv(img), rgb_to_gray(img)):
            assert (out.height, out.width) == (5, 4)
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestConcat:
    def test_red_pixel_composition(self):
        red = rgb([[[1.0, 0.0, 0.0]]])
        merged = concat_hsv_gray(rgb_to_hsv(red), rgb_to_gray(red))
        assert np.allclose(merged.pixels[0, 0], [0.0, 1.0, 1.0, 0.299])

    def test_shapes_propagate(self):
        rng = np.random.default_rng(5)
        img = random_rgb(rng, 100, 100)
        merged = concat_hsv_gray(rgb_to_hsv(img), rgb_to_gray(img))
        assert merged.pixels.shape == (100, 100, 4)
        assert merged.colorspace is Colorspace.HSV_GRAY

    def test_channel_projections_reproduce_inputs(self):
        rng = np.random.default_rng(6)
        img = random_rgb(rng, 7, 3)
        hsv, gray = rgb_to_hsv(img), rgb_to_gray(img)
        merged = concat_hsv_gray(hsv, gray)
        assert np.array_equal(merged.pixels[..., :3], hsv.pixels)
        assert np.array_equal(merged.pixels[..., 3:], gray.pixels)

    def test_size_mismatch_rejected(self):
        hsv = RasterImage(np.zeros((2, 2, 3)), Colorspace.HSV)
        gray = RasterImage(np.zeros((3, 2, 1)), Colorspace.GRAY)
        with pytest.raises(InvalidInputError):
            concat_hsv_gray(hsv, gray)


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
        gray = RasterImage(np.zeros((2, 2, 1)), Colorspace.GRAY)
        with pytest.raises(InvalidInputError):
            write_ppm(gray, tmp_path / "g.ppm")


@pytest.mark.parametrize("dims", [b"-5 -5", b"0 0", b"0 5"])
def test_non_positive_ppm_dims_are_a_format_error(tmp_path, dims):
    path = tmp_path / "dims.ppm"
    path.write_bytes(b"P6\n" + dims + b"\n255\n" + bytes(75))
    with pytest.raises(FormatError) as err:
        read_ppm(path)
    assert err.value.path == path
    assert err.value.offset is not None
