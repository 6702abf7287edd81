"""Pixel-level primitives: background extraction, rescaling, colorspace conversion.

Images are float arrays in [0, 1].  All operations here are pure functions of
their inputs and can be called concurrently from any number of threads.  The
colorspace math works on plain (..., 3) float arrays (the *_pixels functions).
The RGB/HSV conversions are Smith's hexcone transform pair; they are exact,
faster rewrites of the plain formulas kept as oracles in tests/helpers.py,
and return the same float64 bits.

Standalone I/O uses binary PPM (P6, 8-bit, maxval 255); byte values map to
floats as v / 255 and back as round(v * 255) clamped to [0, 255].
"""

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError


class Colorspace(str, Enum):
    RGB = "rgb"
    HSV = "hsv"
    GRAY = "gray"
    HSV_GRAY = "hsv_gray"


CHANNELS_FOR = {
    Colorspace.RGB: 3,
    Colorspace.HSV: 3,
    Colorspace.GRAY: 1,
    Colorspace.HSV_GRAY: 4,
}

# ITU-R BT.601 luma weights
GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def check_unit_range(px: np.ndarray) -> None:
    """Raise InvalidInputError unless every value is finite and lies in [0, 1]."""
    if not np.isfinite(px).all():
        raise InvalidInputError("pixel values must be finite")
    if px.size and (px.min() < 0.0 or px.max() > 1.0):
        raise InvalidInputError("pixel values must lie in [0, 1]")


@dataclass(frozen=True)
class RasterImage:
    """Float image with shape (height, width, channels), values in [0, 1]."""

    pixels: np.ndarray
    colorspace: Colorspace = Colorspace.RGB

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        object.__setattr__(self, "pixels", px)
        if px.ndim != 3:
            raise InvalidInputError(f"pixels must be (height, width, channels), got shape {px.shape}")
        h, w, c = px.shape
        if h < 1 or w < 1:
            raise InvalidInputError("empty image")
        expected = CHANNELS_FOR[self.colorspace]
        if c != expected:
            raise InvalidInputError(f"{self.colorspace.value} image needs {expected} channels, got {c}")
        check_unit_range(px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class BackgroundMask:
    """Boolean mask per pixel; True marks background."""

    marked: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.marked, dtype=bool)
        object.__setattr__(self, "marked", m)
        if m.ndim != 2:
            raise InvalidInputError(f"mask must be 2-d, got shape {m.shape}")

    @property
    def height(self) -> int:
        return self.marked.shape[0]

    @property
    def width(self) -> int:
        return self.marked.shape[1]


@dataclass(frozen=True)
class FloodFillParams:
    """Flood-fill tuning; the color-distance threshold is set per input.

    Connectivity is fixed at the 4-neighborhood.
    """

    threshold: float

    def __post_init__(self):
        if self.threshold < 0:
            raise InvalidInputError(f"threshold must be >= 0, got {self.threshold}")


def _require(img: RasterImage, space: Colorspace, op: str):
    if img.colorspace is not space:
        raise InvalidInputError(f"{op} expects a {space.value} image, got {img.colorspace.value}")


def flood_fill_background(img: RasterImage, params: FloodFillParams) -> BackgroundMask:
    """Mark the background by growing inward from the image border.

    Every border pixel is marked.  A pixel joins the mask when some already
    marked 4-neighbor is closer to it than the threshold (Euclidean distance
    over RGB in [0, 1], strict inequality), repeated until nothing changes.
    The result is the unique fixed point of that expansion, so it does not
    depend on traversal order.
    """
    _require(img, Colorspace.RGB, "flood_fill_background")
    px = img.pixels
    h, w = img.height, img.width
    t = params.threshold

    # pairwise color distances between vertical / horizontal neighbors
    close_v = np.sqrt(((px[1:, :] - px[:-1, :]) ** 2).sum(axis=-1)) < t  # (h-1, w)
    close_h = np.sqrt(((px[:, 1:] - px[:, :-1]) ** 2).sum(axis=-1)) < t  # (h, w-1)

    marked = np.zeros((h, w), dtype=bool)
    marked[0, :] = marked[-1, :] = True
    marked[:, 0] = marked[:, -1] = True

    frontier = marked.copy()
    while frontier.any():
        new = np.zeros_like(marked)
        new[1:, :] |= frontier[:-1, :] & close_v
        new[:-1, :] |= frontier[1:, :] & close_v
        new[:, 1:] |= frontier[:, :-1] & close_h
        new[:, :-1] |= frontier[:, 1:] & close_h
        new &= ~marked
        marked |= new
        frontier = new
    return BackgroundMask(marked)


def remove_background(img: RasterImage, mask: BackgroundMask) -> RasterImage:
    """Fill masked pixels with white; unmasked pixels pass through untouched."""
    _require(img, Colorspace.RGB, "remove_background")
    if (mask.height, mask.width) != (img.height, img.width):
        raise InvalidInputError(
            f"mask {mask.height}x{mask.width} does not match image {img.height}x{img.width}"
        )
    out = img.pixels.copy()
    out[mask.marked] = 1.0
    return RasterImage(out, Colorspace.RGB)


def _axis_coords(n_in: int, n_out: int) -> np.ndarray:
    # corner-aligned source coordinates
    if n_out == 1:
        return np.zeros(1)
    return np.arange(n_out) * ((n_in - 1) / (n_out - 1))


def resize_bilinear(img: RasterImage, out_h: int, out_w: int) -> RasterImage:
    """Resize with bilinear interpolation on corner-aligned coordinates."""
    if out_h < 1 or out_w < 1:
        raise InvalidInputError(f"target dimensions must be >= 1, got {out_h}x{out_w}")
    px = img.pixels
    h, w = img.height, img.width

    rows = _axis_coords(h, out_h)
    cols = _axis_coords(w, out_w)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rows - r0)[:, None, None]
    fc = (cols - c0)[None, :, None]

    top = px[r0][:, c0] * (1.0 - fc) + px[r0][:, c1] * fc
    bot = px[r1][:, c0] * (1.0 - fc) + px[r1][:, c1] * fc
    out = top * (1.0 - fr) + bot * fr
    # interpolation is convex; clip only guards against rounding spill
    return RasterImage(np.clip(out, 0.0, 1.0), img.colorspace)


def rgb_to_hsv_pixels(px: np.ndarray) -> np.ndarray:
    """RGB to HSV on a float array (..., 3); hue, saturation and value all in [0, 1]."""
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    out = np.empty(maxc.shape + (3,), dtype=maxc.dtype)
    out[..., 2] = maxc
    # where maxc is 0, delta is 0 too, so the saturation is 0
    np.divide(delta, np.where(maxc > 0, maxc, 1.0), out=out[..., 1])

    # the max channel picks the hue sector (r before g before b on ties); a
    # gray pixel has delta 0 and numerator g - b = 0, so its hue is 0
    is_r = maxc == r
    is_g = maxc == g
    hue = np.where(is_r, g - b, np.where(is_g, b - r, r - g))
    hue /= np.where(delta > 0, delta, 1.0)
    # adding 6 to a negative r-sector quotient is its % 6.0 on (-6, 6)
    hue += np.where(is_r, np.where(hue < 0, 6.0, 0.0), np.where(is_g, 2.0, 4.0))
    hue /= 6.0
    hue[hue == 1.0] = 0.0  # the hue's % 1.0 on [0, 1]
    out[..., 0] = hue
    return out


# hsv_to_rgb_pixels: for each hue sector, the candidate (v, q, p, t) that
# becomes r, g and b; h6 can round up to 6.0, which is sector 0 again
_SECTOR_RGB = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3], [2, 1, 0], [3, 2, 0], [0, 2, 1], [0, 3, 2]])


def hsv_to_rgb_pixels(px: np.ndarray) -> np.ndarray:
    """Inverse of rgb_to_hsv_pixels up to floating-point rounding, clipped to [0, 1]."""
    h, s, v = px[..., 0], px[..., 1], px[..., 2]
    h6 = (h - np.floor(h)) * 6.0  # h - floor(h) is h % 1.0 for finite h
    sector = np.floor(h6)
    f = h6 - sector
    cand = np.empty(h.shape + (4,), dtype=h6.dtype)
    cand[..., 0] = v
    np.multiply(v, 1.0 - s * f, out=cand[..., 1])
    np.multiply(v, 1.0 - s, out=cand[..., 2])
    np.multiply(v, 1.0 - s * (1.0 - f), out=cand[..., 3])

    # gather every channel at once from the flat (pixel, candidate) array
    idx = _SECTOR_RGB.take(sector.astype(np.intp), axis=0)
    idx += np.arange(0, cand.size, 4).reshape(h.shape + (1,))
    out = cand.ravel().take(idx)
    return np.clip(out, 0.0, 1.0, out=out)


def rgb_to_gray_pixels(px: np.ndarray) -> np.ndarray:
    """Luma of a float RGB array (..., 3) as (..., 1): 0.299 R + 0.587 G + 0.114 B."""
    wr, wg, wb = GRAY_WEIGHTS
    gray = wr * px[..., 0] + wg * px[..., 1] + wb * px[..., 2]
    return np.clip(gray, 0.0, 1.0)[..., None]


def rgb_to_hsv(img: RasterImage) -> RasterImage:
    """Per-pixel RGB to HSV with hue, saturation and value all in [0, 1]."""
    _require(img, Colorspace.RGB, "rgb_to_hsv")
    return RasterImage(rgb_to_hsv_pixels(img.pixels), Colorspace.HSV)


def hsv_to_rgb(img: RasterImage) -> RasterImage:
    """Inverse of rgb_to_hsv up to floating-point rounding."""
    _require(img, Colorspace.HSV, "hsv_to_rgb")
    return RasterImage(hsv_to_rgb_pixels(img.pixels), Colorspace.RGB)


def rgb_to_gray(img: RasterImage) -> RasterImage:
    """Single-channel luma: 0.299 R + 0.587 G + 0.114 B."""
    _require(img, Colorspace.RGB, "rgb_to_gray")
    return RasterImage(rgb_to_gray_pixels(img.pixels), Colorspace.GRAY)


def concat_hsv_gray(hsv: RasterImage, gray: RasterImage) -> RasterImage:
    """Stack a grayscale channel under an HSV image as channel 3."""
    _require(hsv, Colorspace.HSV, "concat_hsv_gray")
    _require(gray, Colorspace.GRAY, "concat_hsv_gray")
    if (hsv.height, hsv.width) != (gray.height, gray.width):
        raise InvalidInputError(
            f"hsv {hsv.height}x{hsv.width} and gray {gray.height}x{gray.width} differ in size"
        )
    merged = np.concatenate([hsv.pixels, gray.pixels], axis=-1)
    return RasterImage(merged, Colorspace.HSV_GRAY)


def read_ppm(path) -> RasterImage:
    """Read a binary PPM (P6, maxval 255) as an RGB image."""
    path = Path(path)
    data = path.read_bytes()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":  # comment runs to end of line
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("unexpected end of PPM header", path=path, offset=pos)
        return data[start:pos]

    magic = token()
    if magic != b"P6":
        raise FormatError(f"not a binary PPM (magic {magic!r})", path=path, offset=0)
    try:
        width = int(token())
        height = int(token())
        maxval = int(token())
    except ValueError as exc:
        raise FormatError(f"malformed PPM header: {exc}", path=path, offset=pos) from exc
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255", path=path, offset=pos)
    if width < 1 or height < 1:
        raise FormatError(f"image dims must be positive, got {width}x{height}", path=path, offset=pos)
    pos = min(pos + 1, len(data))  # single whitespace byte separates header from raster; it may be cut off
    need = width * height * 3
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise FormatError(
            f"truncated raster: expected {need} bytes, got {len(raster)}", path=path, offset=pos
        )
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return RasterImage(arr.astype(np.float64) / 255.0, Colorspace.RGB)


def to_u8(img: RasterImage) -> np.ndarray:
    """Quantize to uint8 via round(v * 255), clamped."""
    return np.clip(np.rint(img.pixels * 255.0), 0, 255).astype(np.uint8)


def write_ppm(img: RasterImage, path) -> None:
    """Write an RGB image as binary PPM (P6, maxval 255)."""
    _require(img, Colorspace.RGB, "write_ppm")
    path = Path(path)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + to_u8(img).tobytes())
