"""Pixel-level primitives: background extraction, rescaling, colorspace conversion.

A RasterImage is an RGB photo: float64 (height, width, 3) in [0, 1], checked
when it is made.  Background extraction, rescaling and PPM I/O take and give
RasterImages; a background mask is a plain (height, width) bool array, True
on background.  The colorspace math works on plain (..., 3) float arrays (the
*_pixels functions), which is all that preprocessing needs.  The RGB/HSV
conversions are Smith's hexcone transform pair; they are exact, faster
rewrites of the plain formulas kept as oracles in tests/helpers.py, and
return the same float64 bits.  All operations here are pure functions of
their inputs and can be called concurrently from any number of threads.

Standalone I/O uses binary PPM (P6, 8-bit, maxval 255); byte values map to
floats as v / 255 and back as round(v * 255) clamped to [0, 255], which
returns every byte unchanged.  read_ppm scales the raster to floats; a shard
build reads the raster bytes themselves (_read_ppm_raster), with the same
checks.
"""

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError


# ITU-R BT.601 luma weights
GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def check_unit_range(px: np.ndarray) -> None:
    """Raise InvalidInputError unless every value is finite and lies in [0, 1]."""
    if not px.size:
        return
    # NaN propagates through min and max and fails both comparisons; an
    # infinity lands in one of them
    lo, hi = px.min(), px.max()
    if not (0.0 <= lo and hi <= 1.0):
        if np.isfinite(lo) and np.isfinite(hi):
            raise InvalidInputError("pixel values must lie in [0, 1]")
        raise InvalidInputError("pixel values must be finite")


@dataclass(frozen=True)
class RasterImage:
    """RGB image with shape (height, width, 3), float64 values in [0, 1].

    The pixels are a read-only copy of what the image was made from, so no
    later write can break the range checked here.  The functions of this
    module adopt the arrays they make themselves instead of copying them."""

    pixels: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.pixels, dtype=np.float64))

    @classmethod
    def _adopt(cls, px: np.ndarray) -> "RasterImage":
        """Wrap a float64 array that nothing else holds, checked and made
        read-only but not copied."""
        img = object.__new__(cls)
        img._own(px)
        return img

    def _own(self, px: np.ndarray) -> None:
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)
        if px.ndim != 3 or px.shape[2] != 3:
            raise InvalidInputError(f"pixels must be (height, width, 3), got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise InvalidInputError("empty image")
        check_unit_range(px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class FloodFillParams:
    """Flood-fill tuning; the color-distance threshold is set per input.

    Connectivity is fixed at the 4-neighborhood.
    """

    threshold: float

    def __post_init__(self):
        if not self.threshold >= 0:  # also refuses NaN, which no distance is below
            raise InvalidInputError(f"threshold must be >= 0, got {self.threshold}")


def _close_to_neighbour(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Whether the Euclidean RGB distance between matching pixels of a and b
    is below t; the squares are summed r, g, b in that order."""
    d2 = a - b
    d2 *= d2
    d = d2[..., 0] + d2[..., 1]
    d += d2[..., 2]
    return np.sqrt(d, out=d) < t


def flood_fill_background(img: RasterImage, params: FloodFillParams) -> np.ndarray:
    """Mark the background by growing inward from the image border; returns
    a (height, width) bool array, True on background.

    Every border pixel is marked.  A pixel joins the mask when some already
    marked 4-neighbor is closer to it than the threshold (Euclidean distance
    over RGB in [0, 1], strict inequality), repeated until nothing changes.
    The result is the unique fixed point of that expansion, so it does not
    depend on traversal order.

    The fill works on runs: maximal horizontal or vertical stretches of
    pixels, each close to the next.  A marked pixel pulls its whole run into
    the fixed point, and no run holds pixels both inside and outside it.  So
    a row sweep, which marks every horizontal run that holds a marked pixel,
    and a column sweep, which does the same for vertical runs, never leave
    the fixed point.  They alternate until one adds nothing to what the other
    left; the mask is then closed under both, so under every single step,
    and it is the fixed point.  Each sweep is a few passes over the image;
    the number of sweeps grows with the number of turns on the longest path
    from the border into the background (two for a blob on a smooth
    backdrop, about one per turn of a 1-pixel staircase or spiral corridor).
    """
    px = img.pixels
    h, w = img.height, img.width
    t = params.threshold

    # a run starts at every pixel that is not close to its left (upper) neighbour;
    # run ids count the starts, row by row for horizontal runs and down each
    # column for vertical ones, where k * w + column keeps the columns apart
    starts = np.ones((h, w), dtype=bool)
    np.logical_not(_close_to_neighbour(px[:, 1:], px[:, :-1], t), out=starts[:, 1:])
    ids_h = np.cumsum(starts, axis=None)
    starts[0, :] = True
    np.logical_not(_close_to_neighbour(px[1:, :], px[:-1, :], t), out=starts[1:, :])
    ids_v = np.cumsum(starts, axis=0)
    ids_v *= w
    ids_v += np.arange(w)

    marked = np.zeros((h, w), dtype=bool)
    marked[0, :] = marked[-1, :] = True
    marked[:, 0] = marked[:, -1] = True
    marked = marked.ravel()
    count = -1
    for ids in itertools.cycle((ids_h, ids_v.ravel())):
        hit = np.zeros((h + 1) * w, dtype=bool)  # every run id is below (h + 1) * w
        hit[ids[marked]] = True
        marked = hit[ids]
        grown = np.count_nonzero(marked)
        if grown == count:
            break
        count = grown
    return marked.reshape(h, w)


def remove_background(img: RasterImage, mask: np.ndarray) -> RasterImage:
    """Fill masked pixels with white; unmasked pixels pass through untouched.
    The mask is read as bool and must have the image's (height, width) shape."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (img.height, img.width):
        raise InvalidInputError(f"mask of shape {mask.shape} does not match image {img.height}x{img.width}")
    return RasterImage._adopt(np.where(mask[..., None], 1.0, img.pixels))


def _axis_coords(n_in: int, n_out: int) -> np.ndarray:
    # corner-aligned source coordinates
    if n_out == 1:
        return np.zeros(1)
    return np.arange(n_out) * ((n_in - 1) / (n_out - 1))


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a * (1 - f) + b * f, computed in a and b."""
    a *= 1.0 - f
    b *= f
    a += b
    return a


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
    # one weight per channel, so the column products run over whole rows
    fc = np.repeat((cols - c0)[:, None], 3, axis=1)

    top, bot = px.take(r0, axis=0), px.take(r1, axis=0)
    top = _lerp(top.take(c0, axis=1), top.take(c1, axis=1), fc)
    bot = _lerp(bot.take(c0, axis=1), bot.take(c1, axis=1), fc)
    out = _lerp(top, bot, fr)
    # interpolation is convex; clip only guards against rounding spill
    return RasterImage._adopt(np.clip(out, 0.0, 1.0, out=out))


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


# one PPM header token after whitespace and comments (to the end of the line);
# \s is the ASCII whitespace of bytes.isspace()
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _read_ppm_raster(path) -> np.ndarray:
    """The raster of a binary PPM (P6, maxval 255): a read-only uint8
    (height, width, 3) view of the file's bytes, not a copy."""
    path = Path(path)
    data = path.read_bytes()
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        match = _PPM_TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise FormatError("unexpected end of PPM header", path=path, offset=pos)
        return match[1]

    def next_int() -> int:
        token = next_token()
        if not token.isdigit():  # ASCII digits only: int() would also take a sign or "_"
            raise FormatError(f"malformed PPM header: {token!r} is not a decimal number", path=path, offset=pos)
        return int(token)

    magic = next_token()
    if magic != b"P6":
        raise FormatError(f"not a binary PPM (magic {magic!r})", path=path, offset=0)
    width, height, maxval = next_int(), next_int(), next_int()
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255", path=path, offset=pos)
    if width < 1 or height < 1:
        raise FormatError(f"image dims must be positive, got {width}x{height}", path=path, offset=pos)
    pos = min(pos + 1, len(data))  # single whitespace byte separates header from raster; it may be cut off
    need = width * height * 3
    if len(data) - pos < need:
        raise FormatError(f"truncated raster: expected {need} bytes, got {len(data) - pos}", path=path, offset=pos)
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(height, width, 3)


def read_ppm(path) -> RasterImage:
    """Read a binary PPM (P6, maxval 255) as an RGB image."""
    return RasterImage._adopt(_read_ppm_raster(path) / 255.0)


def to_u8(img: RasterImage) -> np.ndarray:
    """Quantize to uint8 via round(v * 255), clamped."""
    q = img.pixels * 255.0
    np.rint(q, out=q)
    return np.clip(q, 0, 255, out=q).astype(np.uint8)


def write_ppm(img: RasterImage, path) -> None:
    """Write an RGB image as binary PPM (P6, maxval 255)."""
    path = Path(path)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + to_u8(img).tobytes())
