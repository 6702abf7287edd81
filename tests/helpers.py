"""Independent oracles used by the test suite.

These are deliberately naive, straight-line implementations written before
and apart from the library code they check: a queue BFS for flood fill, a
six-loop direct convolution and its scatter-form input gradient, the
whole-batch width-only patch convolution that the conv layers once used,
loop max pooling and the whole-batch pooling formula the pool layer once
used, central finite differences, a scalar Adam recurrence, the plain
formulas of the RGB/HSV conversions, the per-image augmentation pipeline
composed from those formulas, a list shuffle buffer over record numbers,
a byte-by-byte PPM header parse, a struct-only shard parse, and the
whole-array truncated-normal resampling that weight init once used.  None of them calls into fruitnet,
except the float decode that shard builds once made of every PPM, which is
kept as the library's own float functions composed.
damage() draws the damaged files that the format fuzz tests feed to the
readers.
"""

import itertools
import math
import struct
from collections import deque

import numpy as np
from hypothesis import strategies as st

from fruitnet.imaging import read_ppm, resize_bilinear, to_u8


def floodfill_bfs_oracle(pixels: np.ndarray, threshold: float) -> np.ndarray:
    """Queue-based BFS flood fill from the border; marks background pixels.

    A neighbor is marked when its Euclidean RGB distance to the already
    marked pixel it is reached from is strictly below the threshold.
    """
    h, w, _ = pixels.shape
    marked = np.zeros((h, w), dtype=bool)
    queue = deque()
    for r in range(h):
        for c in range(w):
            if r in (0, h - 1) or c in (0, w - 1):
                marked[r, c] = True
                queue.append((r, c))
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and not marked[rr, cc]:
                d = math.sqrt(float(((pixels[rr, cc] - pixels[r, c]) ** 2).sum()))
                if d < threshold:
                    marked[rr, cc] = True
                    queue.append((rr, cc))
    return marked


def conv2d_same_oracle(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Direct six-loop convolution, stride 1, SAME zero padding."""
    n, h, wd, ci = x.shape
    k = w.shape[0]
    co = w.shape[3]
    beg = (k - 1) // 2
    y = np.zeros((n, h, wd, co), dtype=np.float64)
    for b in range(n):
        for p in range(h):
            for q in range(wd):
                for o in range(co):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            rr, cc = p + u - beg, q + v - beg
                            if 0 <= rr < h and 0 <= cc < wd:
                                for c in range(ci):
                                    acc += x[b, rr, cc, c] * w[u, v, c, o]
                    y[b, p, q, o] = acc + bias[o]
    return y


def conv2d_grad_x_oracle(grad_y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of the SAME convolution by direct scatter: every output
    position pushes its gradient, through the kernel, back onto each input
    pixel it read."""
    n, h, wd, _ = grad_y.shape
    k, _, ci, _ = w.shape
    beg = (k - 1) // 2
    gx = np.zeros((n, h, wd, ci), dtype=np.float64)
    for b in range(n):
        for p in range(h):
            for q in range(wd):
                for u in range(k):
                    for v in range(k):
                        rr, cc = p + u - beg, q + v - beg
                        if 0 <= rr < h and 0 <= cc < wd:
                            gx[b, rr, cc] += w[u, v] @ grad_y[b, p, q]
    return gx


def _batch_row_patches(x: np.ndarray, k: int, beg: int, end: int) -> np.ndarray:
    """The whole batch's width-only patch matrix of x zero-padded by beg/end
    rows and columns: (n, (h + k - 1) * w, k * c)."""
    n, h, wd, c = x.shape
    xpad = np.pad(x, ((0, 0), (beg, end), (beg, end), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xpad, k, axis=2)
    return win.transpose(0, 1, 2, 4, 3).reshape(n, (h + k - 1) * wd, k * c)


def _batch_correlate(cols: np.ndarray, w: np.ndarray, h: int, wd: int) -> np.ndarray:
    k, _, ci, co = w.shape
    w = w.reshape(k, k * ci, co)
    y = np.empty((cols.shape[0], h * wd, co), dtype=np.result_type(cols, w))
    for img, out in zip(cols, y):
        np.matmul(img[: h * wd], w[0], out=out)
        for u in range(1, k):
            out += img[u * wd : (u + h) * wd] @ w[u]
    return y


def conv2d_batch_patches(x: np.ndarray, w: np.ndarray, bias: np.ndarray, grad_y: np.ndarray) -> tuple:
    """SAME convolution as the conv layers computed it from one patch matrix
    spanning the whole batch: k GEMMs per image for the output, the k-row
    grad_w loop over the same matrix, and grad_x as the correlation of grad_y
    with the flipped kernel, padding sides swapped.  Returns (y, grad_x,
    grad_w, grad_b) from the same GEMMs in the same order, so a per-image
    rewrite must match it bit for bit."""
    n, h, wd, _ = x.shape
    k, _, ci, co = w.shape
    beg = (k - 1) // 2
    end = k - 1 - beg
    cols = _batch_row_patches(x, k, beg, end)
    y = _batch_correlate(cols, w, h, wd)
    y += bias
    gy = grad_y.reshape(n, h * wd, co)
    grad_w = np.zeros((k, k * ci, co), dtype=np.result_type(cols, gy))
    for img, g in zip(cols, gy):
        for u in range(k):
            grad_w[u] += img[u * wd : (u + h) * wd].T @ g
    w_flip = w[::-1, ::-1].transpose(0, 1, 3, 2)
    grad_x = _batch_correlate(_batch_row_patches(grad_y, k, end, beg), w_flip, h, wd)
    return (
        y.reshape(n, h, wd, co),
        grad_x.reshape(n, h, wd, ci),
        grad_w.reshape(k, k, ci, co),
        gy.sum(axis=(0, 1)),
    )


def maxpool_oracle(x: np.ndarray, grad_y: np.ndarray) -> tuple:
    """2 x 2, stride-2, SAME max pooling by loops: the pooled values and the
    input gradient, which goes to the first maximum of each window in
    row-major order; window cells past the edge are skipped."""
    n, h, w, c = x.shape
    oh, ow = -(-h // 2), -(-w // 2)
    y = np.zeros((n, oh, ow, c), dtype=np.float64)
    gx = np.zeros(x.shape, dtype=np.float64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    best = None
                    for r, s in ((2 * i, 2 * j), (2 * i, 2 * j + 1), (2 * i + 1, 2 * j), (2 * i + 1, 2 * j + 1)):
                        if r < h and s < w and (best is None or x[b, r, s, ch] > x[best + (ch,)]):
                            best = (b, r, s)
                    y[b, i, j, ch] = x[best + (ch,)]
                    gx[best + (ch,)] += grad_y[b, i, j, ch]
    return y, gx


def maxpool_whole_batch(x: np.ndarray) -> tuple:
    """The whole-batch 2 x 2, stride-2, SAME max pooling that the pool layer
    once used, kept verbatim: the pooled values and the cache
    ((n, h, w, c), idx), idx the int8 first-max position in row-major window
    order.  A window holding NaN takes the bottom row's branch."""
    x = np.asarray(x)
    n, h, w, c = x.shape
    oh, ow = -(-h // 2), -(-w // 2)
    if h % 2 or w % 2:
        x = np.pad(x, ((0, 0), (0, 2 * oh - h), (0, 2 * ow - w), (0, 0)), constant_values=-np.inf)
    a, b, d, e = x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]
    top, bottom = np.maximum(a, b), np.maximum(d, e)
    # window position in row-major order (0,0), (0,1), (1,0), (1,1); the
    # first maximum wins ties
    idx = np.where(top >= bottom, b > a, (e > d) + np.int8(2))
    return np.maximum(top, bottom), ((n, h, w, c), idx)


def finite_difference(f, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() with respect to arr, in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        plus = f()
        arr[idx] = old - eps
        minus = f()
        arr[idx] = old
        grad[idx] = (plus - minus) / (2.0 * eps)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def adam_scalar_oracle(p0: float, grads, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam recurrence on one scalar parameter; returns the history."""
    p, m, v = p0, 0.0, 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(p)
    return history


def shuffle_oracle(n: int, capacity: int, batch_size: int, rng):
    """Endless batches of record numbers from a list shuffle buffer over an
    endless file-order cycle of range(n): the buffer is filled with the first
    capacity elements, then per record one scalar draw picks the slot that
    is emitted and refilled with the next element."""
    stream = itertools.cycle(range(n))
    buf = [next(stream) for _ in range(capacity)]
    while True:
        batch = []
        for _ in range(batch_size):
            j = int(rng.integers(capacity))
            batch.append(buf[j])
            buf[j] = next(stream)
        yield batch


def rgb_to_hsv_oracle(px: np.ndarray) -> np.ndarray:
    """Smith's hexcone RGB to HSV as plain formulas: all three hue candidates,
    picked by np.select (achromatic, then max in r, then g, else b), with
    float % to wrap; hue, saturation and value in [0, 1]."""
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    maxc = px.max(axis=-1)
    minc = px.min(axis=-1)
    delta = maxc - minc

    v = maxc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)

    safe = np.where(delta > 0, delta, 1.0)
    hue_r = ((g - b) / safe) % 6.0
    hue_g = (b - r) / safe + 2.0
    hue_b = (r - g) / safe + 4.0
    hue = np.select([delta == 0, maxc == r, maxc == g], [0.0, hue_r, hue_g], default=hue_b) / 6.0
    hue = hue % 1.0
    return np.stack([hue, s, v], axis=-1)


def hsv_to_rgb_oracle(px: np.ndarray) -> np.ndarray:
    """The inverse hexcone as plain formulas: the sector and fraction of the
    hue, the candidates p, q, t, and np.choose per channel, clipped to [0, 1]."""
    h, s, v = px[..., 0], px[..., 1], px[..., 2]
    h6 = (h % 1.0) * 6.0
    sector = np.floor(h6).astype(np.intp) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))

    r = np.choose(sector, [v, q, p, p, t, v])
    g = np.choose(sector, [t, v, v, q, p, p])
    b = np.choose(sector, [p, p, t, v, v, q])
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0)


def hsv_gray_aug_oracle(images: np.ndarray, rng) -> np.ndarray:
    """Train-mode hsv_gray_aug, image by image, as two separate HSV round
    trips through the oracle conversions (hue shift in [-0.02, 0.02], then
    saturation scale in [0.9, 1.2] clamped to [0, 1]), the flips, each with
    chance 0.5, as index reversals, then HSV with the BT.601 luma appended.
    Draws per image, in order: hue, saturation, horizontal flip, vertical
    flip."""
    out = []
    for px in images:
        px = px.astype(np.float64)
        hsv = rgb_to_hsv_oracle(px)
        hsv[..., 0] = (hsv[..., 0] + rng.uniform(-0.02, 0.02)) % 1.0
        hsv = rgb_to_hsv_oracle(hsv_to_rgb_oracle(hsv))
        hsv[..., 1] = np.clip(hsv[..., 1] * rng.uniform(0.9, 1.2), 0.0, 1.0)
        px = hsv_to_rgb_oracle(hsv)
        if rng.random() < 0.5:
            px = px[:, ::-1]
        if rng.random() < 0.5:
            px = px[::-1]
        gray = np.clip(0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2], 0.0, 1.0)
        out.append(np.concatenate([rgb_to_hsv_oracle(px), gray[..., None]], axis=-1))
    return np.stack(out)


class PpmOracleError(Exception):
    """The oracle's refusal of a PPM: the message and byte offset that the
    reader must report."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message, self.offset = message, offset


def read_ppm_oracle(data: bytes) -> np.ndarray:
    """Parse a binary PPM (P6, maxval 255) a byte at a time; returns the
    uint8 (height, width, 3) raster.  Before each header token, whitespace
    (bytes.isspace) is skipped, and so is a comment: "#" up to, not
    including, the next CR or LF; the token runs to the next whitespace
    byte; width, height and maxval must be ASCII decimal digits.  One byte
    after maxval, which may be cut off, precedes the raster."""
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
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
            raise PpmOracleError("unexpected end of PPM header", pos)
        return data[start:pos]

    magic = token()
    if magic != b"P6":
        raise PpmOracleError(f"not a binary PPM (magic {magic!r})", 0)
    def number():
        field = token()
        if any(byte not in b"0123456789" for byte in field):
            raise PpmOracleError(f"malformed PPM header: {field!r} is not a decimal number", pos)
        return int(field)

    width = number()
    height = number()
    maxval = number()
    if maxval != 255:
        raise PpmOracleError(f"unsupported maxval {maxval}, expected 255", pos)
    if width < 1 or height < 1:
        raise PpmOracleError(f"image dims must be positive, got {width}x{height}", pos)
    pos = min(pos + 1, len(data))
    need = width * height * 3
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise PpmOracleError(f"truncated raster: expected {need} bytes, got {len(raster)}", pos)
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)


def shard_oracle(data: bytes) -> list:
    """Parse a v2 shard's bytes field by field; returns its (label, uint8
    (height, width, 3) pixels) pairs in file order.  Raises ValueError on a
    header of another magic, version or channel count, dims that are not
    both >= 1 (both 0 when the shard is empty), or a length other than the
    header describes."""
    if len(data) < 24:
        raise ValueError("truncated header")
    magic, version, count, height, width, channels = struct.unpack_from("<4sIIIII", data)
    if magic != b"FRRC" or version != 2 or channels != 3:
        raise ValueError(f"not a v2 RGB shard: {magic!r}, version {version}, {channels} channels")
    if (height < 1 or width < 1) if count else (height, width) != (0, 0):
        raise ValueError(f"dims {height}x{width} for {count} records")
    size = height * width * 3
    if len(data) != 24 + count * (size + 4):
        raise ValueError(f"{len(data)} bytes, the header describes {24 + count * (size + 4)}")
    labels = struct.unpack_from(f"<{count}I", data, 24 + count * size)
    return [
        (labels[i], np.frombuffer(data, np.uint8, size, 24 + i * size).reshape(height, width, 3))
        for i in range(count)
    ]


def decode_for_shard_float_oracle(path) -> np.ndarray:
    """The shard record that a build once made of a PPM: the float image
    read_ppm gives, resized to 100 x 100 when it is another size, quantized
    with to_u8."""
    img = read_ppm(path)
    if (img.height, img.width) != (100, 100):
        img = resize_bilinear(img, 100, 100)
    return to_u8(img)


def truncated_normal_oracle(rng, shape, stddev, dtype) -> np.ndarray:
    """Normal draws with |x| > 2 stddev resampled, every pass re-testing the
    whole array: the formula weight init used before it redrew only the
    rejected entries."""
    out = rng.normal(0.0, stddev, size=shape)
    bad = np.abs(out) > 2.0 * stddev
    while bad.any():
        out[bad] = rng.normal(0.0, stddev, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * stddev
    return out.astype(dtype)


def damage(data, raw: bytes) -> bytes:
    """Draw, through hypothesis' data strategy, a truncation of raw to any
    shorter length or raw with one byte replaced.  Small replacement values
    come often: they make the empty, one-channel and short fields that a
    format check must catch."""
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        return raw[:at]
    out = bytearray(raw)
    out[at] = data.draw(st.one_of(st.integers(0, 4), st.integers(0, 255)), label="byte")
    return bytes(out)
