"""Independent oracles used by the test suite.

These are deliberately naive, straight-line implementations written before
and apart from the library code they check: a queue BFS for flood fill, a
six-loop direct convolution and its scatter-form input gradient, loop max
pooling, central finite differences, a scalar Adam recurrence, the plain
formulas of the RGB/HSV conversions, and the per-image augmentation pipeline
composed from the public colorspace conversions.  damage() draws the damaged
files that the format fuzz tests feed to the readers.
"""

import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from fruitnet.augmentation import flip
from fruitnet.imaging import Colorspace, RasterImage, concat_hsv_gray, hsv_to_rgb, rgb_to_gray, rgb_to_hsv


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


def hsv_gray_aug_oracle(images: np.ndarray, rng, config) -> np.ndarray:
    """Train-mode hsv_gray_aug, image by image, as two separate HSV round
    trips through the RasterImage conversions (hue shift, then saturation
    scale clamped to [0, 1]), the flips as copies, then HSV with gray
    appended.  Draws per image, in order: hue, saturation, horizontal flip,
    vertical flip."""
    out = []
    for px in images:
        img = RasterImage(px.astype(np.float64), Colorspace.RGB)
        hsv = rgb_to_hsv(img).pixels.copy()
        hsv[..., 0] = (hsv[..., 0] + rng.uniform(-config.hue_max_delta, config.hue_max_delta)) % 1.0
        img = hsv_to_rgb(RasterImage(hsv, Colorspace.HSV))
        hsv = rgb_to_hsv(img).pixels.copy()
        hsv[..., 1] = np.clip(hsv[..., 1] * rng.uniform(config.sat_lower, config.sat_upper), 0.0, 1.0)
        img = hsv_to_rgb(RasterImage(hsv, Colorspace.HSV))
        if rng.random() < config.flip_prob:
            img = flip(img, "horizontal")
        if rng.random() < config.flip_prob:
            img = flip(img, "vertical")
        out.append(concat_hsv_gray(rgb_to_hsv(img), rgb_to_gray(img)).pixels)
    return np.stack(out)


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
