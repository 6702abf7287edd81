"""Independent oracles used by the test suite.

These are deliberately naive, straight-line implementations written before
and apart from the library code they check: a queue BFS for flood fill, a
six-loop direct convolution and its scatter-form input gradient, loop max
pooling, central finite differences, and a scalar Adam recurrence.
"""

import math
from collections import deque

import numpy as np


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
