"""Forward and backward passes for every layer of the network.

Tensors are numpy float arrays, row-major, NHWC for activations.  Convolution
gathers a width-only patch matrix from the zero-padded input: one row per
padded image row and output column, holding the k horizontally adjacent
pixels that column reads (k * c values).  Kernel row u then contributes one
GEMM over the matrix shifted down by u image rows, so a k x k convolution is
k GEMMs per image on a matrix k times the size of its input, not k * k
times.  The input gradient is the same correlation, run on the output
gradient with the kernel flipped.

Each *_forward returns (output, cache); the matching backward consumes that
cache and produces exact gradients of the forward map.  Functions preserve
the dtype of their inputs: training runs in float32, gradient checks can run
the same code in float64.
"""

import numpy as np

from .errors import InvalidInputError, ShapeError
from .seeding import RngStream

Tensor = np.ndarray


def _same_pad(k: int) -> tuple:
    # total padding k - 1; the extra row/column goes to the bottom/right
    total = k - 1
    beg = total // 2
    return beg, total - beg


def _row_patches(x: Tensor, k: int, beg: int, end: int) -> Tensor:
    """Width-only patch matrix of x zero-padded by beg/end rows and columns:
    (n, (h + k - 1) * w, k * c), rows ordered by (padded row, output column),
    columns by (kernel column, channel)."""
    n, h, wd, c = x.shape
    xpad = np.pad(x, ((0, 0), (beg, end), (beg, end), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xpad, k, axis=2)  # (n, h + k - 1, wd, c, k)
    return win.transpose(0, 1, 2, 4, 3).reshape(n, (h + k - 1) * wd, k * c)


def _correlate_rows(cols: Tensor, w: Tensor, h: int, wd: int) -> Tensor:
    """SAME correlation from a _row_patches matrix: (n, h * wd, co), the sum
    over kernel rows u of the patch rows shifted down by u image rows times
    w[u]."""
    k, _, ci, co = w.shape
    w = w.reshape(k, k * ci, co)
    y = np.empty((cols.shape[0], h * wd, co), dtype=np.result_type(cols, w))
    # one image at a time, so the k partial products accumulate in cache
    for img, out in zip(cols, y):
        np.matmul(img[: h * wd], w[0], out=out)
        for u in range(1, k):
            out += img[u * wd : (u + h) * wd] @ w[u]
    return y


def conv2d_forward(x: Tensor, w: Tensor, bias: Tensor) -> tuple:
    """2-d convolution, stride 1, SAME zero padding; spatial dims preserved.

    The width-only patch matrix is kept in the cache for the weight gradient;
    it holds batch * (h + k - 1) * w * k * c floats, k times the input.
    """
    x, w, bias = np.asarray(x), np.asarray(w), np.asarray(bias)
    if x.ndim != 4 or w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d expects x (n,h,w,c) and square kernel, got x {x.shape}, w {w.shape}")
    k, _, ci, co = w.shape
    if x.shape[3] != ci or bias.shape != (co,):
        raise ShapeError(f"channel mismatch: x {x.shape}, w {w.shape}, bias {bias.shape}")
    n, h, wd, _ = x.shape
    cols = _row_patches(x, k, *_same_pad(k))
    y = _correlate_rows(cols, w, h, wd)
    y += bias
    return y.reshape(n, h, wd, co), ((n, h, wd), cols, w)


def conv2d_backward(grad_y: Tensor, cache: tuple, input_grad: bool = True) -> tuple:
    """Gradients (grad_x, grad_w, grad_b); grad_x is None when input_grad=False."""
    (n, h, wd), cols, w = cache
    k, _, ci, co = w.shape
    if grad_y.shape != (n, h, wd, co):
        raise ShapeError(f"grad_y {grad_y.shape} does not match forward output {(n, h, wd, co)}")
    gy = grad_y.reshape(n, h * wd, co)
    grad_b = gy.sum(axis=(0, 1))
    grad_w = np.zeros((k, k * ci, co), dtype=np.result_type(cols, gy))
    for img, g in zip(cols, gy):
        for u in range(k):
            grad_w[u] += img[u * wd : (u + h) * wd].T @ g
    grad_w = grad_w.reshape(k, k, ci, co)

    grad_x = None
    if input_grad:
        # the transposed convolution is the SAME correlation of grad_y with the
        # flipped kernel, in and out channels swapped; the padding sides swap
        beg, end = _same_pad(k)
        w_flip = w[::-1, ::-1].transpose(0, 1, 3, 2)
        grad_x = _correlate_rows(_row_patches(grad_y, k, end, beg), w_flip, h, wd).reshape(n, h, wd, ci)
    return grad_x, grad_w, grad_b


def maxpool_forward(x: Tensor) -> tuple:
    """2 x 2 max pooling at stride 2 with SAME semantics: output is ceil(h/2)
    by ceil(w/2) and out-of-range window positions are ignored."""
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


def maxpool_backward(grad_y: Tensor, cache: tuple) -> Tensor:
    """Route each gradient element to its window's cached argmax position."""
    (n, h, w, c), idx = cache
    oh, ow = idx.shape[1], idx.shape[2]
    if grad_y.shape != (n, oh, ow, c):
        raise ShapeError(f"grad_y {grad_y.shape} does not match pooled shape {(n, oh, ow, c)}")
    # (n, oh, 2, ow, 2, c) is the (n, 2 oh, 2 ow, c) gradient split into
    # windows; each window position gets grad_y times its one-hot mask
    gxp = np.empty((n, oh, 2, ow, 2, c), dtype=grad_y.dtype)
    for pos in range(4):
        np.multiply(grad_y, idx == pos, out=gxp[:, :, pos // 2, :, pos % 2])
    return gxp.reshape(n, 2 * oh, 2 * ow, c)[:, :h, :w, :]


def relu(x: Tensor) -> tuple:
    """Elementwise max(x, 0)."""
    x = np.asarray(x)
    return np.maximum(x, 0), x


def relu_backward(grad_y: Tensor, cache: Tensor) -> Tensor:
    # subgradient 0 at the kink
    return grad_y * (cache > 0)


def _check_keep_prob(keep_prob: float) -> None:
    if not 0.0 < keep_prob <= 1.0:
        raise InvalidInputError(f"keep_prob must be in (0, 1], got {keep_prob}")


def dropout_mask(shape: tuple, keep_prob: float, rng: RngStream | None) -> Tensor | None:
    """Keep mask of the given shape: each element True with probability
    keep_prob.  keep_prob = 1 gives None and draws nothing."""
    _check_keep_prob(keep_prob)
    if keep_prob == 1.0:
        return None
    if rng is None:
        raise InvalidInputError("dropout with keep_prob < 1 needs an rng")
    return rng.random(shape) < keep_prob


def dropout(x: Tensor, keep_prob: float, mask: Tensor | None = None) -> tuple:
    """Zero the elements where the keep mask (see dropout_mask) is False and
    scale the rest by 1 / keep_prob.  Without a mask keep_prob must be 1, and
    the result is x itself."""
    _check_keep_prob(keep_prob)
    x = np.asarray(x)
    if mask is None:
        if keep_prob < 1.0:
            raise InvalidInputError("dropout with keep_prob < 1 needs a mask")
        return x, (None, 1.0)
    if mask.shape != x.shape:
        raise ShapeError(f"dropout mask {mask.shape} does not match x {x.shape}")
    y = (x * mask) / x.dtype.type(keep_prob)
    return y, (mask, keep_prob)


def dropout_backward(grad_y: Tensor, cache: tuple) -> Tensor:
    mask, keep_prob = cache
    if mask is None:
        return grad_y
    return (grad_y * mask) / grad_y.dtype.type(keep_prob)


def fc_forward(x: Tensor, w: Tensor, bias: Tensor) -> tuple:
    """Dense layer: y = x w + bias."""
    x, w, bias = np.asarray(x), np.asarray(w), np.asarray(bias)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or bias.shape != (w.shape[1],):
        raise ShapeError(f"fc shapes disagree: x {x.shape}, w {w.shape}, bias {bias.shape}")
    return x @ w + bias, (x, w)


def fc_backward(grad_y: Tensor, cache: tuple) -> tuple:
    x, w = cache
    if grad_y.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(f"grad_y {grad_y.shape} does not match output {(x.shape[0], w.shape[1])}")
    return grad_y @ w.T, x.T @ grad_y, grad_y.sum(axis=0)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise exp-normalize, stabilized by subtracting the row maximum."""
    logits = np.asarray(logits)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits: Tensor, labels: Tensor) -> tuple:
    """Mean negative log-likelihood over the batch and its logits gradient."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels {labels.shape} do not match batch size {b}")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidInputError(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(b), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(b), labels] -= grad.dtype.type(1.0)
    grad /= grad.dtype.type(b)
    return loss, grad

