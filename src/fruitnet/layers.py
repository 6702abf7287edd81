"""Forward and backward passes for every layer of the network.

Tensors are numpy float arrays, row-major, NHWC for activations.  Convolution
works one image at a time.  It gathers the image's width-only patch matrix
from the zero-padded image: one row per padded image row and output column,
holding the k horizontally adjacent pixels that column reads (k * c values).
Kernel row u then contributes one GEMM over the matrix shifted down by u
image rows, so a k x k convolution is k GEMMs per image on a matrix k times
the size of the image, not k * k times.  Every image of a call reuses the
same patch buffer, small enough to stay in cache; the forward cache holds the
layer input, and the weight gradient gathers each image's patches again.
The input gradient is the same correlation, run on the output gradient with
the kernel flipped.  Max pooling also works one image at a time, in buffers
reused across the call, and caches each window's argmax as an int8 index.

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


def _image_patches(x: Tensor, k: int, beg: int):
    """Yield, image by image, the width-only patch matrix of x zero-padded by
    beg rows and columns before and k - 1 - beg after: ((h + k - 1) * w, k * c),
    rows ordered by (padded row, output column), columns by (kernel column,
    channel).  Every image overwrites the same buffer, so a yielded matrix
    holds only until the next one is asked for.  Each call makes its own
    buffers."""
    _, h, wd, c = x.shape
    xpad = np.zeros((h + k - 1, wd + k - 1, c), dtype=x.dtype)
    inner = xpad[beg : beg + h, beg : beg + wd]
    win = np.lib.stride_tricks.sliding_window_view(xpad, k, axis=1).transpose(0, 1, 3, 2)  # (h + k - 1, wd, k, c)
    cols = np.empty(win.shape, dtype=x.dtype)
    flat = cols.reshape((h + k - 1) * wd, k * c)
    for img in x:
        inner[...] = img
        cols[...] = win
        yield flat


def _correlate(x: Tensor, w: Tensor, beg: int) -> Tensor:
    """SAME correlation of x zero-padded by beg rows and columns before (see
    _image_patches): (n, h * wd, co), per image the sum over kernel rows u of
    the patch rows shifted down by u image rows times w[u]."""
    n, h, wd, _ = x.shape
    k, _, ci, co = w.shape
    w = w.reshape(k, k * ci, co)
    y = np.empty((n, h * wd, co), dtype=np.result_type(x, w))
    for cols, out in zip(_image_patches(x, k, beg), y):
        np.matmul(cols[: h * wd], w[0], out=out)
        for u in range(1, k):
            out += cols[u * wd : (u + h) * wd] @ w[u]
    return y


def conv2d_forward(x: Tensor, w: Tensor, bias: Tensor) -> tuple:
    """2-d convolution, stride 1, SAME zero padding; spatial dims preserved.

    The patch matrix is built per image in one reused buffer, k times the
    image; the cache holds the input x, from which the weight gradient
    gathers the patches again.
    """
    x, w, bias = np.asarray(x), np.asarray(w), np.asarray(bias)
    if x.ndim != 4 or w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d expects x (n,h,w,c) and square kernel, got x {x.shape}, w {w.shape}")
    k, _, ci, co = w.shape
    if x.shape[3] != ci or bias.shape != (co,):
        raise ShapeError(f"channel mismatch: x {x.shape}, w {w.shape}, bias {bias.shape}")
    n, h, wd, _ = x.shape
    y = _correlate(x, w, _same_pad(k)[0])
    y += bias
    return y.reshape(n, h, wd, co), ((n, h, wd), x, w)


def conv2d_backward(grad_y: Tensor, cache: tuple, input_grad: bool = True) -> tuple:
    """Gradients (grad_x, grad_w, grad_b); grad_x is None when input_grad=False."""
    (n, h, wd), x, w = cache
    k, _, ci, co = w.shape
    if grad_y.shape != (n, h, wd, co):
        raise ShapeError(f"grad_y {grad_y.shape} does not match forward output {(n, h, wd, co)}")
    beg, end = _same_pad(k)
    gy = grad_y.reshape(n, h * wd, co)
    grad_b = gy.sum(axis=(0, 1))
    grad_w = np.zeros((k, k * ci, co), dtype=np.result_type(x, gy))
    for cols, g in zip(_image_patches(x, k, beg), gy):
        for u in range(k):
            grad_w[u] += cols[u * wd : (u + h) * wd].T @ g
    grad_w = grad_w.reshape(k, k, ci, co)

    grad_x = None
    if input_grad:
        # the transposed convolution is the SAME correlation of grad_y with the
        # flipped kernel, in and out channels swapped; the padding sides swap
        w_flip = w[::-1, ::-1].transpose(0, 1, 3, 2)
        grad_x = _correlate(grad_y, w_flip, end).reshape(n, h, wd, ci)
    return grad_x, grad_w, grad_b


def maxpool_forward(x: Tensor) -> tuple:
    """2 x 2 max pooling at stride 2 with SAME semantics: output is ceil(h/2)
    by ceil(w/2) and out-of-range window positions are ignored.

    Pools one image at a time in scratch buffers made once per call, so each
    image is read while it is still in cache.  Each image's four window
    cells are first copied apart into contiguous planes, so every compare
    runs on contiguous arrays; a cell past an odd edge holds -inf, which
    never wins.  The cache holds the input shape and the int8 index of each
    window's first maximum, 0-3 in row-major window order (0,0), (0,1),
    (1,0), (1,1).
    """
    x = np.asarray(x)
    n, h, w, c = x.shape
    oh, ow = -(-h // 2), -(-w // 2)
    y = np.empty((n, oh, ow, c), dtype=x.dtype)
    idx = np.empty((n, oh, ow, c), dtype=np.int8)
    cells = np.full((4, oh, ow, c), -np.inf, dtype=x.dtype)
    a, b, d, e = cells
    # the part of each cell plane inside the image, with the offset it reads
    parts = [(cell[: (h - r + 1) // 2, : (w - s + 1) // 2], r, s) for cell, (r, s) in zip(cells, np.ndindex(2, 2))]
    bottom = np.empty((oh, ow, c), dtype=x.dtype)
    ge, right_top, right_bottom = (np.empty((oh, ow, c), dtype=bool) for _ in range(3))
    ge8, rt8, rb8 = ge.view(np.int8), right_top.view(np.int8), right_bottom.view(np.int8)
    for img, top, ix in zip(x, y, idx):
        for part, r, s in parts:
            part[...] = img[r::2, s::2]
        np.maximum(a, b, out=top)
        np.maximum(d, e, out=bottom)
        np.greater_equal(top, bottom, out=ge)
        np.greater(b, a, out=right_top)
        np.greater(e, d, out=right_bottom)
        # the first maximum wins ties: (b > a) where top >= bottom, else
        # (e > d) + 2, which is also where a NaN in the window sends it
        rb8 += 2
        np.subtract(rt8, rb8, out=ix)
        ix *= ge8
        ix += rb8
        np.maximum(top, bottom, out=top)
    return y, ((n, h, w, c), idx)


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

