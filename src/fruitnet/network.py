"""Network topology: four conv/pool blocks, two dense layers, a class head.

The architecture is fixed in shape and parameterized in width: per-layer
activation-map counts, dense-layer sizes, input depth and class count.  Ten
benchmark width presets are provided; preset 1 is the reference network
(16/32/64/128 maps, 1024/256 dense units).

Parameters and gradients travel as plain dicts keyed by layer name, which
keeps the optimizer and the checkpoint format trivial.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError
from .layers import (
    Tensor,
    conv2d_backward,
    conv2d_forward,
    dropout,
    dropout_backward,
    fc_backward,
    fc_forward,
    lrn_backward,
    lrn_forward,
    maxpool_backward,
    maxpool_forward,
    relu,
    relu_backward,
)
from .seeding import RngStream

N_POOLS = 4
INIT_STDDEV = 0.05


@dataclass(frozen=True)
class NetworkConfig:
    num_classes: int
    input_channels: int = 4
    conv_maps: tuple = (16, 32, 64, 128)
    fc_sizes: tuple = (1024, 256)
    kernel_size: int = 5
    input_height: int = 100
    input_width: int = 100
    use_lrn: bool = False

    def __post_init__(self):
        object.__setattr__(self, "conv_maps", tuple(int(m) for m in self.conv_maps))
        object.__setattr__(self, "fc_sizes", tuple(int(m) for m in self.fc_sizes))
        if self.num_classes < 1:
            raise InvalidInputError(f"num_classes must be >= 1, got {self.num_classes}")
        if len(self.conv_maps) != 4 or any(m < 1 for m in self.conv_maps):
            raise InvalidInputError(f"conv_maps must be 4 positive counts, got {self.conv_maps}")
        if len(self.fc_sizes) != 2 or any(m < 1 for m in self.fc_sizes):
            raise InvalidInputError(f"fc_sizes must be 2 positive counts, got {self.fc_sizes}")
        if min(self.input_channels, self.kernel_size, self.input_height, self.input_width) < 1:
            raise InvalidInputError("input dims, channels and kernel size must be >= 1")

    @property
    def pooled_height(self) -> int:
        # each pool halves with ceiling, so four pools divide by 16, rounded up
        return math.ceil(self.input_height / (1 << N_POOLS))

    @property
    def pooled_width(self) -> int:
        return math.ceil(self.input_width / (1 << N_POOLS))

    @property
    def flat_size(self) -> int:
        return self.pooled_height * self.pooled_width * self.conv_maps[3]


# benchmark width presets: (conv maps, dense sizes)
PRESET_CONFIGURATIONS = {
    1: ((16, 32, 64, 128), (1024, 256)),
    2: ((8, 32, 64, 128), (1024, 256)),
    3: ((32, 32, 64, 128), (1024, 256)),
    4: ((16, 16, 64, 128), (1024, 256)),
    5: ((16, 64, 64, 128), (1024, 256)),
    6: ((16, 32, 32, 128), (1024, 256)),
    7: ((16, 32, 128, 128), (1024, 256)),
    8: ((16, 32, 64, 64), (1024, 256)),
    9: ((16, 32, 64, 128), (512, 256)),
    10: ((16, 32, 64, 128), (1024, 512)),
}


def preset_configuration(nr: int, num_classes: int, input_channels: int = 4) -> NetworkConfig:
    """One of the ten benchmark configurations (nr in 1..10)."""
    if nr not in PRESET_CONFIGURATIONS:
        raise InvalidInputError(f"configuration nr must be in 1..10, got {nr}")
    conv_maps, fc_sizes = PRESET_CONFIGURATIONS[nr]
    return NetworkConfig(
        num_classes=num_classes,
        input_channels=input_channels,
        conv_maps=conv_maps,
        fc_sizes=fc_sizes,
    )


Params = dict


def param_shapes(cfg: NetworkConfig) -> dict:
    """Name -> shape for every trainable tensor, in canonical order."""
    k = cfg.kernel_size
    depths = (cfg.input_channels,) + tuple(cfg.conv_maps)
    shapes = {}
    for i in range(4):
        shapes[f"conv{i + 1}_w"] = (k, k, depths[i], depths[i + 1])
        shapes[f"conv{i + 1}_b"] = (depths[i + 1],)
    fc_in = (cfg.flat_size, cfg.fc_sizes[0])
    shapes["fc1_w"] = fc_in
    shapes["fc1_b"] = (cfg.fc_sizes[0],)
    shapes["fc2_w"] = (cfg.fc_sizes[0], cfg.fc_sizes[1])
    shapes["fc2_b"] = (cfg.fc_sizes[1],)
    shapes["out_w"] = (cfg.fc_sizes[1], cfg.num_classes)
    shapes["out_b"] = (cfg.num_classes,)
    return shapes


def truncated_normal(rng: RngStream, shape, stddev: float = INIT_STDDEV, dtype=np.float32) -> Tensor:
    """Normal draws with |x| > 2 stddev resampled."""
    out = rng.normal(0.0, stddev, size=shape)
    bad = np.abs(out) > 2.0 * stddev
    while bad.any():
        out[bad] = rng.normal(0.0, stddev, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * stddev
    return out.astype(dtype)


def init_params(cfg: NetworkConfig, rng: RngStream, dtype=np.float32) -> Params:
    """Truncated-normal weights (stddev 0.05), all biases zero."""
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = truncated_normal(rng, shape, INIT_STDDEV, dtype)
    return params


def forward(
    cfg: NetworkConfig,
    params: Params,
    x: Tensor,
    keep_prob: float = 1.0,
    rng: RngStream | None = None,
) -> tuple:
    """Run the network; returns (logits, caches) for a later backward pass.

    Dropout is applied after each dense layer only; the class head emits raw
    logits (softmax happens in the loss or in prediction).
    """
    x = np.asarray(x)
    expected = (cfg.input_height, cfg.input_width, cfg.input_channels)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ShapeError(f"input {x.shape} does not match (batch, {expected[0]}, {expected[1]}, {expected[2]})")

    caches = {}
    h = x
    for i in (1, 2, 3, 4):
        h, caches[f"conv{i}"] = conv2d_forward(h, params[f"conv{i}_w"], params[f"conv{i}_b"])
        # max and relu commute, so pooling first leaves relu a quarter of the work
        h, caches[f"pool{i}"] = maxpool_forward(h)
        h, caches[f"relu_c{i}"] = relu(h)
        if cfg.use_lrn:
            h, caches[f"lrn{i}"] = lrn_forward(h)
    caches["flat_shape"] = h.shape
    h = h.reshape(h.shape[0], -1)

    h, caches["fc1"] = fc_forward(h, params["fc1_w"], params["fc1_b"])
    h, caches["relu_f1"] = relu(h)
    h, caches["drop1"] = dropout(h, keep_prob, rng)
    h, caches["fc2"] = fc_forward(h, params["fc2_w"], params["fc2_b"])
    h, caches["relu_f2"] = relu(h)
    h, caches["drop2"] = dropout(h, keep_prob, rng)
    logits, caches["out"] = fc_forward(h, params["out_w"], params["out_b"])
    return logits, caches


def backward(cfg: NetworkConfig, caches: dict, grad_logits: Tensor) -> Params:
    """Gradients for every parameter, keyed like the params dict."""
    grads = {}
    g, grads["out_w"], grads["out_b"] = fc_backward(grad_logits, caches["out"])
    g = dropout_backward(g, caches["drop2"])
    g = relu_backward(g, caches["relu_f2"])
    g, grads["fc2_w"], grads["fc2_b"] = fc_backward(g, caches["fc2"])
    g = dropout_backward(g, caches["drop1"])
    g = relu_backward(g, caches["relu_f1"])
    g, grads["fc1_w"], grads["fc1_b"] = fc_backward(g, caches["fc1"])
    g = g.reshape(caches["flat_shape"])

    for i in (4, 3, 2, 1):
        if cfg.use_lrn:
            g = lrn_backward(g, caches[f"lrn{i}"])
        g = relu_backward(g, caches[f"relu_c{i}"])
        g = maxpool_backward(g, caches[f"pool{i}"])
        # the input image itself needs no gradient, so conv1 skips it
        g, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = conv2d_backward(
            g, caches[f"conv{i}"], input_grad=(i > 1)
        )
    return grads
