"""Train-time random perturbations and the five preprocessing scenarios.

A scenario fixes what the network sees: grayscale, plain RGB, HSV, HSV with a
grayscale channel appended, or the same with hue/saturation jitter and random
flips during training.  Test-mode preprocessing never consumes random draws.
The jitter ranges and the flip chance are the published protocol's values,
held only in the module constants HUE_MAX_DELTA, SAT_LOWER, SAT_UPPER and
FLIP_PROB.

One private pipeline on plain float64 (h, w, 3) arrays serves preprocess
(one RasterImage in, its test-mode float64 (h, w, channels) array out) and
preprocess_batch (float arrays in and out, checked once per batch).  The
jitter shifts hue and scales saturation in one HSV round trip.  Only
augment_draws draws, and preprocess_batch takes the batch's block as an
array, never a generator, so a batch slice runs with its rows of the whole
batch's draws.
"""

from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .imaging import RasterImage, check_unit_range, hsv_to_rgb_pixels, rgb_to_gray_pixels, rgb_to_hsv_pixels
from .seeding import RngStream


# the published protocol's hue shift bound, saturation factor range and flip chance
HUE_MAX_DELTA = 0.02
SAT_LOWER, SAT_UPPER = 0.9, 1.2
FLIP_PROB = 0.5


class Scenario(Enum):
    """The five input pipelines compared in the experiments."""

    # a checkpoint stores its scenario as the index in this order; never reorder
    GRAY = "gray"
    RGB = "rgb"
    HSV = "hsv"
    HSV_GRAY = "hsv_gray"
    HSV_GRAY_AUG = "hsv_gray_aug"

    @property
    def input_channels(self) -> int:
        """Depth of what the pipeline emits."""
        return _CHANNELS[self]

    @classmethod
    def from_tag(cls, tag: str) -> "Scenario":
        try:
            return cls(tag.lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise InvalidInputError(f"unknown scenario {tag!r}; expected one of: {valid}") from None


_CHANNELS = {Scenario.GRAY: 1, Scenario.RGB: 3, Scenario.HSV: 3, Scenario.HSV_GRAY: 4, Scenario.HSV_GRAY_AUG: 4}


def _jitter(px: np.ndarray, delta: float, factor: float) -> np.ndarray:
    """Rotate hue by delta (mod 1) and scale saturation by factor, clamped to
    [0, 1], in one HSV round trip of a float RGB array."""
    hsv = rgb_to_hsv_pixels(px)
    hsv[..., 0] = (hsv[..., 0] + delta) % 1.0
    hsv[..., 1] = np.clip(hsv[..., 1] * factor, 0.0, 1.0)
    return hsv_to_rgb_pixels(hsv)


def augment_draws(scenario: Scenario, rng: RngStream | None, n: int) -> np.ndarray | None:
    """The random draws that augmenting n training images takes: one (n, 4)
    block of uniforms in [0, 1), per image hue, saturation, horizontal flip,
    vertical flip.  None, drawing nothing, when the pipeline is not random.

    Row i holds what the per-image sequence uniform, uniform, random, random
    would draw for image i, and rng ends in the same state.
    """
    if scenario is not Scenario.HSV_GRAY_AUG:
        return None
    if rng is None:
        raise InvalidInputError("hsv_gray_aug augmentation needs an rng")
    return rng.random((n, 4))


def _pipeline(px: np.ndarray, scenario: Scenario, draws: np.ndarray | None):
    """One scenario on a float64 RGB array (h, w, 3); returns (h, w, channels).
    draws is the image's row of augment_draws, None in test mode."""
    if scenario is Scenario.GRAY:
        return rgb_to_gray_pixels(px)
    if scenario is Scenario.RGB:
        return px
    if scenario is Scenario.HSV:
        return rgb_to_hsv_pixels(px)
    if draws is not None:
        u_hue, u_sat, u_hflip, u_vflip = draws
        # low + (high - low) * u, as Generator.uniform computes it
        low, high = -HUE_MAX_DELTA, HUE_MAX_DELTA
        delta = low + (high - low) * u_hue
        factor = SAT_LOWER + (SAT_UPPER - SAT_LOWER) * u_sat
        # flips commute with per-pixel operations, so they can come first, as views
        if u_hflip < FLIP_PROB:
            px = px[:, ::-1]
        if u_vflip < FLIP_PROB:
            px = px[::-1]
        px = _jitter(px, delta, factor)
    return np.concatenate([rgb_to_hsv_pixels(px), rgb_to_gray_pixels(px)], axis=-1)


def preprocess(img: RasterImage, scenario: Scenario) -> np.ndarray:
    """Test-mode preprocessing of one RGB image: the float64 array the network
    sees, never augmented; for the RGB scenario, img.pixels itself (read-only)."""
    return _pipeline(img.pixels, scenario, None)


def preprocess_batch(images: np.ndarray, scenario: Scenario, draws: np.ndarray | None = None) -> np.ndarray:
    """Preprocess a float RGB batch (b, h, w, 3) into (b, h, w, scenario channels).

    draws is the batch's (b, 4) augment_draws block in train mode, None in
    test mode; only HSV_GRAY_AUG takes one.  The result is a deterministic
    function of (batch, scenario, draws).
    """
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[3] != 3 or 0 in images.shape[1:3]:
        raise InvalidInputError(f"batch must be (b, h, w, 3) with h, w >= 1, got shape {images.shape}")
    check_unit_range(images)
    b, h, w, _ = images.shape
    if draws is not None and (scenario, draws.shape) != (Scenario.HSV_GRAY_AUG, (b, 4)):
        raise InvalidInputError(f"hsv_gray_aug takes ({b}, 4) augment draws; got {draws.shape} for {scenario.value}")
    out = np.empty((b, h, w, scenario.input_channels), dtype=np.float32)
    for i in range(b):
        out[i] = _pipeline(images[i].astype(np.float64), scenario, None if draws is None else draws[i])
    return out
