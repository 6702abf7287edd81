"""Train-time random perturbations and the five preprocessing scenarios.

A scenario fixes what the network sees: grayscale, plain RGB, HSV, HSV with a
grayscale channel appended, or the same with hue/saturation jitter and random
flips during training.  Test-mode preprocessing never consumes random draws.

One private pipeline on plain float64 (h, w, 3) arrays serves preprocess
(one RasterImage in, its float64 (h, w, channels) array out) and
preprocess_batch (float arrays in and out, checked once per batch).  The
jitter shifts hue and scales saturation in one HSV round trip.  Only
augment_draws draws: preprocess calls it for its one image, and
preprocess_batch takes the batch's block as an array, never a generator, so
a batch slice runs with its rows of the whole batch's draws.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .imaging import RasterImage, check_unit_range, hsv_to_rgb_pixels, rgb_to_gray_pixels, rgb_to_hsv_pixels
from .seeding import RngStream


@dataclass(frozen=True)
class AugmentConfig:
    hue_max_delta: float = 0.02
    sat_lower: float = 0.9
    sat_upper: float = 1.2
    flip_prob: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.hue_max_delta <= 0.5:
            raise InvalidInputError(f"hue_max_delta must be in [0, 0.5], got {self.hue_max_delta}")
        if not 0.0 < self.sat_lower <= self.sat_upper:
            raise InvalidInputError(
                f"need 0 < sat_lower <= sat_upper, got {self.sat_lower}, {self.sat_upper}"
            )
        if not 0.0 <= self.flip_prob <= 1.0:
            raise InvalidInputError(f"flip_prob must be in [0, 1], got {self.flip_prob}")


DEFAULT_AUGMENT = AugmentConfig()


class Scenario(Enum):
    """The five input pipelines compared in the experiments."""

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


def augment_draws(scenario: Scenario, mode: str, rng: RngStream | None, n: int) -> np.ndarray | None:
    """The random draws that preprocessing n images takes: one (n, 4) block
    of uniforms in [0, 1), per image hue, saturation, horizontal flip,
    vertical flip.  None, drawing nothing, when the pipeline is not random.

    Row i holds what the per-image sequence uniform, uniform, random, random
    would draw for image i, and rng ends in the same state.
    """
    if mode not in ("train", "test"):
        raise InvalidInputError(f"mode must be 'train' or 'test', got {mode!r}")
    if scenario is not Scenario.HSV_GRAY_AUG or mode == "test":
        return None
    if rng is None:
        raise InvalidInputError("train-mode hsv_gray_aug preprocessing needs an rng")
    return rng.random((n, 4))


def _pipeline(px: np.ndarray, scenario: Scenario, draws: np.ndarray | None, config: AugmentConfig):
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
        low, high = -config.hue_max_delta, config.hue_max_delta
        delta = low + (high - low) * u_hue
        factor = config.sat_lower + (config.sat_upper - config.sat_lower) * u_sat
        # flips commute with per-pixel operations, so they can come first, as views
        if u_hflip < config.flip_prob:
            px = px[:, ::-1]
        if u_vflip < config.flip_prob:
            px = px[::-1]
        px = _jitter(px, delta, factor)
    return np.concatenate([rgb_to_hsv_pixels(px), rgb_to_gray_pixels(px)], axis=-1)


def preprocess(
    img: RasterImage,
    scenario: Scenario,
    mode: str,
    rng: RngStream | None = None,
    config: AugmentConfig = DEFAULT_AUGMENT,
) -> np.ndarray:
    """Apply one scenario's pipeline to an RGB image; returns the float64
    (h, w, scenario.input_channels) array that the network sees, in [0, 1].

    Only HSV_GRAY_AUG in train mode is random; its draw order is fixed as
    hue, saturation, horizontal flip, vertical flip so that equal seeds give
    equal outputs.  In test mode it degenerates to the HSV_GRAY pipeline.
    For the RGB scenario the result is img.pixels itself, which is read-only.
    """
    draws = augment_draws(scenario, mode, rng, 1)
    return _pipeline(img.pixels, scenario, None if draws is None else draws[0], config)


def preprocess_batch(
    images: np.ndarray,
    scenario: Scenario,
    draws: np.ndarray | None = None,
    config: AugmentConfig = DEFAULT_AUGMENT,
) -> np.ndarray:
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
        out[i] = _pipeline(images[i].astype(np.float64), scenario, None if draws is None else draws[i], config)
    return out
