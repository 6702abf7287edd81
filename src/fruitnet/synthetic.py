"""Synthetic labeled corpus for desk-scale runs: colored blobs on a clean or
noisy background, one strongly separated hue per class.

The generated tree mirrors the real corpus layout:

    <out>/labels.txt
    <out>/Training/<class name>/<k>.ppm
    <out>/Test/<class name>/<k>.ppm

"clean" images are 100 x 100 on a white background, ready for shard building;
"raw" images are larger with a slowly varying gray background, meant to feed
the background-extraction step first.
"""

from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .imaging import RasterImage, hsv_to_rgb_pixels, write_ppm
from .records import LabelMap
from .seeding import STREAM_SYNTH, make_rng


def synthetic_image(rng, hue: float, size: int = 100, raw: bool = False) -> RasterImage:
    """One blob image: a filled disc of the class hue with a darker core,
    jittered in position, radius and shade."""
    if raw:
        # slowly varying grayish backdrop; adjacent-pixel steps stay far below
        # any sensible flood-fill threshold
        ramp = np.linspace(0.78, 0.88, size)
        base = (ramp[:, None] + ramp[None, :]) / 2.0
        noise = rng.uniform(-0.01, 0.01, size=(size, size))
        bg = np.clip(base + noise, 0.0, 1.0)
        px = np.repeat(bg[:, :, None], 3, axis=2)
    else:
        px = np.ones((size, size, 3))

    cy = size / 2.0 + rng.uniform(-0.08, 0.08) * size
    cx = size / 2.0 + rng.uniform(-0.08, 0.08) * size
    radius = rng.uniform(0.26, 0.38) * size
    h = (hue + rng.uniform(-0.03, 0.03)) % 1.0
    s = rng.uniform(0.8, 1.0)
    v = rng.uniform(0.7, 0.95)
    outer, core = hsv_to_rgb_pixels(np.array([[h, s, v], [h, s, v * 0.7]]))

    yy, xx = np.mgrid[0:size, 0:size]
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    px[dist < radius] = outer
    px[dist < radius * 0.45] = core
    return RasterImage(px)


def class_hues(num_classes: int) -> list:
    """Evenly spaced hues, maximally separated."""
    return [i / num_classes for i in range(num_classes)]


def generate_corpus(
    out_dir,
    num_classes: int = 2,
    train_per_class: int = 20,
    test_per_class: int = 8,
    seed: int = 0,
    image_size: int = 100,
    style: str = "clean",
) -> dict:
    """Write a labeled synthetic corpus; returns the paths of its pieces."""
    lows = (("num_classes", num_classes, 1), ("train_per_class", train_per_class, 0),
            ("test_per_class", test_per_class, 0), ("image_size", image_size, 1))
    for name, value, low in lows:
        if value < low:
            raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    if style not in ("clean", "raw"):
        raise InvalidInputError(f"style must be 'clean' or 'raw', got {style!r}")
    out_dir = Path(out_dir)
    names = [f"class_{i:02d}" for i in range(1, num_classes + 1)]
    hues = class_hues(num_classes)

    labels_path = out_dir / "labels.txt"
    train_dir = out_dir / "Training"
    test_dir = out_dir / "Test"
    out_dir.mkdir(parents=True, exist_ok=True)
    labels_path.write_text("".join(n + "\n" for n in names), encoding="utf-8")

    raw = style == "raw"
    for split_dir, per_class, split_id in ((train_dir, train_per_class, 0), (test_dir, test_per_class, 1)):
        for ci, name in enumerate(names):
            rng = make_rng(seed, STREAM_SYNTH, split_id, ci)
            class_dir = split_dir / name
            class_dir.mkdir(parents=True, exist_ok=True)
            for k in range(per_class):
                img = synthetic_image(rng, hues[ci], size=image_size, raw=raw)
                write_ppm(img, class_dir / f"{k:03d}.ppm")

    return {
        "labels_file": labels_path,
        "train_dir": train_dir,
        "test_dir": test_dir,
        "label_map": LabelMap.from_names(names),
    }
