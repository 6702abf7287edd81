import hashlib

import numpy as np
import pytest

from fruitnet.errors import InvalidInputError
from fruitnet.imaging import rgb_to_hsv_pixels
from fruitnet.seeding import make_rng
from fruitnet.synthetic import class_hues, generate_corpus, synthetic_image


class TestSyntheticImage:
    def test_clean_image_has_white_border_and_colored_blob(self):
        img = synthetic_image(make_rng(0), hue=0.0, size=64)
        assert img.pixels.shape == (64, 64, 3)
        assert np.allclose(img.pixels[0, 0], 1.0)
        assert img.pixels.min() < 0.6

    def test_blob_hue_is_near_the_class_hue(self):
        img = synthetic_image(make_rng(1), hue=0.5, size=64)
        center = img.pixels[32, 32][None, None, :]
        hue = rgb_to_hsv_pixels(center)[0, 0, 0]
        assert abs(hue - 0.5) < 0.05

    def test_raw_background_varies_slowly(self):
        img = synthetic_image(make_rng(2), hue=0.2, size=64, raw=True)
        border = img.pixels[0]
        steps = np.abs(np.diff(border, axis=0)).max()
        assert steps < 0.05  # gradient plus noise stays under flood-fill thresholds
        assert not np.allclose(img.pixels[0, 0], 1.0)


class TestGenerateCorpus:
    def test_layout_and_counts(self, tmp_path):
        parts = generate_corpus(tmp_path, num_classes=3, train_per_class=4, test_per_class=2, seed=0)
        assert parts["labels_file"].read_text().split() == ["class_01", "class_02", "class_03"]
        assert len(list(parts["train_dir"].rglob("*.ppm"))) == 12
        assert len(list(parts["test_dir"].rglob("*.ppm"))) == 6
        assert parts["label_map"].num_classes == 4

    def test_hues_maximally_separated(self):
        assert class_hues(2) == [0.0, 0.5]
        assert class_hues(4) == [0.0, 0.25, 0.5, 0.75]

    def test_zero_images_per_class_is_an_empty_split(self, tmp_path):
        parts = generate_corpus(tmp_path, num_classes=2, train_per_class=0, test_per_class=1)
        assert sorted(p.name for p in parts["train_dir"].iterdir()) == ["class_01", "class_02"]
        assert not list(parts["train_dir"].rglob("*.ppm"))
        assert len(list(parts["test_dir"].rglob("*.ppm"))) == 2

    def test_invalid_style_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            generate_corpus(tmp_path, style="noisy")


def test_corpus_bytes_match_their_pinned_digest(tmp_path):
    # computed with the plain-formula hsv_to_rgb (the oracle in helpers.py)
    generate_corpus(tmp_path, num_classes=2, train_per_class=2, test_per_class=2, seed=3)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "3827d6db9306152d13df3c67a5eb4699a2278f6aa22a9cc7180a7f342d5d251b"
