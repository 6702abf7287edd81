"""The extract-background path: read_ppm -> flood_fill_background ->
remove_background -> resize_bilinear -> write_ppm, and build_shards' decode.

Flood fill is checked against the BFS oracle on images whose neighbour
distances often equal the threshold exactly, and on corridors that turn at
every step.  The images the path makes are checked to be read-only arrays of
their own, and the files it writes are pinned by digest.  In a fresh
process the path faults in almost no fresh pages per image once warm."""

import ctypes
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fruitnet
from fruitnet.cli import main
from fruitnet.errors import InvalidInputError
from fruitnet.imaging import (
    FloodFillParams,
    RasterImage,
    flood_fill_background,
    read_ppm,
    remove_background,
    resize_bilinear,
    write_ppm,
)
from fruitnet.records import build_shards
from fruitnet.synthetic import generate_corpus

from helpers import floodfill_bfs_oracle

# sha256 over (relative path, bytes) of every file, in path order, for the
# raw corpus below, first taken from the ring-by-ring flood fill and the
# copying image constructor that this path replaced
EXTRACTED_SHA256 = "e951b6d873a7e27e3d805b56bcb246f45626bf0faab46a2b2bf1078ca5c8817d"
SHARDS_SHA256 = "8de438ca32cab5a8b03e185bf1ac7a92e1d81f61ef8eee5f8a7d7b9de8047c0f"


def tree_sha256(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture()
def raw_corpus(tmp_path):
    return generate_corpus(tmp_path / "raw", num_classes=2, train_per_class=3, test_per_class=2,
                           seed=5, image_size=200, style="raw")


def walled(n: int, path) -> np.ndarray:
    """A mid-gray corridor along path; every other pixel is black or white in
    a checkerboard, so no two of them are within a threshold below 1."""
    r, c = np.indices((n, n))
    px = np.repeat(((r + c) % 2).astype(np.float64)[..., None], 3, axis=2)
    for p in path:
        px[p] = 0.5
    return px


def staircase(n: int) -> list:
    """A 1-pixel corridor from the corner to the centre, one step right and
    one down in turn."""
    return [p for i in range(n // 2) for p in ((i, i), (i, i + 1))]


def spiral(n: int) -> list:
    """A 1-pixel corridor spiralling from the corner to the centre, its arms
    one wall pixel apart."""
    lengths = [n - 1, n - 1, n - 1] + [k for k in range(n - 3, 0, -2) for _ in range(2)]
    path, r, c = [(0, 0)], 0, 0
    for i, length in enumerate(lengths):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            path.append((r, c))
    return path


# every value is a multiple of 1/4, so squared distances are exact and many
# distances equal these thresholds: the strict < decides them
quarter_grid_images = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.sampled_from([(2, 2), (3, 3)]),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
).flatmap(lambda hw: hnp.arrays(np.int64, hw + (3,), elements=st.integers(0, 4)))


@given(quarter_grid_images, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
@settings(max_examples=300, deadline=None)
def test_flood_fill_matches_the_oracle_where_distances_equal_the_threshold(quarters, t):
    px = quarters / 4.0
    mask = flood_fill_background(RasterImage(px), FloodFillParams(t))
    assert np.array_equal(mask, floodfill_bfs_oracle(px, t))


@pytest.mark.parametrize("corridor", [staircase, spiral])
def test_flood_fill_follows_a_corridor_that_turns_at_every_step(corridor):
    path = corridor(60)
    px = walled(60, path)
    mask = flood_fill_background(RasterImage(px), FloodFillParams(0.1))
    assert np.array_equal(mask, floodfill_bfs_oracle(px, 0.1))
    assert mask[path[-1]]  # the fill reached the corridor's inner end


def test_flood_fill_params_refuse_a_nan_threshold():
    with pytest.raises(InvalidInputError, match="threshold must be >= 0"):
        FloodFillParams(math.nan)


def test_extract_background_refuses_a_nan_threshold(tmp_path, capsys, raw_corpus):
    code = main(["extract-background", "--input_directory", str(raw_corpus["train_dir"]),
                 "--output_directory", str(tmp_path / "clean"), "--threshold", "nan"])
    assert code == 1
    assert "threshold must be >= 0, got nan" in capsys.readouterr().err
    assert not (tmp_path / "clean").exists()


def test_the_images_of_the_path_are_read_only_arrays_of_their_own(tmp_path):
    rng = np.random.default_rng(3)
    src = RasterImage(rng.integers(0, 256, size=(7, 5, 3)) / 255.0)
    write_ppm(src, tmp_path / "a.ppm")
    img = read_ppm(tmp_path / "a.ppm")
    mask = flood_fill_background(img, FloodFillParams(0.3))
    made = {
        "read_ppm": read_ppm(tmp_path / "a.ppm"),
        "remove_background": remove_background(img, mask),
        "resize_bilinear": resize_bilinear(img, 7, 5),  # the identity resize too
        "resize_bilinear down": resize_bilinear(img, 3, 2),
    }
    for name, out in made.items():
        assert not out.pixels.flags.writeable, name
        assert out.pixels.flags.owndata, name
        assert not np.shares_memory(out.pixels, img.pixels), name
        with pytest.raises(ValueError):
            out.pixels[0, 0, 0] = 0.5


def test_adopting_an_array_keeps_the_checks():
    for bad in (np.full((2, 2, 3), 1.5), np.full((2, 2, 3), math.nan), np.zeros((2, 2)), np.zeros((0, 2, 3))):
        with pytest.raises(InvalidInputError):
            RasterImage._adopt(bad)


def test_extract_background_writes_the_pinned_bytes(tmp_path, capsys, raw_corpus):
    code = main(["extract-background", "--input_directory", str(tmp_path / "raw"),
                 "--output_directory", str(tmp_path / "clean")])
    assert code == 0
    assert len(list((tmp_path / "clean").rglob("*.ppm"))) == 10
    assert tree_sha256(tmp_path / "clean") == EXTRACTED_SHA256


def test_build_shards_of_the_raw_tree_writes_the_pinned_bytes(tmp_path, raw_corpus):
    train_set, test_set = build_shards(raw_corpus["train_dir"], raw_corpus["test_dir"],
                                       raw_corpus["labels_file"], tmp_path / "records")
    assert (train_set.count, test_set.count) == (6, 4)
    assert tree_sha256(tmp_path / "records") == SHARDS_SHA256


# extract-background on the sorted 200 x 200 raw images under argv[1], one at
# a time as the CLI does: 5 to warm up, then prints the minor page faults per
# image over the next 20
_FAULTS_CHILD = """
import resource, sys
from pathlib import Path
from fruitnet.imaging import (
    FloodFillParams, flood_fill_background, read_ppm, remove_background, resize_bilinear, write_ppm,
)
files = sorted(Path(sys.argv[1]).rglob("*.ppm"))
def extract(src, dst):
    img = read_ppm(src)
    mask = flood_fill_background(img, FloodFillParams(threshold=0.1))
    write_ppm(resize_bilinear(remove_background(img, mask), 100, 100), dst)
for src in files[:5]:
    extract(src, Path(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for src in files[5:25]:
    extract(src, Path(sys.argv[2]))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="libc has no mallopt")
def test_background_extraction_faults_in_almost_no_fresh_pages_per_image(tmp_path):
    """glibc's default thresholds hand each image's ~2 MB of float64 arrays
    back to the kernel and fault them in again for the next (about 554 minor
    faults per 200 x 200 image); with the thresholds importing fruitnet sets,
    the heap keeps them."""
    generate_corpus(tmp_path / "raw", num_classes=1, train_per_class=25, test_per_class=1,
                    seed=3, image_size=200, style="raw")
    src = str(Path(fruitnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD, str(tmp_path / "raw" / "Training"), str(tmp_path / "out.ppm")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert float(child.stdout) < 50
