"""On-disk dataset shards, the label catalog and batch feeding.

Shard format (little-endian, bit-exact round trip):

    header: magic "FRRC" | version u32 = 1 | record count u32
    record: label u32 | height u32 | width u32 | channels u32
            | height * width * channels raw bytes (row-major, RGB)

A labels file is UTF-8 text, one class name per line; line order defines ids
1..N and id 0 is reserved for the "nothing" background class, so a network
trained on N classes has N + 1 outputs.
"""

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, FormatError, InvalidInputError
from .imaging import read_ppm, resize_bilinear, to_u8
from .seeding import STREAM_SHUFFLE, make_rng

SHARD_MAGIC = b"FRRC"
SHARD_VERSION = 1
_FILE_HEADER = struct.Struct("<4sII")
_RECORD_HEADER = struct.Struct("<IIII")

IMAGE_SIDE = 100
BACKGROUND_CLASS = 0
BACKGROUND_NAME = "nothing"


@dataclass(frozen=True)
class ExampleRecord:
    """One labeled image: class id plus raw uint8 pixels (h, w, 3)."""

    label: int
    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        object.__setattr__(self, "pixels", px)
        if px.ndim != 3 or px.shape[2] != 3:
            raise InvalidInputError(f"record pixels must be (h, w, 3) uint8, got shape {px.shape}")
        if self.label < 0:
            raise InvalidInputError(f"label must be >= 0, got {self.label}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class LabelMap:
    """Class names indexed by id; id 0 is always the background class."""

    names: tuple

    def __post_init__(self):
        if not self.names or self.names[0] != BACKGROUND_NAME:
            raise InvalidInputError(f"names[0] must be {BACKGROUND_NAME!r}")

    @classmethod
    def from_names(cls, class_names: Iterable[str]) -> "LabelMap":
        return cls((BACKGROUND_NAME,) + tuple(class_names))

    @classmethod
    def from_file(cls, path) -> "LabelMap":
        lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()]
        return cls.from_names([ln for ln in lines if ln])

    @property
    def num_classes(self) -> int:
        return len(self.names)

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidInputError(f"unknown class name {name!r}") from None


@dataclass(frozen=True)
class ShardSet:
    """The shard files of one split and the number of records they hold."""

    paths: tuple
    split: str
    count: int


@dataclass(frozen=True)
class ShuffleParams:
    """Shuffle-buffer sizing; defaults follow the reference training setup."""

    capacity: int = 35060
    min_fill: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise InvalidInputError(f"capacity must be >= 1, got {self.capacity}")
        if not 0 <= self.min_fill <= self.capacity:
            raise InvalidInputError(
                f"need 0 <= min_fill <= capacity, got min_fill={self.min_fill} capacity={self.capacity}"
            )


def write_shard(path, records: Iterable[ExampleRecord]) -> int:
    """Write records to one shard file; returns the record count."""
    path = Path(path)
    count = 0
    with open(path, "wb") as fh:
        fh.write(_FILE_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, 0))
        for rec in records:
            fh.write(_RECORD_HEADER.pack(rec.label, rec.height, rec.width, rec.channels))
            fh.write(rec.pixels.tobytes())
            count += 1
        fh.seek(4 + 4)  # patch the record count
        fh.write(struct.pack("<I", count))
    return count


def iter_shard(path) -> Iterator[ExampleRecord]:
    """Yield the records of one shard file in order."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_FILE_HEADER.size)
        if len(header) < _FILE_HEADER.size:
            raise FormatError("truncated shard header", path=path, offset=len(header))
        magic, version, count = _FILE_HEADER.unpack(header)
        if magic != SHARD_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {SHARD_MAGIC!r}", path=path, offset=0)
        if version != SHARD_VERSION:
            raise FormatError(f"unsupported version {version}", path=path, offset=4)
        offset = _FILE_HEADER.size
        for _ in range(count):
            head = fh.read(_RECORD_HEADER.size)
            if len(head) < _RECORD_HEADER.size:
                raise FormatError("truncated record header", path=path, offset=offset)
            label, h, w, c = _RECORD_HEADER.unpack(head)
            need = h * w * c
            # a corrupt header may claim more than the file holds: read no further than its end
            payload = fh.read(min(need, size - fh.tell()))
            if len(payload) < need:
                raise FormatError(
                    f"truncated record payload: expected {need} bytes, got {len(payload)}",
                    path=path,
                    offset=offset + _RECORD_HEADER.size,
                )
            pixels = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, c)
            yield ExampleRecord(label=label, pixels=pixels)
            offset += _RECORD_HEADER.size + need
        if fh.read(1):
            raise FormatError("trailing bytes after final record", path=path, offset=offset)


def read_examples(shards: ShardSet) -> Iterator[ExampleRecord]:
    """Stream records across shards, files in given order, records in file order.

    Every decoded image is validated to be 100 x 100 x 3.
    """
    for path in shards.paths:
        offset = _FILE_HEADER.size
        for rec in iter_shard(path):
            if rec.pixels.shape != (IMAGE_SIDE, IMAGE_SIDE, 3):
                raise FormatError(
                    f"record has dims {rec.height}x{rec.width}x{rec.channels}, "
                    f"expected {IMAGE_SIDE}x{IMAGE_SIDE}x3",
                    path=path,
                    offset=offset,
                )
            yield rec
            offset += _RECORD_HEADER.size + rec.pixels.size


def cycle_records(shards: ShardSet) -> Iterator[ExampleRecord]:
    """Endless stream cycling globally over the concatenated shard list."""
    while True:
        yield from read_examples(shards)


def _decode_for_shard(path: Path) -> np.ndarray:
    img = read_ppm(path)
    if (img.height, img.width) != (IMAGE_SIDE, IMAGE_SIDE):
        img = resize_bilinear(img, IMAGE_SIDE, IMAGE_SIDE)
    return to_u8(img)


def _collect_examples(split_dir: Path, labels: LabelMap) -> list:
    if not split_dir.is_dir():
        raise InvalidInputError(f"image directory does not exist: {split_dir}")
    out = []
    for class_dir in sorted(p for p in split_dir.iterdir() if p.is_dir()):
        label = labels.id_of(class_dir.name)  # unknown directory name fails here
        for path in sorted(class_dir.glob("*.ppm")):
            out.append((path, label))
    return out


def _decoded_records(examples: list, pool) -> Iterator[ExampleRecord]:
    # schedule decoding in bounded slices so results never pile up in memory
    step = 64
    for start in range(0, len(examples), step):
        chunk = examples[start : start + step]
        pixels = pool.map(_decode_for_shard, [p for p, _ in chunk])
        for (_, label), px in zip(chunk, pixels):
            yield ExampleRecord(label, px)


def _build_split(split: str, split_dir: Path, labels, out_dir: Path, n_shards: int, pool) -> ShardSet:
    examples = _collect_examples(split_dir, labels)
    bounds = np.linspace(0, len(examples), n_shards + 1).astype(int)
    paths, written = [], []
    try:
        for i in range(n_shards):
            chunk = examples[bounds[i] : bounds[i + 1]]
            path = out_dir / f"{split}-{i:05d}-of-{n_shards:05d}.rec"
            written.append(path)
            write_shard(path, _decoded_records(chunk, pool))
            paths.append(path)
    except BaseException:
        for path in written:  # no partial outputs on failure
            path.unlink(missing_ok=True)
        raise
    return ShardSet(paths=tuple(paths), split=split, count=len(examples))


def build_shards(
    train_dir,
    test_dir,
    labels_file,
    out_dir,
    train_shards: int = 1,
    test_shards: int = 1,
    num_threads: int = 1,
) -> tuple:
    """Serialize two image trees (one subdirectory per class) into shard files.

    Returns (train ShardSet, test ShardSet).  Images that are not already
    100 x 100 are resized on ingest.  File order is deterministic: classes in
    label order, files sorted by name, shards filled contiguously.
    """
    if train_shards < 1 or test_shards < 1:
        raise InvalidInputError("shard counts must be >= 1")
    if num_threads < 1:
        raise InvalidInputError("num_threads must be >= 1")
    labels = LabelMap.from_file(labels_file)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        train_set = _build_split("train", Path(train_dir), labels, out_dir, train_shards, pool)
        test_set = _build_split("test", Path(test_dir), labels, out_dir, test_shards, pool)
    return train_set, test_set


def find_shards(records_dir, split: str) -> ShardSet:
    """Locate a split's shard files under a directory and count their records."""
    paths = tuple(sorted(Path(records_dir).glob(f"{split}-*.rec")))
    if not paths:
        raise ConfigurationError(f"no {split!r} shards found in {records_dir}")
    count = 0
    for path in paths:
        with open(path, "rb") as fh:
            header = fh.read(_FILE_HEADER.size)
        if len(header) < _FILE_HEADER.size:
            raise FormatError("truncated shard header", path=path, offset=len(header))
        magic, version, n = _FILE_HEADER.unpack(header)
        if magic != SHARD_MAGIC or version != SHARD_VERSION:
            raise FormatError("bad magic or version", path=path, offset=0)
        count += n
    return ShardSet(paths=paths, split=split, count=count)


def _assemble(batch: list) -> tuple:
    images = np.stack([rec.pixels for rec in batch]).astype(np.float32) / np.float32(255.0)
    labels = np.array([rec.label for rec in batch], dtype=np.int64)
    return images, labels


def shuffle_batches(stream: Iterable[ExampleRecord], batch_size: int, params: ShuffleParams) -> Iterator[tuple]:
    """Yield batches sampled through a fixed-capacity shuffle buffer.

    The buffer is first filled to capacity (or stream end, whichever comes
    first, which always satisfies the min_fill gate).  Each emission picks a
    uniformly random buffer slot and replaces it with the next stream element;
    once the stream is exhausted the buffer drains, swap-removing the sampled
    slot.  A final smaller batch is allowed.  Equal seeds give bit-identical
    batch sequences.
    """
    if batch_size < 1:
        raise InvalidInputError(f"batch_size must be >= 1, got {batch_size}")
    rng = make_rng(params.seed, STREAM_SHUFFLE)
    it = iter(stream)

    buf = []
    for rec in it:
        buf.append(rec)
        if len(buf) >= params.capacity:
            break

    batch = []
    while buf:
        j = int(rng.integers(len(buf)))
        batch.append(buf[j])
        nxt = next(it, None)
        if nxt is not None:
            buf[j] = nxt
        else:
            buf[j] = buf[-1]
            buf.pop()
        if len(batch) == batch_size:
            yield _assemble(batch)
            batch = []
    if batch:
        yield _assemble(batch)


def sequential_batches(stream: Iterable[ExampleRecord], batch_size: int) -> Iterator[tuple]:
    """Yield batches in stream order; a final smaller batch is allowed."""
    if batch_size < 1:
        raise InvalidInputError(f"batch_size must be >= 1, got {batch_size}")
    batch = []
    for rec in stream:
        batch.append(rec)
        if len(batch) == batch_size:
            yield _assemble(batch)
            batch = []
    if batch:
        yield _assemble(batch)
