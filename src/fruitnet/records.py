"""On-disk dataset shards, the label catalog and batch feeding.

Shard format v2 (little-endian, bit-exact round trip):

    header: magic "FRRC" | version u32 = 2 | record count u32
            | height u32 | width u32 | channels u32 = 3
    pixels: count * height * width * 3 bytes (row-major RGB, record after record)
    labels: count * label u32

All records of a shard share its dims (height, width >= 1; an empty shard
has 0x0), so the header fixes the file size.  Records are views of a
read-only map of the pixel block; write_shard renames a finished temporary
file over the target, so a mapped shard is never truncated.  Version 1
shards are not read: rebuild them with `fruitnet build-records`.

A labels file is UTF-8 text, one class name per line; line order defines ids
1..N and id 0 is reserved for the "nothing" background class, so a network
trained on N classes has N + 1 outputs.
"""

import itertools
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, FormatError, InvalidInputError
from .imaging import read_ppm, resize_bilinear, to_u8
from .seeding import STREAM_SHUFFLE, make_rng

SHARD_MAGIC = b"FRRC"
SHARD_VERSION = 2
_HEADER = struct.Struct("<4sIIIII")  # magic, version, count, height, width, channels

IMAGE_SIDE = 100
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
        if not 0 <= self.label < 2**32:  # stored as u32
            raise InvalidInputError(f"label must be in [0, 2^32), got {self.label}")


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
    seed: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise InvalidInputError(f"capacity must be >= 1, got {self.capacity}")


@contextmanager
def _replaced_on_success(path: Path):
    """Yield path's ".tmp" sibling to write: renamed over path when the block
    completes, deleted when it raises (Ctrl-C too), so path keeps its bytes."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_shard(path, records: Iterable[ExampleRecord]) -> int:
    """Write records of one shape to one shard file; returns the record count."""
    labels, dims = [], None
    with _replaced_on_success(Path(path)) as tmp, open(tmp, "wb") as fh:
        fh.write(bytes(_HEADER.size))  # patched once the count and dims are known
        for rec in records:
            dims = dims or rec.pixels.shape
            if rec.pixels.shape != dims:
                raise InvalidInputError(f"record {len(labels)} has shape {rec.pixels.shape}, shard has {dims}")
            fh.write(rec.pixels.tobytes())
            labels.append(rec.label)
        fh.write(np.array(labels, dtype="<u4").tobytes())
        fh.seek(0)
        fh.write(_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, len(labels), *(dims or (0, 0, 3))))
    return len(labels)


def _read_shard(path: Path) -> tuple:
    """Check a shard file; returns its u32 labels and a read-only map of its
    pixels, shape (count, height, width, 3)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        size = os.fstat(fh.fileno()).st_size
        if head[:4] != SHARD_MAGIC:
            raise FormatError(f"bad magic {head[:4]!r}, expected {SHARD_MAGIC!r}", path=path, offset=0)
        version = int.from_bytes(head[4:8], "little")
        if version != SHARD_VERSION:
            msg = f"unsupported shard version {version}; rebuild the shards with `fruitnet build-records`"
            raise FormatError(msg, path=path, offset=4)
        if len(head) < _HEADER.size:
            raise FormatError("truncated shard header", path=path, offset=len(head))
        _, _, count, h, w, c = _HEADER.unpack(head)
        if not (c == 3 and (min(h, w) >= 1 if count else h == w == 0)):
            msg = f"dims {h}x{w}x{c} do not fit {count} records: need RGB, height and width >= 1, 0x0 if empty"
            raise FormatError(msg, path=path, offset=12)
        pixel_end = _HEADER.size + count * h * w * 3
        expected = pixel_end + 4 * count
        if size != expected:
            what = "truncated shard" if size < expected else "trailing bytes in shard"
            msg = f"{what}: the header describes {expected} bytes, the file holds {size}"
            raise FormatError(msg, path=path, offset=min(size, expected))
        fh.seek(pixel_end)
        labels = np.frombuffer(fh.read(4 * count), dtype="<u4")
        return labels, np.memmap(fh, dtype=np.uint8, mode="r", offset=_HEADER.size, shape=(count, h, w, 3))


def _records(labels: np.ndarray, pixels: np.ndarray) -> Iterator[ExampleRecord]:
    for label, px in zip(labels.tolist(), pixels):
        yield ExampleRecord(label=label, pixels=px)


def iter_shard(path) -> Iterator[ExampleRecord]:
    """Yield the records of one shard file in order; their pixels are views
    of a read-only map of the file."""
    yield from _records(*_read_shard(Path(path)))


def read_examples(shards: ShardSet) -> Iterator[ExampleRecord]:
    """Stream records across shards, files in given order, records in file order;
    each shard is checked once to hold 100 x 100 x 3 images."""
    for path in shards.paths:
        labels, pixels = _read_shard(path)
        if labels.size and pixels.shape[1:] != (IMAGE_SIDE, IMAGE_SIDE, 3):
            msg = f"shard holds {pixels.shape[1]}x{pixels.shape[2]}x3 images, expected {IMAGE_SIDE}x{IMAGE_SIDE}x3"
            raise FormatError(msg, path=path, offset=12)
        yield from _records(labels, pixels)


def cycle_records(shards: ShardSet) -> Iterator[ExampleRecord]:
    """Endless stream cycling globally over the concatenated shard list; each
    shard is read once and later passes repeat the same record objects."""
    return itertools.cycle(read_examples(shards))


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
    paths = []
    try:
        for i in range(n_shards):
            chunk = examples[bounds[i] : bounds[i + 1]]
            paths.append(out_dir / f"{split}-{i:05d}-of-{n_shards:05d}.rec")
            write_shard(paths[-1], _decoded_records(chunk, pool))
    except BaseException:
        for path in paths:  # no partial outputs on failure
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
    count = sum(len(_read_shard(path)[0]) for path in paths)
    return ShardSet(paths=paths, split=split, count=count)


def _assemble(batch: list) -> tuple:
    images = np.stack([rec.pixels for rec in batch]).astype(np.float32) / np.float32(255.0)
    labels = np.array([rec.label for rec in batch], dtype=np.int64)
    return images, labels


def shuffle_batches(stream: Iterable[ExampleRecord], batch_size: int, params: ShuffleParams) -> Iterator[tuple]:
    """Yield batches sampled through a fixed-capacity shuffle buffer.

    The buffer is first filled to capacity (or stream end, whichever comes
    first).  Each emission picks a uniformly random buffer slot and replaces
    it with the next stream element; once the stream is exhausted the buffer
    drains, swap-removing the sampled slot.  A final smaller batch is
    allowed.  Equal seeds give bit-identical batch sequences.
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
