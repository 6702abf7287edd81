"""On-disk dataset shards, the label catalog and batch feeding.

Shard format v2 (little-endian, bit-exact round trip):

    header: magic "FRRC" | version u32 = 2 | record count u32
            | height u32 | width u32 | channels u32 = 3
    pixels: count * height * width * 3 bytes (row-major RGB, record after record)
    labels: count * label u32

All records of a shard share its dims (height, width >= 1; an empty shard
has 0x0), so the header fixes the file size.  Records are views of a
read-only map of the pixel block.  _read_shard is the one reader, and it
takes any dims: a split fits a network when its images have the network's
input dims, which training.check_split checks.  write_shard is the one shard
writer: it syncs a finished temporary file to disk and renames it over the
target, so a mapped shard is never truncated and a crash leaves the old or
the new file.  Version 1 shards are not read: rebuild them with `fruitnet
build-records`.

A build writes each split through write_shard to one shard file,
`<split>-00000-of-00001.rec`, and replaces the two shards only once both
are written, so a failed build keeps the pair it was replacing.  A 100 x
100 (IMAGE_SIDE) PPM's raster bytes go into the shard as the file holds
them; an image of any other size is read as floats, resized to 100 x 100
and quantized back.

A labels file is UTF-8 text, one class name per line; line order defines ids
1..N and id 0 is reserved for the "nothing" background class, so a network
trained on N classes has N + 1 outputs.  A file that names a class twice, or
names "nothing", is refused.
"""

import os
import shutil
import struct
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, FormatError, InvalidInputError, read_utf8
from .imaging import RasterImage, _read_ppm_raster, resize_bilinear, to_u8
from .seeding import STREAM_SHUFFLE, make_rng

SHARD_MAGIC = b"FRRC"
SHARD_VERSION = 2
_HEADER = struct.Struct("<4sIIIII")  # magic, version, count, height, width, channels

IMAGE_SIDE = 100
BACKGROUND_NAME = "nothing"


@dataclass(frozen=True)
class ExampleRecord:
    """One labeled image: class id plus raw uint8 pixels (h, w, 3); no other dtype is cast to uint8."""

    label: int
    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8 or px.ndim != 3 or px.shape[2] != 3:
            raise InvalidInputError(f"record pixels must be (h, w, 3) uint8, got {px.dtype} of shape {px.shape}")
        object.__setattr__(self, "pixels", px)
        if not 0 <= self.label < 2**32:  # stored as u32
            raise InvalidInputError(f"label must be in [0, 2^32), got {self.label}")


@dataclass(frozen=True)
class LabelMap:
    """Class names indexed by id; id 0 is always the background class, and
    no other id shares a name with it or with each other."""

    names: tuple

    def __post_init__(self):
        if not self.names or self.names[0] != BACKGROUND_NAME:
            raise InvalidInputError(f"names[0] must be {BACKGROUND_NAME!r}")
        if BACKGROUND_NAME in self.names[1:]:
            raise InvalidInputError(f"names {BACKGROUND_NAME!r}, the class of id 0")
        twice = sorted(name for name, n in Counter(self.names).items() if n > 1)
        if twice:
            raise InvalidInputError(f"names {', '.join(twice)} more than once")

    @classmethod
    def from_names(cls, class_names: Iterable[str]) -> "LabelMap":
        return cls((BACKGROUND_NAME,) + tuple(class_names))

    @classmethod
    def from_file(cls, path) -> "LabelMap":
        try:
            return cls.from_names(ln.strip() for ln in read_utf8(path).splitlines() if ln.strip())
        except InvalidInputError as exc:
            raise ConfigurationError(f"labels file {path} {exc}") from None

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
    """The shard file of one split and the number of records it holds."""

    path: Path
    split: str
    count: int


@contextmanager
def _replaced_on_success(path: Path):
    """Yield the path's ".tmp" sibling to write: renamed over the path once
    the block completes, deleted when it raises (Ctrl-C too), so the path
    keeps its bytes.  The file is synced before the rename, its directory after."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        _fsync(tmp)
        os.replace(tmp, path)
        _fsync(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_header(fh, path: Path, layout: struct.Struct, magic: bytes, version: int, kind: str, hint: str) -> tuple:
    """A fixed header's fields and the file size, once its magic, version and length are checked."""
    head = fh.read(layout.size)
    size = os.fstat(fh.fileno()).st_size
    if head[:4] != magic:
        raise FormatError(f"bad magic {head[:4]!r}, expected {magic!r}", path=path, offset=0)
    found = int.from_bytes(head[4:8], "little")
    if found != version:
        raise FormatError(f"unsupported {kind} version {found}; {hint}", path=path, offset=4)
    if len(head) < layout.size:
        raise FormatError(f"truncated {kind} header", path=path, offset=len(head))
    return layout.unpack(head), size


def _check_size(path: Path, size: int, expected: int, kind: str, described_by: str) -> None:
    """A FormatError at min(size, expected) unless the file holds exactly the expected bytes."""
    if size != expected:
        what = f"truncated {kind}" if size < expected else f"trailing bytes in {kind}"
        msg = f"{what}: {described_by} {expected} bytes, the file holds {size}"
        raise FormatError(msg, path=path, offset=min(size, expected))


def write_shard(path, records: Iterable[ExampleRecord]) -> int:
    """Write records of one shape to one shard file, replacing it only once
    all are written; returns the record count."""
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
        hint = "rebuild the shards with `fruitnet build-records`"
        (_, _, count, h, w, c), size = _read_header(fh, path, _HEADER, SHARD_MAGIC, SHARD_VERSION, "shard", hint)
        if not (c == 3 and (min(h, w) >= 1 if count else h == w == 0)):
            msg = f"dims {h}x{w}x{c} do not fit {count} records: need RGB, height and width >= 1, 0x0 if empty"
            raise FormatError(msg, path=path, offset=12)
        pixel_end = _HEADER.size + count * h * w * 3
        _check_size(path, size, pixel_end + 4 * count, "shard", "the header describes")
        fh.seek(pixel_end)
        labels = np.frombuffer(fh.read(4 * count), dtype="<u4")
        return labels, np.memmap(fh, dtype=np.uint8, mode="r", offset=_HEADER.size, shape=(count, h, w, 3))


def read_examples(shards: ShardSet) -> Iterator[ExampleRecord]:
    """Stream a split's records in file order; their pixels are views of a
    read-only map of the shard."""
    labels, pixels = _read_shard(shards.path)
    for label, px in zip(labels.tolist(), pixels):
        yield ExampleRecord(label=label, pixels=px)


def _decode_for_shard(path: Path) -> np.ndarray:
    """A PPM's shard record: a 100 x 100 raster as the file holds it, any other size resized through floats."""
    raster = _read_ppm_raster(path)
    if raster.shape[:2] != (IMAGE_SIDE, IMAGE_SIDE):
        raster = to_u8(resize_bilinear(RasterImage._adopt(raster / 255.0), IMAGE_SIDE, IMAGE_SIDE))
    return raster


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
    """One record per (path, label) example, in order."""
    # schedule decoding in bounded slices so results never pile up in memory
    step = 64
    for start in range(0, len(examples), step):
        chunk = examples[start : start + step]
        pixels = pool.map(_decode_for_shard, [p for p, _ in chunk])
        for (_, label), px in zip(chunk, pixels):
            yield ExampleRecord(label=label, pixels=px)


def _shard_name(split: str) -> str:
    return f"{split}-00000-of-00001.rec"


def build_shards(
    train_dir,
    test_dir,
    labels_file,
    out_dir,
    num_threads: int = 1,
) -> tuple:
    """Serialize two image trees (one subdirectory per class) into one shard
    file per split.

    Returns (train ShardSet, test ShardSet).  Images that are not already
    100 x 100 are resized on ingest.  File order is deterministic: classes in
    label order, files sorted by name.  Both trees are listed, and both
    splits written through write_shard into a new directory under out_dir,
    before either shard is replaced, so a build that fails changes neither.
    """
    if num_threads < 1:
        raise InvalidInputError("num_threads must be >= 1")
    labels = LabelMap.from_file(labels_file)
    splits = [(split, _collect_examples(Path(d), labels)) for split, d in (("train", train_dir), ("test", test_dir))]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [_shard_name(split) for split, _ in splits]
    stage = Path(tempfile.mkdtemp(prefix="build-", suffix=".tmp", dir=out_dir))
    try:
        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            counts = [write_shard(stage / name, _decoded_records(ex, pool)) for name, (_, ex) in zip(names, splits)]
        for name in names:
            os.replace(stage / name, out_dir / name)
        _fsync(out_dir)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return tuple(ShardSet(out_dir / name, split, count) for name, (split, _), count in zip(names, splits, counts))


def find_shards(records_dir, split: str) -> ShardSet:
    """Locate a split's shard file, `<split>-00000-of-00001.rec`, under a
    directory and count its records."""
    path = Path(records_dir) / _shard_name(split)
    if not path.is_file():
        raise ConfigurationError(f"no {split!r} shard {path.name} in {records_dir}; run `fruitnet build-records`")
    return ShardSet(path=path, split=split, count=len(_read_shard(path)[0]))


def _batch(pixels, labels) -> tuple:
    """Turn uint8 images into one float32 batch in [0, 1], with int64 labels."""
    images = np.asarray(pixels).astype(np.float32) / np.float32(255.0)
    return images, np.array(labels, dtype=np.int64)


def shuffle_batches(shards: ShardSet, batch_size: int, capacity: int, seed: int, start: int = 0) -> Iterator[tuple]:
    """Yield batches through a fixed-capacity shuffle buffer, without end.

    The buffer holds numbers of elements of an endless file-order cycle over
    the shard's records (element e is record e mod count), and starts with the
    first `capacity` of them.  Each emission draws a uniformly random slot and
    refills it with the next element.  `start` skips that many batches by
    their draws alone.  Equal seeds give bit-identical batches; an empty shard
    yields nothing.
    """
    lows = (("batch_size", batch_size, 1), ("capacity", capacity, 1), ("seed", seed, 0), ("start", start, 0))
    for name, value, low in lows:
        if value < low:
            raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    labels, pixels = _read_shard(shards.path)
    if not labels.size:
        return
    rng = make_rng(seed, STREAM_SHUFFLE)
    buf = np.arange(capacity)
    nxt = capacity
    skipped = start * batch_size
    for at in range(0, skipped, 1 << 20):  # a slot keeps its last, so largest, skipped element
        slots = rng.integers(capacity, size=min(1 << 20, skipped - at))
        np.maximum.at(buf, slots, np.arange(nxt, nxt + len(slots)))
        nxt += len(slots)
    while True:
        taken = []
        for j in rng.integers(capacity, size=batch_size).tolist():
            taken.append(buf[j])
            buf[j], nxt = nxt, nxt + 1
        records = np.array(taken) % labels.size
        yield _batch(pixels[records], labels[records])


def sequential_batches(stream: Iterable[ExampleRecord], batch_size: int) -> Iterator[tuple]:
    """Yield batches in stream order; a final smaller batch is allowed."""
    if batch_size < 1:
        raise InvalidInputError(f"batch_size must be >= 1, got {batch_size}")
    batch = []
    for rec in stream:
        batch.append(rec)
        if len(batch) == batch_size:
            yield _batch([r.pixels for r in batch], [r.label for r in batch])
            batch = []
    if batch:
        yield _batch([r.pixels for r in batch], [r.label for r in batch])
