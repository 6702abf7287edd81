import hashlib
import itertools
import os
import struct
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet import evaluation
from fruitnet.augmentation import Scenario
from fruitnet.errors import ConfigurationError, FormatError, InvalidInputError
from fruitnet.evaluation import evaluate
from fruitnet.imaging import RasterImage, read_ppm, write_ppm
from fruitnet.records import (
    IMAGE_SIDE,
    ExampleRecord,
    LabelMap,
    ShardSet,
    _decode_for_shard,
    build_shards,
    find_shards,
    read_examples,
    sequential_batches,
    shuffle_batches,
    write_shard,
)
from fruitnet.network import NetworkConfig, init_params
from fruitnet.seeding import STREAM_SHUFFLE, make_rng
from fruitnet.training import AdamState, Checkpoint

from helpers import damage, decode_for_shard_float_oracle, shard_oracle, shuffle_oracle


def make_record(rng, label, side=100) -> ExampleRecord:
    return ExampleRecord(label=label, pixels=rng.integers(0, 256, (side, side, 3), dtype=np.uint8))


def make_records(n, seed=0, side=100):
    rng = np.random.default_rng(seed)
    return [make_record(rng, label=1 + i % 3, side=side) for i in range(n)]


def read_back(path) -> list:
    """The records of one shard file, through read_examples, which reads the
    file and not the count it is given."""
    return list(read_examples(ShardSet(path=path, split="train", count=0)))


def shard_of(tmp_path, records, name="train-00000-of-00001.rec") -> ShardSet:
    path = tmp_path / name
    count = write_shard(path, records)
    return ShardSet(path=path, split="train", count=count)


class TestLabelMap:
    def test_background_prepended_in_file_order(self, tmp_path):
        path = tmp_path / "labels"
        path.write_text("Apple Braeburn\nApricot\n", encoding="utf-8")
        labels = LabelMap.from_file(path)
        assert labels.names == ("nothing", "Apple Braeburn", "Apricot")
        assert labels.num_classes == 3
        assert labels.id_of("Apricot") == 2
        assert labels.name_of(0) == "nothing"

    def test_unknown_name_rejected(self):
        labels = LabelMap.from_names(["Lemon"])
        with pytest.raises(InvalidInputError):
            labels.id_of("Lime")

    @pytest.mark.parametrize(
        "names, message",
        [
            (["Lemon", "Lime", "Lemon"], "names Lemon more than once"),
            (["Lemon", "nothing"], "names 'nothing', the class of id 0"),
        ],
        ids=["twice", "background"],
    )
    def test_a_name_given_twice_or_the_background_name_is_refused(self, tmp_path, names, message):
        with pytest.raises(InvalidInputError) as err:
            LabelMap.from_names(names)
        assert str(err.value) == message
        path = tmp_path / "labels"
        path.write_text("".join(name + "\n" for name in names), encoding="utf-8")
        with pytest.raises(ConfigurationError) as err:
            LabelMap.from_file(path)
        assert str(err.value) == f"labels file {path} {message}"


class TestShardFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        records = make_records(7, seed=1)
        path = tmp_path / "t.rec"
        assert write_shard(path, records) == 7
        back = read_back(path)
        parsed = shard_oracle(path.read_bytes())
        assert len(back) == len(parsed) == 7
        for a, b, (label, pixels) in zip(records, back, parsed):
            assert a.label == b.label == label
            assert np.array_equal(a.pixels, b.pixels) and np.array_equal(a.pixels, pixels)

    def test_empty_shard_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.rec"
        write_shard(path, [])
        assert read_back(path) == [] and shard_oracle(path.read_bytes()) == []

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.rec"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert err.value.offset == 0

    def test_truncated_record_reports_offset(self, tmp_path):
        records = make_records(1, seed=2)
        path = tmp_path / "trunc.rec"
        write_shard(path, records)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert "truncated" in str(err.value)
        assert err.value.path == path
        assert err.value.offset == len(raw) - 10  # the file ends before the size its header describes

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.rec"
        write_shard(path, make_records(1, seed=3))
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        with pytest.raises(FormatError):
            read_back(path)

    def test_a_50x50_shard_reads_back_exactly_and_a_100x100_checkpoint_refuses_it(self, tmp_path, monkeypatch):
        records = make_records(3, seed=4, side=50)
        path = tmp_path / "small.rec"
        write_shard(path, records)
        shards = ShardSet(path=path, split="test", count=3)
        back = list(read_examples(shards))
        assert [(r.label, r.pixels.tobytes()) for r in back] == [(r.label, r.pixels.tobytes()) for r in records]
        net = NetworkConfig(num_classes=4, input_channels=3, conv_maps=(2, 2, 2, 2), fc_sizes=(3, 3))
        params = init_params(net, make_rng(4))
        labels = LabelMap.from_names(["a", "b", "c"])
        ckpt = Checkpoint(net, params, AdamState.zeros_like(params), 0, 1e-3, labels, Scenario.RGB)
        monkeypatch.setattr(evaluation, "forward", lambda *a, **k: pytest.fail("forward pass on a refused split"))
        with pytest.raises(ConfigurationError, match="shards hold 50x50 images, checkpoint network expects 100x100"):
            evaluate(ckpt, shards, Scenario.RGB, log=None)


class TestBuildShards:
    def corpus(self, tmp_path, classes=("alpha", "beta"), per_class=3, side=100):
        rng = np.random.default_rng(9)
        labels_file = tmp_path / "labels"
        labels_file.write_text("".join(c + "\n" for c in classes), encoding="utf-8")
        for split in ("Training", "Test"):
            for cname in classes:
                d = tmp_path / split / cname
                d.mkdir(parents=True)
                for k in range(per_class):
                    img = RasterImage(rng.random((side, side, 3)))
                    write_ppm(img, d / f"{k}.ppm")
        return tmp_path / "Training", tmp_path / "Test", labels_file

    def test_counts_and_labels(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        train_set, test_set = build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        assert train_set.count == 6 and test_set.count == 6
        labels = Counter(r.label for r in read_examples(train_set))
        assert labels == Counter({1: 3, 2: 3})
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["test-00000-of-00001.rec", "train-00000-of-00001.rec"]
        assert find_shards(tmp_path / "out", "train") == train_set
        assert find_shards(tmp_path / "out", "test") == test_set

    def test_round_trip_pixels_bit_exact(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path, per_class=1)
        train_set, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        rec = next(read_examples(train_set))
        from fruitnet.imaging import read_ppm, to_u8

        src = to_u8(read_ppm(train_dir / "alpha" / "0.ppm"))
        assert np.array_equal(rec.pixels, src)

    def test_non_square_images_are_resized(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path, per_class=1)
        odd = RasterImage(np.random.default_rng(1).random((40, 60, 3)))
        write_ppm(odd, train_dir / "alpha" / "odd.ppm")
        train_set, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        for rec in read_examples(train_set):
            assert rec.pixels.shape == (100, 100, 3)

    def test_unknown_class_directory_is_named_in_error(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        (train_dir / "mystery").mkdir()
        write_ppm(
            RasterImage(np.zeros((100, 100, 3))), train_dir / "mystery" / "0.ppm"
        )
        with pytest.raises(InvalidInputError, match="mystery"):
            build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        assert not list((tmp_path / "out").glob("*.rec"))  # partial outputs removed

    def test_an_unknown_class_in_the_test_tree_changes_neither_shard(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        out = tmp_path / "out"
        shards = build_shards(train_dir, test_dir, labels_file, out)
        before = [s.path.read_bytes() for s in shards]
        write_ppm(RasterImage(np.zeros((100, 100, 3))), train_dir / "alpha" / "new.ppm")  # a train shard to rewrite
        (test_dir / "stray").mkdir()
        with pytest.raises(InvalidInputError, match="unknown class name 'stray'"):
            build_shards(train_dir, test_dir, labels_file, out)
        assert [s.path.read_bytes() for s in shards] == before
        assert sorted(p.name for p in out.iterdir()) == sorted(s.path.name for s in shards)

    def test_a_malformed_test_image_changes_neither_shard(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        out = tmp_path / "out"
        shards = build_shards(train_dir, test_dir, labels_file, out)
        before = [hashlib.sha256(s.path.read_bytes()).hexdigest() for s in shards]
        write_ppm(RasterImage(np.zeros((100, 100, 3))), train_dir / "alpha" / "new.ppm")  # a train shard to rewrite
        bad = test_dir / "beta" / "2.ppm"
        bad.write_bytes(bad.read_bytes()[:-1])
        with pytest.raises(FormatError):
            build_shards(train_dir, test_dir, labels_file, out)
        assert [hashlib.sha256(s.path.read_bytes()).hexdigest() for s in shards] == before
        assert sorted(p.name for p in out.iterdir()) == sorted(s.path.name for s in shards)

    def test_a_failed_rebuild_keeps_the_split_it_was_replacing(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        out = tmp_path / "out"
        _, test_set = build_shards(train_dir, test_dir, labels_file, out)
        before = test_set.path.read_bytes()
        bad = test_dir / "beta" / "2.ppm"  # the split's last image, after the others are written
        bad.write_bytes(bad.read_bytes()[:-1])
        with pytest.raises(FormatError):
            build_shards(train_dir, test_dir, labels_file, out)
        assert test_set.path.read_bytes() == before
        assert not list(out.glob("*.tmp"))
        assert find_shards(out, "test") == test_set

    def test_find_shards_refuses_a_directory_of_a_multi_shard_layout(self, tmp_path):
        records = make_records(4, seed=5)
        write_shard(tmp_path / "train-00000-of-00002.rec", records[:2])
        write_shard(tmp_path / "train-00001-of-00002.rec", records[2:])
        with pytest.raises(ConfigurationError) as err:
            find_shards(tmp_path, "train")
        assert "train-00000-of-00001.rec" in str(err.value) and "build-records" in str(err.value)

    def test_the_build_writes_each_split_through_write_shard(self, tmp_path, monkeypatch):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        plain = build_shards(train_dir, test_dir, labels_file, tmp_path / "plain")
        calls = []

        def counted(path, records):
            calls.append(path.name)
            return write_shard(path, records)

        monkeypatch.setattr("fruitnet.records.write_shard", counted)
        built = build_shards(train_dir, test_dir, labels_file, tmp_path / "counted")
        assert calls == ["train-00000-of-00001.rec", "test-00000-of-00001.rec"]
        assert [s.path.read_bytes() for s in built] == [s.path.read_bytes() for s in plain]

    def test_threaded_build_is_identical(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path, per_class=4)
        a, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "one", num_threads=1)
        b, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "four", num_threads=4)
        assert a.path.read_bytes() == b.path.read_bytes()

    @pytest.mark.parametrize(
        "damaged",
        [
            lambda raw: raw[:-1],  # truncated raster
            lambda raw: b"P3" + raw[2:],  # bad magic
            lambda raw: raw.replace(b"100 100", b"1e2 100", 1),  # non-decimal dimension
        ],
        ids=["truncated", "magic", "dimension"],
    )
    def test_a_damaged_ppm_fails_the_build_as_it_fails_read_ppm(self, tmp_path, damaged):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        out = tmp_path / "out"
        train_set, test_set = build_shards(train_dir, test_dir, labels_file, out)
        before = {s.path: s.path.read_bytes() for s in (train_set, test_set)}
        bad = train_dir / "alpha" / "1.ppm"
        bad.write_bytes(damaged(bad.read_bytes()))
        with pytest.raises(FormatError) as want:
            read_ppm(bad)
        with pytest.raises(FormatError) as got:
            build_shards(train_dir, test_dir, labels_file, out)
        assert (str(got.value), got.value.path, got.value.offset) == (str(want.value), bad, want.value.offset)
        assert {path: path.read_bytes() for path in before} == before
        assert not list(out.glob("*.tmp"))


class TestShuffleBatches:
    def test_batch_tensor_shape(self, tmp_path):
        shards = shard_of(tmp_path, make_records(130, seed=10))
        images, labels = next(shuffle_batches(shards, 60, 35060, 1))
        assert images.shape == (60, 100, 100, 3)
        assert images.dtype == np.float32
        assert 0.0 <= images.min() and images.max() <= 1.0
        assert labels.shape == (60,)

    def test_degenerate_buffer_preserves_order(self, tmp_path):
        records = make_records(9, seed=11)
        shards = shard_of(tmp_path, records)
        out = []
        for _, labels in itertools.islice(shuffle_batches(shards, 2, 1, 0), 5):
            out.extend(labels.tolist())
        assert out == [r.label for r in records] + [records[0].label]

    def test_equal_seeds_reproduce_batches(self, tmp_path):
        shards = shard_of(tmp_path, make_records(40, seed=13))
        a = [lbl.tolist() for _, lbl in itertools.islice(shuffle_batches(shards, 8, 16, 77), 5)]
        b = [lbl.tolist() for _, lbl in itertools.islice(shuffle_batches(shards, 8, 16, 77), 5)]
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        rng = np.random.default_rng(14)
        records = [make_record(rng, label) for label in rng.permutation(np.arange(1, 121))]
        shards = shard_of(tmp_path, records)
        seq = {}
        for seed in (0, 1):
            seq[seed] = [l for _, lbl in itertools.islice(shuffle_batches(shards, 12, 50, seed), 10) for l in lbl]
        assert seq[0] != seq[1]

    def test_invalid_params_rejected(self, tmp_path):
        shards = shard_of(tmp_path, [])
        with pytest.raises(InvalidInputError, match="capacity must be >= 1, got 0"):
            next(shuffle_batches(shards, 1, 0, 0))
        with pytest.raises(InvalidInputError):
            next(shuffle_batches(shards, 0, 35060, 0))


class TestSequentialBatches:
    def test_sizes_and_order(self, tmp_path):
        records = make_records(5, seed=16)
        shards = shard_of(tmp_path, records)
        batches = list(sequential_batches(read_examples(shards), 2))
        assert [len(lbl) for _, lbl in batches] == [2, 2, 1]
        flat = [l for _, lbl in batches for l in lbl]
        assert flat == [r.label for r in records]

    def test_images_match_source(self, tmp_path):
        records = make_records(3, seed=17)
        shards = shard_of(tmp_path, records)
        images, _ = next(sequential_batches(read_examples(shards), 3))
        for i, rec in enumerate(records):
            assert np.array_equal((images[i] * 255.0).round().astype(np.uint8), rec.pixels)


class TestFindShards:
    def test_missing_split_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            find_shards(tmp_path, "test")


def test_record_dims_beyond_the_file_are_a_format_error(tmp_path):
    # 2^31 x 2^31 x 3 bytes overflows a read size; the claim must be checked
    # against the file size instead
    path = tmp_path / "huge.rec"
    path.write_bytes(b"FRRC" + struct.pack("<IIIII", 2, 1, 2**31, 2**31, 3) + bytes(8))
    with pytest.raises(FormatError) as err:
        read_back(path)
    assert err.value.path == path
    assert err.value.offset == 32  # the end of the file, far short of the pixels the header claims


def one_record_shard(path, h, w, c) -> None:
    path.write_bytes(b"FRRC" + struct.pack("<IIIII", 2, 1, h, w, c) + bytes(h * w * c) + struct.pack("<I", 1))


@pytest.mark.parametrize("dims", [(0, 100, 3), (100, 0, 3), (2, 2, 2), (2, 2, 4)])
def test_record_dims_must_describe_an_rgb_image(tmp_path, dims):
    path = tmp_path / "dims.rec"
    one_record_shard(path, *dims)
    with pytest.raises(FormatError) as err:
        read_back(path)
    assert err.value.path == path
    assert err.value.offset == 12  # the dims fields of the shard header


@pytest.mark.parametrize("dims", [(5, 7), (2**32 - 1, 2**32 - 1)])
def test_empty_shard_must_have_zero_dims(tmp_path, dims):
    # an empty shard's size does not depend on its dims; 2^32 - 1 squared
    # must not reach the memory map
    path = tmp_path / "empty.rec"
    path.write_bytes(b"FRRC" + struct.pack("<IIIII", 2, 0, *dims, 3))
    with pytest.raises(FormatError) as err:
        read_back(path)
    assert err.value.path == path
    assert err.value.offset == 12


@pytest.mark.parametrize("at, offset", [(0, 0), (4, 4)])
def test_find_shards_reports_magic_and_version_where_they_are(tmp_path, at, offset):
    path = tmp_path / "train-00000-of-00001.rec"
    write_shard(path, make_records(1, side=2))
    raw = bytearray(path.read_bytes())
    raw[at] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as find_err:
        find_shards(tmp_path, "train")
    with pytest.raises(FormatError) as read_err:
        read_back(path)
    assert find_err.value.offset == read_err.value.offset == offset
    assert str(find_err.value) == str(read_err.value)


_SHARD_RECORDS = make_records(2, seed=4, side=2) + [ExampleRecord(label=7, pixels=np.zeros((2, 2, 3), np.uint8))]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_shard_is_a_format_error_or_reads_back_exactly(tmp_path_factory, data):
    # every byte of a shard is consumed, so whatever reads without error must write back the same bytes
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "train-00000-of-00001.rec"
    write_shard(path, _SHARD_RECORDS)
    damaged = damage(data, path.read_bytes())
    path.write_bytes(damaged)
    try:
        records = read_back(path)
    except FormatError as err:
        assert err.path == path and 0 <= err.offset <= len(damaged)
        with pytest.raises(ValueError):
            shard_oracle(damaged)
        try:
            find_shards(tmp, "train")
        except FormatError as find_err:
            assert find_err.path == path
        return
    assert find_shards(tmp, "train").count == len(records)
    assert [(r.label, r.pixels.tobytes()) for r in records] == [(n, px.tobytes()) for n, px in shard_oracle(damaged)]
    write_shard(tmp / "again.rec", records)
    assert (tmp / "again.rec").read_bytes() == damaged


def test_write_shard_rejects_mixed_shapes_and_leaves_no_file(tmp_path):
    path = tmp_path / "train-00000-of-00001.rec"
    mixed = make_records(2, side=4) + make_records(1, side=3)
    with pytest.raises(InvalidInputError, match="shape"):
        write_shard(path, mixed)
    assert list(tmp_path.iterdir()) == []  # neither the shard nor its .tmp


def test_failed_rewrite_keeps_the_old_shard(tmp_path):
    path = tmp_path / "train-00000-of-00001.rec"
    write_shard(path, make_records(2, side=4))
    before = path.read_bytes()
    with pytest.raises(InvalidInputError):
        write_shard(path, make_records(1, side=4) + make_records(1, side=5))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_written_file_is_synced_before_its_rename_and_its_directory_after(tmp_path, monkeypatch):
    path = tmp_path / "train-00000-of-00001.rec"
    synced = []  # (inode, whether path exists yet) per fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append((os.fstat(fd).st_ino, path.exists())))
    write_shard(path, make_records(2, side=4))
    assert synced == [(path.stat().st_ino, False), (tmp_path.stat().st_ino, True)]


def test_rewriting_a_shard_leaves_records_read_from_it_intact(tmp_path):
    path = tmp_path / "train-00000-of-00001.rec"
    old, new = make_records(3, seed=31), make_records(5, seed=32)
    write_shard(path, old)
    alive = read_back(path)  # views of the mapped file
    write_shard(path, new)
    for rec, src in zip(alive, old):
        assert np.array_equal(rec.pixels, src.pixels)
    assert [r.pixels.tobytes() for r in read_back(path)] == [r.pixels.tobytes() for r in new]


def test_version_1_shard_names_the_rebuild_command(tmp_path):
    path = tmp_path / "train-00000-of-00001.rec"
    path.write_bytes(b"FRRC" + struct.pack("<II", 1, 1) + struct.pack("<IIII", 1, 2, 2, 3) + bytes(12))
    for read in (lambda: read_back(path), lambda: find_shards(tmp_path, "train")):
        with pytest.raises(FormatError, match="build-records") as err:
            read()
        assert err.value.path == path and err.value.offset == 4


def test_shuffle_buffer_over_cycled_records_holds_references(tmp_path):
    # 1,000 slots from a 10-record shard: copies would take 30 MB of pixels
    shards = shard_of(tmp_path, make_records(10, seed=33))
    tracemalloc.start()
    try:
        next(shuffle_batches(shards, 1, 1000, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("label", [-1, 2**32])
def test_record_label_must_fit_the_u32_field(label):
    with pytest.raises(InvalidInputError, match="label"):
        ExampleRecord(label=label, pixels=np.zeros((2, 2, 3), np.uint8))


@pytest.mark.parametrize("value, dtype", [(0.9, np.float64), (300, np.int64), (-1, np.int8), (5, np.uint16)])
def test_record_pixels_of_another_dtype_are_refused_not_cast(value, dtype):
    with pytest.raises(InvalidInputError) as err:
        ExampleRecord(label=1, pixels=np.full((2, 2, 3), value, dtype))
    assert str(err.value) == f"record pixels must be (h, w, 3) uint8, got {np.dtype(dtype)} of shape (2, 2, 3)"


def test_train_batch_stream_matches_the_pinned_digest(tmp_path):
    # the batches train() draws for a fixed seed, 57 records from one shard
    # cycled; the digest was computed with shard format v1 and must not change
    shards = shard_of(tmp_path, make_records(10, seed=21))
    stream = shuffle_batches(shards, 4, 25, 7)
    digest = hashlib.sha256()
    for images, labels in itertools.islice(stream, 8):
        digest.update(images.tobytes())
        digest.update(labels.tobytes())
    assert digest.hexdigest() == "ad17282b18dc858baf6017a2cf8df69f31a43c6b57aa8d4201b08a6d34655157"


@pytest.fixture(scope="module")
def numbered_shard_sets(tmp_path_factory):
    """Shards of n = 1..12 records labeled 0..n-1, so a label is its record
    number; each with the pixels of its records."""
    root = tmp_path_factory.mktemp("numbered")
    rng = np.random.default_rng(35)
    sets = {}
    for n in range(1, 13):
        records = [make_record(rng, label) for label in range(n)]
        path = root / f"n{n}.rec"
        write_shard(path, records)
        sets[n] = ShardSet(path, "train", n), np.stack([r.pixels for r in records])
    return sets


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    capacity=st.integers(1, 40),
    batch_size=st.integers(1, 7),
    start=st.integers(0, 30),
    seed=st.integers(min_value=0),
    m=st.integers(1, 4),
)
def test_shuffle_batches_match_the_list_buffer_oracle(numbered_shard_sets, n, capacity, batch_size, start, seed, m):
    shards, pixels = numbered_shard_sets[n]
    got = list(itertools.islice(shuffle_batches(shards, batch_size, capacity, seed, start), m))
    oracle = shuffle_oracle(n, capacity, batch_size, make_rng(seed, STREAM_SHUFFLE))
    want = list(itertools.islice(oracle, start, start + m))
    assert len(got) == m
    for (images, labels), numbers in zip(got, want):
        assert labels.tolist() == numbers
        assert images.dtype == np.float32
        assert np.rint(images * 255.0).astype(np.uint8).tobytes() == pixels[numbers].tobytes()


def test_a_start_at_the_last_protocol_iteration_builds_no_skipped_batch(tmp_path):
    # 75,000 skipped batches of 60: building them would take minutes
    shards = shard_of(tmp_path, make_records(10, seed=36))
    stream = shuffle_batches(shards, 60, 35060, 0, start=75_000)
    tick = time.perf_counter()
    images, _ = next(stream)
    assert time.perf_counter() - tick < 5.0
    assert images.shape == (60, 100, 100, 3)


def test_shuffle_refuses_a_negative_seed_or_start(tmp_path):
    shards = shard_of(tmp_path, make_records(2, seed=37))
    with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
        next(shuffle_batches(shards, 1, 35060, -1))
    with pytest.raises(InvalidInputError, match="start must be >= 0, got -1"):
        next(shuffle_batches(shards, 1, 35060, 0, start=-1))


def test_an_empty_shard_set_yields_no_batch(tmp_path):
    assert list(shuffle_batches(shard_of(tmp_path, []), 3, 4, 0, start=2)) == []


# header separators: a whitespace byte, then whitespace or comments ended by LF or CR
_PPM_SEPARATOR = st.tuples(
    st.sampled_from(b" \t\n\r\x0b\x0c"),
    st.lists(st.sampled_from([b" ", b"\t", b"\r\n", b"\x0b", b"\x0c", b"# note\n", b"#\r", b"#P6 1 1\n"]), max_size=3),
).map(lambda t: bytes([t[0]]) + b"".join(t[1]))


@given(
    dims=st.one_of(st.just((IMAGE_SIDE, IMAGE_SIDE)), st.tuples(st.integers(1, 12), st.integers(1, 12))),
    seps=st.lists(_PPM_SEPARATOR, min_size=3, max_size=3),
    last=st.sampled_from(b" \t\n\r\x0b\x0c"),
    zeros=st.integers(0, 2),
    trailing=st.binary(max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_the_build_decode_equals_the_float_path(tmp_path_factory, dims, seps, last, zeros, trailing, seed):
    height, width = dims
    raster = np.random.default_rng(seed).integers(0, 256, (height, width, 3), dtype=np.uint8)
    fields = [b"P6", b"0" * zeros + str(width).encode(), str(height).encode(), b"255"]
    header = b"".join(f + s for f, s in zip(fields, seps + [bytes([last])]))
    path = tmp_path_factory.mktemp("decode") / "img.ppm"
    path.write_bytes(header + raster.tobytes() + trailing)
    decoded = _decode_for_shard(path)
    assert decoded.dtype == np.uint8 and decoded.shape == (IMAGE_SIDE, IMAGE_SIDE, 3)
    assert np.array_equal(decoded, decode_for_shard_float_oracle(path))
    if dims == (IMAGE_SIDE, IMAGE_SIDE):
        assert np.array_equal(decoded, raster)


def test_decoding_a_100x100_ppm_makes_no_float_array(tmp_path):
    path = tmp_path / "img.ppm"
    write_ppm(RasterImage(np.random.default_rng(3).random((IMAGE_SIDE, IMAGE_SIDE, 3))), path)
    _decode_for_shard(path)
    tracemalloc.start()
    try:
        _decode_for_shard(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes, about 30 KB; one float64 raster would be 240 KB
    assert peak < IMAGE_SIDE * IMAGE_SIDE * 3 * 2
