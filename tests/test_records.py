import struct
from collections import Counter

import numpy as np
import pytest

from fruitnet.errors import ConfigurationError, FormatError, InvalidInputError
from fruitnet.imaging import Colorspace, RasterImage, write_ppm
from fruitnet.records import (
    ExampleRecord,
    LabelMap,
    ShardSet,
    ShuffleParams,
    build_shards,
    find_shards,
    iter_shard,
    read_examples,
    sequential_batches,
    shuffle_batches,
    write_shard,
)


def make_record(rng, label, side=100) -> ExampleRecord:
    return ExampleRecord(label=label, pixels=rng.integers(0, 256, (side, side, 3), dtype=np.uint8))


def make_records(n, seed=0, side=100):
    rng = np.random.default_rng(seed)
    return [make_record(rng, label=1 + i % 3, side=side) for i in range(n)]


def shard_of(tmp_path, records, name="train-00000-of-00001.rec") -> ShardSet:
    path = tmp_path / name
    count = write_shard(path, records)
    return ShardSet(paths=(path,), split="train", count=count)


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


class TestShardFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        records = make_records(7, seed=1)
        path = tmp_path / "t.rec"
        assert write_shard(path, records) == 7
        back = list(iter_shard(path))
        assert len(back) == 7
        for a, b in zip(records, back):
            assert a.label == b.label
            assert np.array_equal(a.pixels, b.pixels)

    def test_empty_shard_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.rec"
        write_shard(path, [])
        assert list(iter_shard(path)) == []

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.rec"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(FormatError) as err:
            list(iter_shard(path))
        assert err.value.offset == 0

    def test_truncated_record_reports_offset(self, tmp_path):
        records = make_records(1, seed=2)
        path = tmp_path / "trunc.rec"
        write_shard(path, records)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError) as err:
            list(iter_shard(path))
        assert "truncated" in str(err.value)
        assert err.value.offset == 28  # payload of the first record: 12-byte file header + 16-byte record header

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.rec"
        write_shard(path, make_records(1, seed=3))
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        with pytest.raises(FormatError):
            list(iter_shard(path))

    def test_read_examples_validates_dims(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "small.rec"
        write_shard(path, [make_record(rng, 1, side=50)])
        shards = ShardSet(paths=(path,), split="train", count=1)
        with pytest.raises(FormatError) as err:
            list(read_examples(shards))
        assert "50x50" in str(err.value)

    def test_multi_shard_order_is_concatenation(self, tmp_path):
        a, b = make_records(3, seed=5), make_records(4, seed=6)
        pa, pb = tmp_path / "train-0.rec", tmp_path / "train-1.rec"
        write_shard(pa, a)
        write_shard(pb, b)
        shards = ShardSet(paths=(pa, pb), split="train", count=7)
        labels = [r.label for r in read_examples(shards)]
        assert labels == [r.label for r in a + b]


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
                    img = RasterImage(rng.random((side, side, 3)), Colorspace.RGB)
                    write_ppm(img, d / f"{k}.ppm")
        return tmp_path / "Training", tmp_path / "Test", labels_file

    def test_counts_and_labels(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        train_set, test_set = build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        assert train_set.count == 6 and test_set.count == 6
        labels = Counter(r.label for r in read_examples(train_set))
        assert labels == Counter({1: 3, 2: 3})

    def test_round_trip_pixels_bit_exact(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path, per_class=1)
        train_set, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        rec = next(read_examples(train_set))
        from fruitnet.imaging import read_ppm, to_u8

        src = to_u8(read_ppm(train_dir / "alpha" / "0.ppm"))
        assert np.array_equal(rec.pixels, src)

    def test_non_square_images_are_resized(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path, per_class=1)
        odd = RasterImage(np.random.default_rng(1).random((40, 60, 3)), Colorspace.RGB)
        write_ppm(odd, train_dir / "alpha" / "odd.ppm")
        train_set, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        for rec in read_examples(train_set):
            assert rec.pixels.shape == (100, 100, 3)

    def test_unknown_class_directory_is_named_in_error(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path)
        (train_dir / "mystery").mkdir()
        write_ppm(
            RasterImage(np.zeros((100, 100, 3)), Colorspace.RGB), train_dir / "mystery" / "0.ppm"
        )
        with pytest.raises(InvalidInputError, match="mystery"):
            build_shards(train_dir, test_dir, labels_file, tmp_path / "out")
        assert not list((tmp_path / "out").glob("*.rec"))  # partial outputs removed

    def test_multiple_shards_partition_all_examples(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path, per_class=5)
        train_set, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "out", train_shards=3)
        assert len(train_set.paths) == 3
        assert sum(1 for _ in read_examples(train_set)) == 10
        found = find_shards(tmp_path / "out", "train")
        assert found.count == 10 and found.paths == train_set.paths

    def test_threaded_build_is_identical(self, tmp_path):
        train_dir, test_dir, labels_file = self.corpus(tmp_path, per_class=4)
        a, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "one", num_threads=1)
        b, _ = build_shards(train_dir, test_dir, labels_file, tmp_path / "four", num_threads=4)
        assert a.paths[0].read_bytes() == b.paths[0].read_bytes()


class TestShuffleBatches:
    def test_batch_tensor_shape(self, tmp_path):
        shards = shard_of(tmp_path, make_records(130, seed=10))
        images, labels = next(shuffle_batches(read_examples(shards), 60, ShuffleParams(seed=1)))
        assert images.shape == (60, 100, 100, 3)
        assert images.dtype == np.float32
        assert 0.0 <= images.min() and images.max() <= 1.0
        assert labels.shape == (60,)

    def test_degenerate_buffer_preserves_order(self, tmp_path):
        records = make_records(9, seed=11)
        shards = shard_of(tmp_path, records)
        out = []
        for _, labels in shuffle_batches(read_examples(shards), 2, ShuffleParams(capacity=1, min_fill=0, seed=0)):
            out.extend(labels.tolist())
        assert out == [r.label for r in records]

    def test_one_epoch_is_a_permutation(self, tmp_path):
        records = make_records(57, seed=12)
        shards = shard_of(tmp_path, records)
        seen = []
        for _, labels in shuffle_batches(read_examples(shards), 10, ShuffleParams(capacity=20, min_fill=5, seed=3)):
            seen.extend(labels.tolist())
        assert Counter(seen) == Counter(r.label for r in records)

    def test_equal_seeds_reproduce_batches(self, tmp_path):
        shards = shard_of(tmp_path, make_records(40, seed=13))
        params = ShuffleParams(capacity=16, min_fill=4, seed=77)
        a = [lbl.tolist() for _, lbl in shuffle_batches(read_examples(shards), 8, params)]
        b = [lbl.tolist() for _, lbl in shuffle_batches(read_examples(shards), 8, params)]
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        rng = np.random.default_rng(14)
        records = [make_record(rng, label) for label in rng.permutation(np.arange(1, 121))]
        shards = shard_of(tmp_path, records)
        seq = {}
        for seed in (0, 1):
            params = ShuffleParams(capacity=50, min_fill=10, seed=seed)
            seq[seed] = [l for _, lbl in shuffle_batches(read_examples(shards), 12, params) for l in lbl]
        assert seq[0] != seq[1]

    def test_final_partial_batch_allowed(self, tmp_path):
        shards = shard_of(tmp_path, make_records(7, seed=15))
        sizes = [len(lbl) for _, lbl in shuffle_batches(read_examples(shards), 3, ShuffleParams(capacity=4, seed=0, min_fill=2))]
        assert sizes == [3, 3, 1]

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidInputError):
            ShuffleParams(capacity=0)
        with pytest.raises(InvalidInputError):
            ShuffleParams(capacity=5, min_fill=9)
        with pytest.raises(InvalidInputError):
            next(shuffle_batches(iter(()), 0, ShuffleParams()))


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
    # against the bytes left instead
    path = tmp_path / "huge.rec"
    path.write_bytes(b"FRRC" + struct.pack("<II", 1, 1) + struct.pack("<IIII", 1, 2**31, 2**31, 3) + bytes(8))
    with pytest.raises(FormatError) as err:
        list(iter_shard(path))
    assert err.value.path == path
    assert err.value.offset == 28  # payload of the first record
