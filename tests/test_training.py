import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet.augmentation import Scenario
from fruitnet.errors import ConfigurationError, FormatError, ShapeError, TrainingDivergedError
from fruitnet.layers import cross_entropy_loss
from fruitnet.network import NetworkConfig, backward, forward, init_params
from fruitnet.records import ExampleRecord, LabelMap, ShardSet, write_shard
from fruitnet.seeding import STREAM_INIT, make_rng
from fruitnet.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    batch_accuracy,
    load_checkpoint,
    save_checkpoint,
    train,
    update_learning_rate,
)

from helpers import adam_scalar_oracle

TINY_NET = NetworkConfig(num_classes=3, input_channels=3, conv_maps=(2, 2, 2, 2), fc_sizes=(8, 6))


def tiny_corpus(tmp_path, n=12, seed=0) -> tuple:
    """A small 2-class shard set of 100x100 records plus its label map."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        label = 1 + i % 2
        base = 40 if label == 1 else 200
        px = rng.integers(base, base + 30, (100, 100, 3), dtype=np.uint8)
        records.append(ExampleRecord(label=label, pixels=px))
    path = tmp_path / "train-00000-of-00001.rec"
    write_shard(path, records)
    labels = LabelMap.from_names(["first", "second"])
    return ShardSet(paths=(path,), split="train", count=n), labels


def tiny_cfg(iterations, seed=5, **kw) -> TrainConfig:
    defaults = dict(
        net=TINY_NET,
        scenario=Scenario.RGB,
        iterations=iterations,
        batch_size=4,
        keep_prob=0.8,
        display_interval=2,
        seed=seed,
        shuffle_capacity=8,
        shuffle_min_fill=2,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestUpdateLearningRate:
    def test_zero_accuracy_keeps_initial_rate(self):
        assert update_learning_rate(0.0) == 1e-3

    def test_full_accuracy_decays_ninety_percent(self):
        # IEEE doubles land 5 ulps below the mathematical 1e-4; see the
        # acceptance suite for the pinned tolerance discussion
        assert update_learning_rate(1.0) == pytest.approx(1e-4, abs=8 * math.ulp(1e-4))

    def test_floor_binds_when_final_rate_is_high(self):
        assert update_learning_rate(1.0, lr_initial=1e-3, lr_final=5e-4) == 5e-4

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_range_and_floor_with_defaults(self, acc):
        rate = update_learning_rate(acc)
        assert 1e-4 - 8 * math.ulp(1e-4) <= rate <= 1e-3
        assert rate > 1e-5  # the default floor never binds

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_monotone_non_increasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert update_learning_rate(hi) <= update_learning_rate(lo)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.zeros(3)}
        state = AdamState.zeros_like(params)
        new, state2 = adam_step(params, grads, state, lr=0.1)
        assert np.array_equal(new["w"], params["w"])
        assert state2.t == 1

    def test_first_step_moves_by_learning_rate(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([1.0])}
        new, _ = adam_step(params, grads, AdamState.zeros_like(params), lr=0.1)
        assert abs(new["w"][0] - 0.9) < 1e-7

    def test_matches_scalar_oracle_over_hundred_steps(self):
        rng = np.random.default_rng(0)
        grad_seq = rng.normal(size=100).tolist()
        params = {"w": np.array([0.7])}
        state = AdamState.zeros_like(params)
        history = []
        for g in grad_seq:
            params, state = adam_step(params, {"w": np.array([g])}, state, lr=0.01)
            history.append(params["w"][0])
        oracle = adam_scalar_oracle(0.7, grad_seq, lr=0.01)
        assert np.abs(np.array(history) - np.array(oracle)).max() < 1e-10

    def test_second_moment_stays_nonnegative(self):
        rng = np.random.default_rng(1)
        params = {"w": rng.normal(size=8)}
        state = AdamState.zeros_like(params)
        for _ in range(10):
            params, state = adam_step(params, {"w": rng.normal(size=8)}, state, lr=0.05)
        assert (state.v["w"] >= 0).all()

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(ShapeError):
            adam_step(params, {"w": np.zeros(4)}, AdamState.zeros_like(params), lr=0.1)
        with pytest.raises(ShapeError):
            adam_step(params, {"v": np.zeros(3)}, AdamState.zeros_like(params), lr=0.1)

    def test_float32_params_stay_float32(self):
        params = {"w": np.ones(4, dtype=np.float32)}
        grads = {"w": np.full(4, 0.5, dtype=np.float32)}
        new, state = adam_step(params, grads, AdamState.zeros_like(params), lr=0.001)
        assert new["w"].dtype == np.float32
        assert state.m["w"].dtype == np.float32


class TestBatchAccuracy:
    def test_all_correct(self):
        logits = np.array([[0.1, 3.0], [5.0, 1.0]])
        assert batch_accuracy(logits, np.array([1, 0])) == 1.0

    def test_none_correct(self):
        logits = np.array([[0.1, 3.0], [5.0, 1.0]])
        assert batch_accuracy(logits, np.array([0, 1])) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(50, 7))
        labels = rng.integers(0, 7, 50)
        expected = sum(int(np.argmax(row) == lbl) for row, lbl in zip(logits, labels)) / 50
        assert batch_accuracy(logits, labels) == expected

    def test_ties_break_to_lowest_index(self):
        logits = np.zeros((1, 4))
        assert batch_accuracy(logits, np.array([0])) == 1.0
        assert batch_accuracy(logits, np.array([2])) == 0.0


def make_checkpoint(seed=0) -> Checkpoint:
    params = init_params(TINY_NET, make_rng(seed, STREAM_INIT))
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(seed)
    for key in state.m:
        state.m[key] = rng.normal(size=state.m[key].shape).astype(np.float32)
        state.v[key] = rng.random(size=state.v[key].shape).astype(np.float32)
    state.t = 17
    labels = LabelMap.from_names(["first", "second"])
    return Checkpoint(
        config=TINY_NET, params=params, adam=state, iteration=34, learning_rate=0.00037, labels=labels
    )


class TestCheckpointFormat:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = make_checkpoint()
        p1, p2 = tmp_path / "a.frck", tmp_path / "b.frck"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_everything(self, tmp_path):
        ckpt = make_checkpoint(3)
        path = tmp_path / "c.frck"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.config == ckpt.config
        assert back.iteration == ckpt.iteration
        assert back.learning_rate == ckpt.learning_rate
        assert back.labels == ckpt.labels
        assert back.adam.t == ckpt.adam.t
        assert (back.adam.beta1, back.adam.beta2, back.adam.eps) == (0.9, 0.999, 1e-8)
        for key in ckpt.params:
            assert np.array_equal(back.params[key], ckpt.params[key])
            assert np.array_equal(back.adam.m[key], ckpt.adam.m[key])
            assert np.array_equal(back.adam.v[key], ckpt.adam.v[key])

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "t.frck"
        save_checkpoint(make_checkpoint(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset is not None

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.frck"
        path.write_bytes(b"WHAT" + bytes(64))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0


class TestTrainLoop:
    def test_zero_iterations_returns_initialized_params(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        cfg = tiny_cfg(iterations=0)
        ckpt = train(cfg, shards, tmp_path / "run", labels, log=None)
        fresh = init_params(cfg.net, make_rng(cfg.seed, STREAM_INIT))
        assert ckpt.iteration == 0
        assert all(np.array_equal(ckpt.params[k], fresh[k]) for k in fresh)
        assert (tmp_path / "run" / "checkpoint.frck").exists()

    def test_fixed_seed_runs_are_bit_identical(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        cfg = tiny_cfg(iterations=4)
        train(cfg, shards, tmp_path / "a", labels, log=None)
        train(cfg, shards, tmp_path / "b", labels, log=None)
        assert (tmp_path / "a" / "checkpoint.frck").read_bytes() == (
            tmp_path / "b" / "checkpoint.frck"
        ).read_bytes()

    def test_resume_equals_uninterrupted(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        train(tiny_cfg(iterations=4), shards, tmp_path / "full", labels, log=None)

        train(tiny_cfg(iterations=2), shards, tmp_path / "half", labels, log=None)
        mid = load_checkpoint(tmp_path / "half" / "checkpoint.frck")
        assert mid.iteration == 2
        train(tiny_cfg(iterations=4), shards, tmp_path / "half", labels, resume_from=mid, log=None)

        full = load_checkpoint(tmp_path / "full" / "checkpoint.frck")
        resumed = load_checkpoint(tmp_path / "half" / "checkpoint.frck")
        assert resumed.iteration == full.iteration == 4
        for key in full.params:
            assert np.array_equal(full.params[key], resumed.params[key]), key
            assert np.array_equal(full.adam.m[key], resumed.adam.m[key]), key
        assert full.learning_rate == resumed.learning_rate

    def test_resume_past_the_target_rejected(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        train(tiny_cfg(iterations=4), shards, tmp_path / "long", labels, log=None)
        ckpt = load_checkpoint(tmp_path / "long" / "checkpoint.frck")
        with pytest.raises(ConfigurationError):
            train(tiny_cfg(iterations=2), shards, tmp_path / "long", labels, resume_from=ckpt, log=None)

    def test_metrics_csv_schema(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        train(tiny_cfg(iterations=4), shards, tmp_path / "m", labels, log=None)
        lines = (tmp_path / "m" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,loss,batch_accuracy,learning_rate"
        assert len(lines) == 3  # intervals at iterations 2 and 4
        first = lines[1].split(",")
        assert first[0] == "2"
        assert 0.0 <= float(first[2]) <= 1.0

    def test_learning_rate_follows_accuracy_rule(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        train(tiny_cfg(iterations=2), shards, tmp_path / "lr", labels, log=None)
        row = (tmp_path / "lr" / "metrics.csv").read_text().strip().splitlines()[1].split(",")
        acc, rate = float(row[2]), float(row[3])
        assert rate == pytest.approx(update_learning_rate(acc), abs=1e-12)

    def test_diverged_loss_reports_iteration(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        cfg = tiny_cfg(iterations=6, lr_initial=1e25, lr_final=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(cfg, shards, tmp_path / "boom", labels, log=None)
        assert err.value.iteration >= 1

    def test_scenario_channel_mismatch_rejected(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        cfg = tiny_cfg(iterations=1, scenario=Scenario.HSV_GRAY)  # 4 channels vs net's 3
        with pytest.raises(ConfigurationError):
            train(cfg, shards, tmp_path / "x", labels, log=None)

    def test_label_count_mismatch_rejected(self, tmp_path):
        shards, _ = tiny_corpus(tmp_path)
        wrong = LabelMap.from_names(["a", "b", "c", "d"])
        with pytest.raises(ConfigurationError):
            train(tiny_cfg(iterations=1), shards, tmp_path / "x", wrong, log=None)

    def test_empty_shards_rejected(self, tmp_path):
        path = tmp_path / "train-00000-of-00001.rec"
        write_shard(path, [])
        shards = ShardSet(paths=(path,), split="train", count=0)
        labels = LabelMap.from_names(["first", "second"])
        with pytest.raises(ConfigurationError):
            train(tiny_cfg(iterations=1), shards, tmp_path / "x", labels, log=None)


class TestLossDescent:
    def test_loss_non_increasing_on_fixed_batch_for_most_seeds(self):
        # keep_prob 1, no shuffling: fifty Adam steps on one tiny batch
        cfg = NetworkConfig(
            num_classes=3, input_channels=2, conv_maps=(2, 2, 2, 2), fc_sizes=(8, 6),
            input_height=12, input_width=12,
        )
        seeds = range(12)
        monotone = 0
        for seed in seeds:
            params = init_params(cfg, make_rng(seed, 0), dtype=np.float64)
            state = AdamState.zeros_like(params)
            rng = np.random.default_rng(seed)
            x = rng.random((4, 12, 12, 2))
            labels = rng.integers(0, 3, 4)
            losses = []
            for _ in range(50):
                logits, caches = forward(cfg, params, x, 1.0)
                loss, grad = cross_entropy_loss(logits, labels)
                losses.append(loss)
                params, state = adam_step(params, backward(cfg, caches, grad), state, lr=0.001)
            if (np.diff(losses) <= 1e-12).all():
                monotone += 1
            assert losses[-1] < losses[0], f"seed {seed} did not descend at all"
        assert monotone / len(seeds) >= 0.95


class TestTrainConfig:
    def test_default_shuffle_capacity_tracks_batch_size(self):
        cfg = tiny_cfg(iterations=1, shuffle_capacity=None)
        assert cfg.effective_shuffle_capacity == 35000 + cfg.batch_size

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_cfg(iterations=1, batch_size=0)
        with pytest.raises(ConfigurationError):
            tiny_cfg(iterations=1, lr_initial=1e-5, lr_final=1e-3)


def _tensor_dims_offset(raw: bytes, name: str) -> int:
    # a tensor entry is: name length u32 | name | rank u32 | dims u32 each
    at = raw.index(name.encode("utf-8")) + len(name)
    assert struct.unpack_from("<I", raw, at)[0] == 4
    return at + 4


def test_tensor_dims_overflowing_int64_are_a_format_error(tmp_path):
    path = tmp_path / "dims.frck"
    save_checkpoint(make_checkpoint(), path)
    raw = bytearray(path.read_bytes())
    at = _tensor_dims_offset(bytes(raw), "param/conv1_w")
    raw[at : at + 16] = struct.pack("<4I", *(2**32 - 1,) * 4)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.path == path
    assert err.value.offset == at + 16  # the payload those dims claim


def test_label_count_must_match_num_classes(tmp_path):
    ckpt = make_checkpoint()
    ckpt.labels = LabelMap(ckpt.labels.names[:2])  # 2 names for 3 classes
    path = tmp_path / "labels.frck"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    labels_at = raw.index(struct.pack("<I", 2) + struct.pack("<I", len("nothing")) + b"nothing")
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "2 label names for 3 classes" in str(err.value)
    assert err.value.path == path
    assert err.value.offset == labels_at


def test_scenario_channel_checks_keep_their_messages(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    with pytest.raises(ConfigurationError, match="scenario hsv_gray feeds 4 channels, network expects 3"):
        train(tiny_cfg(iterations=1, scenario=Scenario.HSV_GRAY), shards, tmp_path / "x", labels, log=None)
