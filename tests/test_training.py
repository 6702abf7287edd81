import fcntl
import itertools
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitnet import _parallel, training
from fruitnet.augmentation import Scenario
from fruitnet.errors import ConfigurationError, FormatError, ShapeError, TrainingDivergedError
from fruitnet.evaluation import evaluate
from fruitnet.layers import cross_entropy_loss
from fruitnet.network import NetworkConfig, backward, forward, init_params, param_shapes, preset_configuration
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

from helpers import adam_scalar_oracle, damage

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
    return ShardSet(path=path, split="train", count=n), labels


def tiny_cfg(iterations, seed=5, **kw) -> TrainConfig:
    defaults = dict(
        net=TINY_NET,
        scenario=Scenario.RGB,
        iterations=iterations,
        batch_size=4,
        keep_prob=0.8,
        display_interval=2,
        seed=seed,
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

    @pytest.mark.parametrize("iterations, saves", [(4, [2, 4]), (5, [2, 4, 5])])
    def test_the_run_ends_with_a_save_only_if_its_last_iteration_made_none(
        self, tmp_path, monkeypatch, iterations, saves
    ):
        shards, labels = tiny_corpus(tmp_path)
        real_save, saved = training.save_checkpoint, []

        def counting_save(ckpt, path):
            saved.append(ckpt.iteration)
            real_save(ckpt, path)

        monkeypatch.setattr(training, "save_checkpoint", counting_save)
        run, other = tmp_path / "run", tmp_path / "other"
        state = train(tiny_cfg(iterations), shards, run, labels, log=None)  # display interval 2
        assert saved == saves
        # what an unconditional end-of-run save of the returned state writes
        real_save(state, tmp_path / "end.frck")
        assert (run / training.CHECKPOINT_NAME).read_bytes() == (tmp_path / "end.frck").read_bytes()
        rows = (run / training.METRICS_NAME).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "4"]

        # a resume with nothing left to run still writes its checkpoint into another run directory
        resumed = load_checkpoint(run / training.CHECKPOINT_NAME)
        train(tiny_cfg(iterations), shards, other, labels, resume_from=resumed, log=None)
        assert saved == [*saves, iterations]
        assert (other / training.CHECKPOINT_NAME).read_bytes() == (tmp_path / "end.frck").read_bytes()

    def test_resume_past_the_target_rejected(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        train(tiny_cfg(iterations=4), shards, tmp_path / "long", labels, log=None)
        ckpt = load_checkpoint(tmp_path / "long" / "checkpoint.frck")
        with pytest.raises(ConfigurationError):
            train(tiny_cfg(iterations=2), shards, tmp_path / "long", labels, resume_from=ckpt, log=None)

    def test_resume_with_the_labels_of_another_run_rejected_before_writing(self, tmp_path):
        shards, labels = tiny_corpus(tmp_path)
        run = tmp_path / "run"
        train(tiny_cfg(iterations=2), shards, run, labels, log=None)
        before = {path.name: path.read_bytes() for path in run.iterdir()}
        swapped = LabelMap.from_names(["second", "first"])  # same count, other order
        ckpt = load_checkpoint(run / "checkpoint.frck")
        with pytest.raises(ConfigurationError, match=re.escape("['nothing', 'first', 'second']")) as err:
            train(tiny_cfg(iterations=4), shards, run, swapped, resume_from=ckpt, log=None)
        assert "['nothing', 'second', 'first']" in str(err.value)
        assert {path.name: path.read_bytes() for path in run.iterdir()} == before

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
        # a checkpoint at iteration 2 whose output bias is NaN: the loss of
        # the first resumed step, iteration 3, is not finite
        shards, labels = tiny_corpus(tmp_path)
        train(tiny_cfg(iterations=2), shards, tmp_path / "boom", labels, log=None)
        ckpt = load_checkpoint(tmp_path / "boom" / "checkpoint.frck")
        ckpt.params["out_b"][:] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(tiny_cfg(iterations=6), shards, tmp_path / "boom", labels, resume_from=ckpt, log=None)
        assert err.value.iteration == 3

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
        shards = ShardSet(path=path, split="train", count=0)
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
                params, state = adam_step(params, backward(caches, grad), state, lr=0.001)
            if (np.diff(losses) <= 1e-12).all():
                monotone += 1
            assert losses[-1] < losses[0], f"seed {seed} did not descend at all"
        assert monotone / len(seeds) >= 0.95


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_cfg(iterations=1, batch_size=0)

    @pytest.mark.parametrize(
        "field, value, bound",
        [
            ("keep_prob", 0.0, "in (0, 1]"),
            ("keep_prob", 1.5, "in (0, 1]"),
            ("iterations", -1, ">= 0"),
            ("display_interval", 0, ">= 1"),
            ("seed", -3, ">= 0"),
        ],
        ids=["keep_prob=0", "keep_prob=1.5", "iterations=-1", "display_interval=0", "seed=-3"],
    )
    def test_a_bad_field_is_refused_at_construction_by_name_and_value(self, field, value, bound):
        with pytest.raises(ConfigurationError, match=re.escape(f"{field} must be {bound}, got {value}")):
            tiny_cfg(**{"iterations": 1, field: value})


class _FailingWrites:
    """A file opened for writing whose write raises exc once more than limit
    bytes have been asked for."""

    def __init__(self, path, mode, exc, limit):
        self.fh, self.exc, self.limit, self.asked = open(path, mode), exc, limit, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()
        return False

    def write(self, data):
        self.asked += len(memoryview(data).cast("B"))
        if self.asked > self.limit:
            raise self.exc
        return self.fh.write(data)


@pytest.mark.parametrize(
    "exc", [OSError(28, "No space left on device"), KeyboardInterrupt()], ids=["oserror", "ctrl_c"]
)
def test_a_failed_checkpoint_save_leaves_no_tmp_and_the_old_checkpoint(tmp_path, monkeypatch, exc):
    path = tmp_path / "checkpoint.frck"
    save_checkpoint(make_checkpoint(0), path)
    before = path.read_bytes()
    opened = []

    def failing_open(file, mode="r"):
        opened.append(_FailingWrites(file, mode, exc, limit=len(before) // 2))
        return opened[-1]

    monkeypatch.setattr(training, "open", failing_open, raising=False)
    with pytest.raises(type(exc)):
        save_checkpoint(make_checkpoint(1), path)
    monkeypatch.undo()
    assert opened and opened[0].asked > len(before) // 2  # it failed partway through the tensors
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.frck"]
    assert path.read_bytes() == before


def test_label_count_must_match_num_classes(tmp_path):
    # save_checkpoint refuses 2 names for 3 classes, so the last name is cut from the saved bytes
    path = tmp_path / "labels.frck"
    save_checkpoint(make_checkpoint(), path)
    block = [struct.pack("<I", len(name)) + name.encode() for name in ("nothing", "first", "second")]
    three, two = (struct.pack("<I", n) + b"".join(block[:n]) for n in (3, 2))
    raw = path.read_bytes().replace(three, two, 1)
    path.write_bytes(raw)
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


def test_a_network_not_taking_the_shard_images_is_refused_before_anything_is_written(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    net = NetworkConfig(**{**TINY_NET.__dict__, "input_height": 12, "input_width": 12})
    with pytest.raises(ConfigurationError, match="shards hold 100x100 images, network expects 12x12"):
        train(tiny_cfg(iterations=1, net=net), shards, tmp_path / "run", labels, log=None)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "side, classes, error, message",
    [
        # shards built for 3 classes, a run of 2 of them: label 3 has no network output
        (100, 3, ConfigurationError, "shard label 3 is out of range for a 3-class network"),
        (12, 2, ConfigurationError, "shards hold 12x12 images, network expects 100x100"),
    ],
    ids=["label", "dims"],
)
def test_a_shard_the_network_cannot_take_is_refused_before_anything_is_written(
    tmp_path, side, classes, error, message
):
    path = tmp_path / "train-00000-of-00001.rec"
    pixels = [np.full((side, side, 3), i, np.uint8) for i in range(6)]
    write_shard(path, [ExampleRecord(label=1 + i % classes, pixels=px) for i, px in enumerate(pixels)])
    shards, labels = ShardSet(path=path, split="train", count=6), LabelMap.from_names(["first", "second"])
    with pytest.raises(error, match=re.escape(message)):
        train(tiny_cfg(iterations=1), shards, tmp_path / "run", labels, log=None)
    assert not (tmp_path / "run").exists()


@given(shard_side=st.integers(1, 16), net_side=st.integers(1, 16), same=st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_split_fits_a_network_exactly_when_its_images_have_the_network_input_dims(
    tmp_path_factory, shard_side, net_side, same
):
    net_side = shard_side if same else net_side
    tmp = tmp_path_factory.mktemp("fit")
    rng = np.random.default_rng(shard_side)
    path = tmp / "train-00000-of-00001.rec"
    pixels = rng.integers(0, 256, (5, shard_side, shard_side, 3), np.uint8)
    write_shard(path, [ExampleRecord(label=1 + i % 2, pixels=px) for i, px in enumerate(pixels)])
    shards, labels = ShardSet(path=path, split="train", count=5), LabelMap.from_names(["first", "second"])
    net = replace(TINY_NET, input_height=net_side, input_width=net_side)
    cfg = tiny_cfg(iterations=1, net=net, display_interval=1)
    if shard_side != net_side:
        message = f"shards hold {shard_side}x{shard_side} images, network expects {net_side}x{net_side}"
        with pytest.raises(ConfigurationError, match=message):
            train(cfg, shards, tmp / "run", labels, log=None)
        assert not (tmp / "run").exists()
        params = init_params(net, make_rng(0))
        ckpt = Checkpoint(net, params, AdamState.zeros_like(params), 0, 1e-3, labels, cfg.scenario)
        with pytest.raises(ConfigurationError, match=f"checkpoint network expects {net_side}x{net_side}"):
            evaluate(ckpt, shards, Scenario.RGB, log=None)
        return
    ckpt = train(cfg, shards, tmp / "run", labels, log=None)
    assert ckpt.iteration == 1
    assert evaluate(ckpt, shards, Scenario.RGB, log=None).total_images == 5


def test_train_draws_through_a_buffer_of_35000_plus_the_batch(tmp_path, monkeypatch):
    shards, labels = tiny_corpus(tmp_path)
    capacities, shuffle_batches = [], training.shuffle_batches

    def recording(shards, batch_size, capacity, *rest):
        capacities.append(capacity)
        return shuffle_batches(shards, batch_size, capacity, *rest)

    monkeypatch.setattr(training, "shuffle_batches", recording)
    for batch_size in (4, 7):
        train(tiny_cfg(iterations=1, batch_size=batch_size), shards, tmp_path / f"run{batch_size}", labels, log=None)
    assert capacities == [35004, 35007]


@pytest.mark.parametrize("names", [["first"], ["first", "second", "third"]], ids=["fewer", "more"])
def test_saving_labels_of_another_class_count_is_refused_before_the_file_is_opened(tmp_path, names):
    ckpt = make_checkpoint()  # 3 classes
    ckpt.labels = LabelMap.from_names(names)
    path = tmp_path / "c.frck"
    with pytest.raises(ConfigurationError, match=re.escape(f"label map has {len(names) + 1} classes, network has 3")):
        save_checkpoint(ckpt, path)
    assert not path.exists() and not path.with_name("c.frck.tmp").exists()


# header: magic 4 | version 4 | iteration, adam step, rate 24 | then the network block
_NETWORK_AT = 32


def _non_utf8(name: bytes):
    def edit(raw):
        at = raw.index(name)
        raw[at] = 0xFF  # never valid in UTF-8
        return at

    return edit


def _first_label_not_nothing(raw):
    at = raw.index(b"nothing")
    raw[at : at + 7] = b"NOTHING"
    return at - 4  # the first name's length field


def _zero_conv_maps(raw):
    conv_maps_at = _NETWORK_AT + 5 * 4
    raw[conv_maps_at : conv_maps_at + 4] = struct.pack("<I", 0)
    return _NETWORK_AT


def _scenario_index(index: int):
    def edit(raw):
        raw[76:80] = struct.pack("<I", index)  # no scenario has an index of 5 or more
        return 76

    return edit


@pytest.mark.parametrize(
    "edit",
    [_non_utf8(b"nothing"), _first_label_not_nothing, _zero_conv_maps, _scenario_index(5), _scenario_index(2**32 - 1)],
    ids=["non_utf8_label", "first_label", "zero_conv_maps", "scenario_index_5", "scenario_index_2_to_the_32_minus_1"],
)
def test_malformed_checkpoint_is_a_format_error_at_its_offset(tmp_path, edit):
    path = tmp_path / "damaged.frck"
    save_checkpoint(make_checkpoint(), path)
    raw = bytearray(path.read_bytes())
    at = edit(raw)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.path == path
    assert err.value.offset == at


def test_conv_maps_claiming_2_to_the_32_are_a_format_error_before_any_allocation(tmp_path):
    path = tmp_path / "huge.frck"
    save_checkpoint(make_checkpoint(), path)
    raw = bytearray(path.read_bytes())
    raw[_NETWORK_AT + 20 : _NETWORK_AT + 36] = struct.pack("<4I", *(2**32 - 1,) * 4)
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.path == path
    assert err.value.offset == len(raw)  # min(size, expected): the file ends long before the tensors it claims
    assert peak < 1e6, f"load_checkpoint peaked at {peak / 1e6:.1f} MB"


def test_a_class_count_the_tensors_leave_no_room_for_fails_without_walking_them(tmp_path):
    # zero tensors would parse as millions of empty label names; the labels
    # must end where the tensors the header describes begin
    cfg = preset_configuration(1, num_classes=5)
    params = {k: np.zeros(s, dtype=np.float32) for k, s in param_shapes(cfg).items()}
    path = tmp_path / "classes.frck"
    labels = LabelMap.from_names(list("abcd"))
    save_checkpoint(Checkpoint(cfg, params, AdamState.zeros_like(params), 1, 0.001, labels), path)
    raw = bytearray(path.read_bytes())
    raw[_NETWORK_AT : _NETWORK_AT + 4] = raw[80:84] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(raw))
    began = time.perf_counter()
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert time.perf_counter() - began < 5.0
    assert err.value.offset == len(raw)


@pytest.mark.parametrize("change", [-1, -4, -500, 1, 4], ids=["short_1", "short_4", "short_500", "long_1", "long_4"])
def test_truncated_and_trailing_files_fail_at_the_described_size(tmp_path, change):
    path = tmp_path / "sized.frck"
    save_checkpoint(make_checkpoint(), path)
    raw = path.read_bytes()
    damaged = raw[:change] if change < 0 else raw + bytes(change)
    path.write_bytes(damaged)
    with pytest.raises(FormatError, match="truncated" if change < 0 else "trailing") as err:
        load_checkpoint(path)
    assert err.value.offset == min(len(damaged), len(raw))


@pytest.mark.parametrize("length", [20, 80], ids=["in_header", "in_labels"])
def test_a_file_cut_in_its_header_or_labels_fails_at_its_end(tmp_path, length):
    path = tmp_path / "cut.frck"
    save_checkpoint(make_checkpoint(), path)
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(FormatError, match="truncated") as err:
        load_checkpoint(path)
    assert err.value.offset == length


def test_a_version_1_checkpoint_is_refused_at_offset_4(tmp_path):
    path = tmp_path / "v1.frck"
    save_checkpoint(make_checkpoint(), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checkpoints written before version 4 cannot be loaded") as err:
        load_checkpoint(path)
    assert err.value.offset == 4


_small_nets = st.builds(
    NetworkConfig,
    num_classes=st.integers(1, 4),
    input_channels=st.integers(1, 4),
    conv_maps=st.tuples(*[st.integers(1, 3)] * 4),
    fc_sizes=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    kernel_size=st.integers(1, 3),
    input_height=st.integers(1, 20),
    input_width=st.integers(1, 20),
)


@given(net=_small_nets, data=st.data())
@settings(max_examples=60, deadline=None)
def test_v4_round_trip_is_exact_and_holds_only_the_state(tmp_path_factory, net, data):
    names = data.draw(
        st.lists(st.text(max_size=6), min_size=net.num_classes - 1, max_size=net.num_classes - 1, unique=True)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shapes = param_shapes(net)
    params, m, v = ({k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()} for _ in range(3))
    ckpt = Checkpoint(
        net, params, AdamState(m=m, v=v, t=data.draw(st.integers(0, 2**64 - 1), label="t")),
        data.draw(st.integers(0, 2**64 - 1), label="iteration"),
        data.draw(st.floats(allow_nan=False), label="lr"),
        LabelMap.from_names(names),
        data.draw(st.sampled_from(Scenario), label="scenario"),  # any of the five, whatever the net's depth
    )
    tmp = tmp_path_factory.mktemp("v4")
    save_checkpoint(ckpt, tmp / "a.frck")
    back = load_checkpoint(tmp / "a.frck")
    assert (back.config, back.labels, back.iteration, back.learning_rate, back.adam.t, back.scenario) == (
        net, ckpt.labels, ckpt.iteration, ckpt.learning_rate, ckpt.adam.t, ckpt.scenario
    )
    for group, loaded in ((params, back.params), (m, back.adam.m), (v, back.adam.v)):
        assert list(loaded) == list(shapes)
        for key in shapes:
            assert loaded[key].dtype == np.float32 and np.array_equal(loaded[key], group[key]), key
    # the 80-byte fixed header and the labels, padded to 4096 bytes, then the
    # float32 tensors: no names, dims or other fields
    label_bytes = 4 + sum(4 + len(name.encode("utf-8")) for name in ckpt.labels.names)
    tensor_bytes = 3 * 4 * sum(math.prod(s) for s in shapes.values())
    raw = (tmp / "a.frck").read_bytes()
    assert len(raw) == -(-(80 + label_bytes) // 4096) * 4096 + tensor_bytes
    save_checkpoint(back, tmp / "b.frck")
    assert (tmp / "b.frck").read_bytes() == raw


def test_saving_tensors_of_the_wrong_shape_is_a_shape_error(tmp_path):
    ckpt = make_checkpoint()
    ckpt.adam.v["fc1_b"] = ckpt.adam.v["fc1_b"][:-1]
    with pytest.raises(ShapeError):
        save_checkpoint(ckpt, tmp_path / "bad.frck")
    assert list(tmp_path.iterdir()) == []


_FUZZ_NET = NetworkConfig(
    num_classes=2, input_channels=1, conv_maps=(1, 1, 1, 1), fc_sizes=(1, 1),
    kernel_size=1, input_height=1, input_width=1,
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_checkpoint_is_a_format_error_or_loads_exactly(tmp_path_factory, data):
    # a small network keeps headers, names and dims a large share of the bytes;
    # every byte is consumed, so whatever loads must save back to the same bytes
    params = init_params(_FUZZ_NET, make_rng(1, STREAM_INIT))
    ckpt = Checkpoint(_FUZZ_NET, params, AdamState.zeros_like(params), 3, 0.001, LabelMap.from_names(["a"]))
    tmp = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(ckpt, tmp / "valid.frck")
    damaged = damage(data, (tmp / "valid.frck").read_bytes())
    path = tmp / "damaged.frck"
    path.write_bytes(damaged)
    try:
        loaded = load_checkpoint(path)
    except FormatError as err:
        assert err.path == path and 0 <= err.offset <= len(damaged)
        return
    save_checkpoint(loaded, tmp / "again.frck")
    assert (tmp / "again.frck").read_bytes() == damaged


def test_saving_a_preset_1_checkpoint_copies_no_tensor(tmp_path):
    # params plus two Adam moments are about 84 MB of float32; writing them
    # from their own buffers keeps the traced peak to the small header parts
    cfg = preset_configuration(1, num_classes=5)
    params = init_params(cfg, make_rng(0, STREAM_INIT))
    ckpt = Checkpoint(cfg, params, AdamState.zeros_like(params), 1, 0.001, LabelMap.from_names(list("abcd")))
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, tmp_path / "c.frck")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"save_checkpoint peaked at {peak / 1e6:.1f} MB"
    assert load_checkpoint(tmp_path / "c.frck").params["fc1_w"].tobytes() == params["fc1_w"].tobytes()


def _labels_end(ckpt: Checkpoint) -> int:
    """Where the label block ends: the fixed header, the name count, then each name's length and bytes."""
    return 80 + 4 + sum(4 + len(name.encode("utf-8")) for name in ckpt.labels.names)


def _tensor_bytes(ckpt: Checkpoint) -> bytes:
    return b"".join(group[key].astype("<f4").tobytes() for group in (ckpt.params, ckpt.adam.m, ckpt.adam.v)
                    for key in param_shapes(ckpt.config))


@given(names=st.lists(st.text(max_size=3000).filter(lambda name: name != "nothing"), max_size=4, unique=True))
@settings(max_examples=40, deadline=None)
def test_the_tensor_block_starts_at_a_multiple_of_4096_after_zero_padding(tmp_path_factory, names):
    net = replace(_FUZZ_NET, num_classes=len(names) + 1)
    params = init_params(net, make_rng(2, STREAM_INIT))
    ckpt = Checkpoint(net, params, AdamState.zeros_like(params), 5, 0.001, LabelMap.from_names(names))
    path = tmp_path_factory.mktemp("aligned") / "c.frck"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    tensors = _tensor_bytes(ckpt)
    at = len(raw) - len(tensors)
    labels_end = _labels_end(ckpt)
    assert at % 4096 == 0 and at - 4096 < labels_end <= at
    assert not any(raw[labels_end:at]) and raw[at:] == tensors


def test_every_loaded_tensor_is_a_plain_writable_aligned_array(tmp_path):
    save_checkpoint(make_checkpoint(), tmp_path / "c.frck")
    back = load_checkpoint(tmp_path / "c.frck")
    for group in (back.params, back.adam.m, back.adam.v):
        for key, tensor in group.items():
            assert type(tensor) is np.ndarray, key
            assert tensor.flags.writeable and tensor.flags.aligned, key
    assert back.params["conv1_w"].ctypes.data % 4096 == 0  # the block's first tensor starts a page


def test_loading_a_preset_1_checkpoint_reads_no_tensor_into_the_heap(tmp_path):
    cfg = preset_configuration(1, num_classes=5)
    params = init_params(cfg, make_rng(0, STREAM_INIT))
    ckpt = Checkpoint(cfg, params, AdamState.zeros_like(params), 1, 0.001, LabelMap.from_names(list("abcd")))
    save_checkpoint(ckpt, tmp_path / "c.frck")
    tracemalloc.start()
    try:
        back = load_checkpoint(tmp_path / "c.frck")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"load_checkpoint peaked at {peak / 1e6:.1f} MB"
    assert all(np.array_equal(back.params[k], params[k]) for k in params)


def test_a_loaded_checkpoint_keeps_its_values_when_its_file_is_saved_over(tmp_path):
    path = tmp_path / "c.frck"
    first = make_checkpoint(0)
    save_checkpoint(first, path)
    loaded = load_checkpoint(path)
    save_checkpoint(make_checkpoint(1), path)  # a new file renamed over the loaded one
    for group, kept in ((first.params, loaded.params), (first.adam.m, loaded.adam.m), (first.adam.v, loaded.adam.v)):
        for key in group:
            assert np.array_equal(kept[key], group[key]), key


def test_writing_to_a_loaded_checkpoint_never_writes_its_file(tmp_path):
    path = tmp_path / "c.frck"
    save_checkpoint(make_checkpoint(), path)
    raw = path.read_bytes()
    loaded = load_checkpoint(path)
    for group in (loaded.params, loaded.adam.m, loaded.adam.v):
        for tensor in group.values():
            tensor += 1.0
    del loaded
    assert path.read_bytes() == raw


@pytest.mark.parametrize("flipped", [["first"], ["last"], ["last", "first"]], ids=["first", "last", "both"])
def test_a_padding_byte_that_is_not_zero_is_a_format_error_at_the_first_such_offset(tmp_path, flipped):
    ckpt = make_checkpoint()
    path = tmp_path / "c.frck"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    offsets = {"first": _labels_end(ckpt), "last": 4095}
    for name in flipped:
        raw[offsets[name]] = 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="padding byte is not zero") as err:
        load_checkpoint(path)
    assert (err.value.path, err.value.offset) == (path, min(offsets[name] for name in flipped))


def test_a_version_2_checkpoint_is_refused_at_offset_4(tmp_path):
    # a v2 file: the v3 layout without the padding
    ckpt = make_checkpoint()
    path = tmp_path / "v2.frck"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    labels_end = _labels_end(ckpt)
    tensors = _tensor_bytes(ckpt)
    path.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:labels_end] + tensors)
    with pytest.raises(FormatError, match="unsupported checkpoint version 2; checkpoints written before version 4") as err:
        load_checkpoint(path)
    assert (err.value.path, err.value.offset) == (path, 4)


def test_a_version_3_checkpoint_is_refused_at_offset_4(tmp_path):
    # a v3 file: the v4 layout without the scenario field
    ckpt = make_checkpoint()
    path = tmp_path / "v3.frck"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    head = raw[:4] + struct.pack("<I", 3) + raw[8:76] + raw[80 : _labels_end(ckpt)]
    path.write_bytes(head + bytes(-len(head) % 4096) + _tensor_bytes(ckpt))
    with pytest.raises(FormatError, match="unsupported checkpoint version 3; checkpoints written before version 4") as err:
        load_checkpoint(path)
    assert (err.value.path, err.value.offset) == (path, 4)


def test_a_checkpoint_stores_its_scenario_at_offset_76_as_its_index_in_this_table(tmp_path):
    # the table is part of the format: an index names the same scenario in every version of the code
    table = {Scenario.GRAY: 0, Scenario.RGB: 1, Scenario.HSV: 2, Scenario.HSV_GRAY: 3, Scenario.HSV_GRAY_AUG: 4}
    assert list(table) == list(Scenario)
    ckpt, path = make_checkpoint(), tmp_path / "c.frck"
    for scenario, index in table.items():
        ckpt.scenario = scenario
        save_checkpoint(ckpt, path)
        assert struct.unpack_from("<I", path.read_bytes(), 76) == (index,)
        assert load_checkpoint(path).scenario is scenario


@pytest.mark.parametrize(
    "trained, resumed",
    [(Scenario.RGB, Scenario.HSV), (Scenario.HSV, Scenario.RGB), (Scenario.HSV_GRAY_AUG, Scenario.HSV_GRAY)],
    ids=["rgb_as_hsv", "hsv_as_rgb", "hsv_gray_aug_as_hsv_gray"],
)
def test_a_resume_under_another_scenario_of_the_same_depth_is_refused_and_changes_nothing(tmp_path, trained, resumed):
    shards, labels = tiny_corpus(tmp_path)
    net = replace(TINY_NET, input_channels=trained.input_channels)
    run = tmp_path / "run"
    train(tiny_cfg(iterations=2, net=net, scenario=trained), shards, run, labels, log=None)
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    ckpt = load_checkpoint(run / "checkpoint.frck")
    assert ckpt.scenario is trained
    message = f"checkpoint was trained on scenario {trained.value}, not {resumed.value}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        train(tiny_cfg(iterations=4, net=net, scenario=resumed), shards, run, labels, resume_from=ckpt, log=None)
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_a_fresh_run_equals_a_resume_from_its_own_iteration_0_checkpoint(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    cfg = tiny_cfg(iterations=4)
    train(cfg, shards, tmp_path / "fresh", labels, log=None)
    params = init_params(cfg.net, make_rng(cfg.seed, STREAM_INIT))
    zero = Checkpoint(cfg.net, params, AdamState.zeros_like(params), 0, training.LR_INITIAL, labels, cfg.scenario)
    save_checkpoint(zero, tmp_path / "zero.frck")
    resumed = load_checkpoint(tmp_path / "zero.frck")
    train(cfg, shards, tmp_path / "resumed", labels, resume_from=resumed, log=None)
    for name in ("checkpoint.frck", "metrics.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "resumed" / name).read_bytes(), name


def test_a_fresh_run_leaves_only_its_checkpoint_and_metrics(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    train(tiny_cfg(iterations=4), shards, tmp_path / "run", labels, log=None)
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == ["checkpoint.frck", "metrics.csv"]


def test_a_resumed_preset_1_run_peaks_no_higher_than_a_fresh_one(tmp_path, monkeypatch):
    # the loaded checkpoint (83.5 MB of float32) is the resumed run's state, not
    # a copy of it.  One step each, on one worker so that the two slices'
    # temporaries never overlap in time; 1 MB covers the array headers of the
    # loaded tensors, which are views of one block.
    monkeypatch.setattr(_parallel, "_worker_count", lambda: 1)
    shards, labels = tiny_corpus(tmp_path, n=4)
    net = preset_configuration(1, num_classes=3, input_channels=3)
    peaks = []
    for iterations, resume in ((1, False), (2, True)):
        cfg = tiny_cfg(iterations, net=net, batch_size=2, display_interval=1)
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.frck") if resume else None
            train(cfg, shards, tmp_path / "run", labels, resume_from=ckpt, log=None)
            del ckpt
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    fresh, resumed = peaks
    assert resumed <= fresh + 1e6, f"resumed: {resumed / 1e6:.1f} MB, fresh: {fresh / 1e6:.1f} MB"


@pytest.mark.parametrize("where", ["after_the_header", "at_the_end"])
@pytest.mark.parametrize("row", [b"\n", b"two,0.5,0.5,0.001\r\n"], ids=["blank", "non_numeric"])
def test_a_resume_over_a_damaged_metrics_row_is_a_format_error_at_its_offset(tmp_path, where, row):
    shards, labels = tiny_corpus(tmp_path)
    run = tmp_path / "run"
    train(tiny_cfg(iterations=4), shards, run, labels, log=None)
    raw = (run / "metrics.csv").read_bytes()
    at = raw.index(b"\n") + 1 if where == "after_the_header" else len(raw)
    (run / "metrics.csv").write_bytes(raw[:at] + row + raw[at:])
    files = {path.name: path.read_bytes() for path in run.iterdir()}
    ckpt = load_checkpoint(run / "checkpoint.frck")
    with pytest.raises(FormatError, match="does not start with an iteration") as err:
        train(tiny_cfg(iterations=6), shards, run, labels, resume_from=ckpt, log=None)
    assert (err.value.path, err.value.offset) == (run / "metrics.csv", at)
    assert {path.name: path.read_bytes() for path in run.iterdir()} == files


def test_a_fresh_run_over_a_damaged_metrics_file_writes_a_clean_one(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    train(tiny_cfg(iterations=4), shards, tmp_path / "clean", labels, log=None)
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "metrics.csv").write_bytes(b"iteration\n\ntwo,0.5\n9")
    train(tiny_cfg(iterations=4), shards, tmp_path / "run", labels, log=None)
    assert (tmp_path / "run" / "metrics.csv").read_bytes() == (tmp_path / "clean" / "metrics.csv").read_bytes()


@pytest.mark.parametrize(
    "names, damaged", [(["ab", "cd"], b"ab"), (["ab", "cdefghi"], b"nothing")], ids=["twice", "background"]
)
def test_a_checkpoint_naming_a_class_twice_or_the_background_fails_at_its_label_block(tmp_path, names, damaged):
    # a LabelMap refuses both, so the names are written over in the saved bytes
    ckpt = make_checkpoint()
    ckpt.labels = LabelMap.from_names(names)
    save_checkpoint(ckpt, tmp_path / "c.frck")
    raw = (tmp_path / "c.frck").read_bytes()
    last = struct.pack("<I", len(names[1])) + names[1].encode()
    (tmp_path / "c.frck").write_bytes(raw.replace(last, struct.pack("<I", len(damaged)) + damaged, 1))
    with pytest.raises(FormatError, match="invalid label names") as err:
        load_checkpoint(tmp_path / "c.frck")
    assert err.value.offset == 80 + 4  # the first name, after the fixed header and the count


def test_several_preset_1_steps_peak_no_higher_than_one(tmp_path, monkeypatch):
    # a step's caches and gradients are freed when it returns, so none of them
    # is alive through the next step; one worker, as in the test above
    monkeypatch.setattr(_parallel, "_worker_count", lambda: 1)
    shards, labels = tiny_corpus(tmp_path, n=4)
    net = preset_configuration(1, num_classes=3, input_channels=3)
    peaks = []
    for iterations in (1, 3):
        cfg = tiny_cfg(iterations, net=net, batch_size=2, display_interval=1)
        tracemalloc.start()
        try:
            train(cfg, shards, tmp_path / f"run{iterations}", labels, log=None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, three = peaks
    assert three <= one + 1e6, f"3 steps: {three / 1e6:.1f} MB, 1 step: {one / 1e6:.1f} MB"


# the names train looks up in training, at whose calls a run can be interrupted
_INTERRUPTIBLE = ("preprocess_batch", "forward", "backward", "adam_step", "_append_metrics", "save_checkpoint")
_RUN_FILES = (training.CHECKPOINT_NAME, training.METRICS_NAME)


def _aug_cfg(iterations):
    # augmented, so a resume must replay the augment draws; an odd batch, so the slices differ
    return tiny_cfg(iterations, net=replace(TINY_NET, input_channels=4), scenario=Scenario.HSV_GRAY_AUG, batch_size=5)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """A corpus, an uninterrupted run's directory and the calls it made to each interruptible name."""
    root = tmp_path_factory.mktemp("uninterrupted")
    shards, labels = tiny_corpus(root)
    calls = []  # appended to from the worker threads too, as list.append is atomic

    def counted(name, real):
        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counting

    with pytest.MonkeyPatch.context() as mp:
        for name in _INTERRUPTIBLE:
            mp.setattr(training, name, counted(name, getattr(training, name)))
        train(_aug_cfg(6), shards, root / "run", labels, log=None)
    return shards, labels, root / "run", Counter(calls)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_a_ctrl_c_at_any_call_then_a_resume_ends_as_the_uninterrupted_run(tmp_path_factory, uninterrupted, data):
    shards, labels, whole, calls = uninterrupted
    name = data.draw(st.sampled_from(_INTERRUPTIBLE), label="name")
    call = data.draw(st.integers(1, calls[name]), label="call")
    run = tmp_path_factory.mktemp("interrupted") / "run"
    real, made = getattr(training, name), itertools.count(1)  # next() is atomic across the worker threads

    def interrupt_at_call(*args, **kwargs):
        if next(made) == call:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, name, interrupt_at_call)
        with pytest.raises(KeyboardInterrupt):
            train(_aug_cfg(6), shards, run, labels, log=None)
    saved = run / training.CHECKPOINT_NAME
    # resumed from the last save, or started afresh in the same directory if there is none
    train(_aug_cfg(6), shards, run, labels, resume_from=load_checkpoint(saved) if saved.exists() else None, log=None)
    for name in _RUN_FILES:
        assert (run / name).read_bytes() == (whole / name).read_bytes(), name


@contextmanager
def _flock_held_on(directory):
    """Hold the exclusive flock a running train holds on its run directory."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_a_train_into_a_run_directory_another_holds_is_refused_and_changes_nothing(tmp_path, resume):
    shards, labels = tiny_corpus(tmp_path)
    run = tmp_path / "run"
    train(_aug_cfg(2), shards, run, labels, log=None)
    files = {path.name: path.read_bytes() for path in run.iterdir()}
    resume_from = load_checkpoint(run / training.CHECKPOINT_NAME) if resume else None
    with _flock_held_on(run), pytest.raises(ConfigurationError, match=re.escape(f"run directory {run} is in use")):
        train(_aug_cfg(4), shards, run, labels, resume_from=resume_from, log=None)
    assert {path.name: path.read_bytes() for path in run.iterdir()} == files
    if not resume:  # a fresh run starts only where no checkpoint is
        (run / training.CHECKPOINT_NAME).unlink()
    # the lock goes with its holder, and the refused run leaves none behind
    train(_aug_cfg(4), shards, run, labels, resume_from=resume_from, log=None)
    assert sorted(path.name for path in run.iterdir()) == sorted(_RUN_FILES)


def test_a_fresh_train_into_a_directory_that_holds_a_checkpoint_is_refused_and_changes_nothing(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    run = tmp_path / "run"
    train(_aug_cfg(2), shards, run, labels, log=None)
    files = {path.name: path.read_bytes() for path in run.iterdir()}
    with pytest.raises(ConfigurationError, match=re.escape(f"run directory {run} holds a checkpoint")):
        train(_aug_cfg(4), shards, run, labels, log=None)
    assert {path.name: path.read_bytes() for path in run.iterdir()} == files
    # the older run is still whole: a resume from it carries on
    assert train(_aug_cfg(4), shards, run, labels, resume_from=load_checkpoint(run / training.CHECKPOINT_NAME),
                 log=None).iteration == 4


# a fresh train of the pickled (cfg, shards, labels) in argv[1] into the run directory argv[2]
_TRAIN_CHILD = """
import pickle, sys
from pathlib import Path
from fruitnet.training import train
cfg, shards, labels = pickle.loads(Path(sys.argv[1]).read_bytes())
print("training", flush=True)
train(cfg, shards, Path(sys.argv[2]), labels, log=None)
"""


def _start_train_child(args, run):
    """A child process that trains into run; returns once it has reached train."""
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-c", _TRAIN_CHILD, str(args), str(run)], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        assert child.stdout.readline() == "training\n"
    except BaseException:
        child.kill()
        child.wait()
        raise
    return child


@pytest.fixture(scope="module")
def uninterrupted_child(tmp_path_factory):
    """A corpus, the pickled run arguments, and the directory and train time of one uninterrupted child run."""
    root = tmp_path_factory.mktemp("child")
    shards, labels = tiny_corpus(root)
    args = root / "args.pickle"
    args.write_bytes(pickle.dumps((_aug_cfg(6), shards, labels)))
    child = _start_train_child(args, root / "run")
    start = time.perf_counter()
    assert child.wait(timeout=120) == 0
    return shards, labels, args, root / "run", time.perf_counter() - start


@given(fraction=st.floats(0.0, 1.0))
@settings(max_examples=8, deadline=None)
def test_a_sigkill_anywhere_then_a_resume_ends_as_the_uninterrupted_run(tmp_path_factory, uninterrupted_child, fraction):
    shards, labels, args, whole, seconds = uninterrupted_child
    run = tmp_path_factory.mktemp("killed") / "run"
    child = _start_train_child(args, run)
    try:
        time.sleep(fraction * seconds)
    finally:
        child.kill()  # SIGKILL: no handler, no cleanup, the flock dropped by the kernel
        child.wait(timeout=120)
    saved = run / training.CHECKPOINT_NAME
    # resumed from the last save, or started afresh in the same directory if there is none
    train(_aug_cfg(6), shards, run, labels, resume_from=load_checkpoint(saved) if saved.exists() else None, log=None)
    for name in _RUN_FILES:
        assert (run / name).read_bytes() == (whole / name).read_bytes(), name
