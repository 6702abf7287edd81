import json

import numpy as np
import pytest

from fruitnet import evaluation
from fruitnet.augmentation import Scenario, preprocess
from fruitnet.errors import ConfigurationError, InvalidInputError
from fruitnet.evaluation import REFERENCE_TEST_ACCURACY, EvalReport, evaluate, predict_image
from fruitnet.imaging import RasterImage, resize_bilinear
from fruitnet.layers import softmax
from fruitnet.network import NetworkConfig, forward, param_shapes
from fruitnet.records import ExampleRecord, LabelMap, ShardSet, write_shard
from fruitnet.seeding import make_rng
from fruitnet.training import AdamState, Checkpoint

NET = NetworkConfig(num_classes=3, input_channels=3, conv_maps=(2, 2, 2, 2), fc_sizes=(8, 6))
LABELS = LabelMap.from_names(["apple", "lemon"])


def checkpoint_with(params) -> Checkpoint:
    return Checkpoint(
        config=NET,
        params=params,
        adam=AdamState.zeros_like(params),
        iteration=0,
        learning_rate=1e-3,
        labels=LABELS,
    )


def zero_checkpoint() -> Checkpoint:
    return checkpoint_with({k: np.zeros(s, dtype=np.float32) for k, s in param_shapes(NET).items()})


def random_checkpoint(seed=0) -> Checkpoint:
    # spread weights keep argmax margins far above float32 noise, so batched
    # and per-example forwards always agree
    rng = make_rng(seed)
    return checkpoint_with(
        {k: rng.uniform(-0.5, 0.5, size=s).astype(np.float32) for k, s in param_shapes(NET).items()}
    )


def shard_records(tmp_path, records, name="test-00000-of-00001.rec") -> ShardSet:
    path = tmp_path / name
    write_shard(path, records)
    return ShardSet(path=path, split="test", count=len(records))


def random_records(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ExampleRecord(label=1 + i % 2, pixels=rng.integers(0, 256, (100, 100, 3), dtype=np.uint8))
        for i in range(n)
    ]


class TestEvaluate:
    def test_zero_weights_predict_background_class_everywhere(self, tmp_path):
        shards = shard_records(tmp_path, random_records(5))
        report = evaluate(zero_checkpoint(), shards, Scenario.RGB, batch_size=2, log=None)
        # all logits equal, argmax ties to class 0, no test record is class 0
        assert report.total_images == 5
        assert report.correct == 0
        assert report.accuracy == 0.0
        assert sum(report.mislabeled.values()) == 5

    def test_single_image_classified_correctly(self, tmp_path):
        params = {k: np.zeros(s, dtype=np.float32) for k, s in param_shapes(NET).items()}
        params["out_b"][2] = 1.0  # bias the head toward class 2
        records = [ExampleRecord(label=2, pixels=np.full((100, 100, 3), 90, dtype=np.uint8))]
        report = evaluate(checkpoint_with(params), shard_records(tmp_path, records), Scenario.RGB, log=None)
        assert report.total_images == 1
        assert report.correct == 1
        assert report.accuracy == 1.0
        assert report.mislabeled == {}

    def test_matches_per_example_loop_oracle(self, tmp_path):
        records = random_records(50, seed=3)
        shards = shard_records(tmp_path, records)
        ckpt = random_checkpoint(7)
        report = evaluate(ckpt, shards, Scenario.RGB, batch_size=7, log=None)

        correct = 0
        mislabeled = {}
        for rec in records:
            img = RasterImage(rec.pixels.astype(np.float64) / 255.0)
            x = preprocess(img, Scenario.RGB)[None].astype(np.float32)
            logits, _ = forward(ckpt.config, ckpt.params, x, 1.0)
            pick = int(np.argmax(logits[0]))
            if pick == rec.label:
                correct += 1
            else:
                name = LABELS.name_of(rec.label)
                mislabeled[name] = mislabeled.get(name, 0) + 1
        assert report.correct == correct
        assert report.mislabeled == mislabeled
        assert report.accuracy == correct / 50
        assert sum(report.mislabeled.values()) == report.total_images - report.correct

    def test_order_independent_totals(self, tmp_path):
        records = random_records(21, seed=4)
        ckpt = random_checkpoint(8)
        fwd = shard_records(tmp_path, records, name="test-0.rec")
        rev = shard_records(tmp_path, list(reversed(records)), name="test-1.rec")
        a = evaluate(ckpt, fwd, Scenario.RGB, batch_size=4, log=None)
        b = evaluate(ckpt, rev, Scenario.RGB, batch_size=4, log=None)
        assert (a.total_images, a.correct, a.accuracy) == (b.total_images, b.correct, b.accuracy)
        assert a.mislabeled == b.mislabeled

    def test_depth_mismatch_rejected_before_compute(self, tmp_path):
        shards = shard_records(tmp_path, random_records(1))
        with pytest.raises(ConfigurationError):
            evaluate(zero_checkpoint(), shards, Scenario.HSV_GRAY, log=None)

    def test_progress_lines_emitted(self, tmp_path):
        shards = shard_records(tmp_path, random_records(4))
        lines = []
        evaluate(zero_checkpoint(), shards, Scenario.RGB, batch_size=2, log=lines.append)
        assert len(lines) == 2
        assert "accuracy" in lines[0]


class TestEvalReport:
    def test_json_fields_exactly(self):
        report = EvalReport(total_images=4, correct=3, accuracy=0.75, mislabeled={"apple": 1})
        payload = json.loads(report.to_json())
        assert set(payload) == {"total", "correct", "accuracy", "mislabeled"}
        assert payload["total"] == 4
        assert payload["mislabeled"] == {"apple": 1}

    def test_reference_constants_cover_all_scenarios(self):
        assert set(REFERENCE_TEST_ACCURACY) == set(Scenario)
        assert REFERENCE_TEST_ACCURACY[Scenario.HSV_GRAY_AUG] == 0.9704


class TestPredictImage:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        img = RasterImage(rng.random((100, 100, 3)))
        ckpt = random_checkpoint(9)
        prediction = predict_image(ckpt, img, Scenario.RGB)
        x = preprocess(resize_bilinear(img, 100, 100), Scenario.RGB)[None].astype(np.float32)
        logits, _ = forward(ckpt.config, ckpt.params, x, 1.0)
        probs = softmax(logits)[0]
        assert abs(probs.sum() - 1.0) < 1e-6
        assert prediction.probability == pytest.approx(float(probs.max()), abs=1e-9)

    def test_zero_weight_model_gives_uniform_probability(self):
        img = RasterImage(np.random.default_rng(6).random((100, 100, 3)))
        prediction = predict_image(zero_checkpoint(), img, Scenario.RGB)
        assert prediction.class_id == 0
        assert prediction.class_name == "nothing"
        assert prediction.probability == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_odd_sizes_are_resized(self):
        img = RasterImage(np.random.default_rng(7).random((37, 160, 3)))
        prediction = predict_image(random_checkpoint(10), img, Scenario.RGB)
        assert prediction.class_id in (0, 1, 2)

    def test_invariant_to_noop_resize(self):
        img = RasterImage(np.random.default_rng(8).random((100, 100, 3)))
        ckpt = random_checkpoint(11)
        a = predict_image(ckpt, img, Scenario.RGB)
        b = predict_image(ckpt, resize_bilinear(img, 100, 100), Scenario.RGB)
        assert (a.class_id, a.probability) == (b.class_id, b.probability)

    def test_resizes_only_images_not_already_full_size(self, monkeypatch):
        # at 100x100 the resize is an identity and is skipped: the prediction
        # equals the explicitly resized pipeline's, bit for bit
        resized = []

        def counting_resize(image, height, width):
            resized.append((image.height, image.width))
            return resize_bilinear(image, height, width)

        monkeypatch.setattr(evaluation, "resize_bilinear", counting_resize)
        ckpt = random_checkpoint(13)
        img = RasterImage(np.random.default_rng(14).random((100, 100, 3)))
        prediction = predict_image(ckpt, img, Scenario.RGB)
        assert resized == []
        x = preprocess(resize_bilinear(img, 100, 100), Scenario.RGB)[None].astype(np.float32)
        probs = softmax(forward(ckpt.config, ckpt.params, x, 1.0)[0])[0]
        assert prediction.class_id == int(np.argmax(probs))
        assert prediction.probability == float(probs.max())

        predict_image(ckpt, RasterImage(np.random.default_rng(15).random((37, 53, 3))), Scenario.RGB)
        assert resized == [(37, 53)]

    def test_resizes_to_the_checkpoint_input_size(self):
        net = NetworkConfig(**{**NET.__dict__, "input_height": 12, "input_width": 12})
        rng = make_rng(16)
        params = {k: rng.uniform(-0.5, 0.5, size=s).astype(np.float32) for k, s in param_shapes(net).items()}
        ckpt = Checkpoint(net, params, AdamState.zeros_like(params), 0, 1e-3, LABELS)
        for img in (RasterImage(rng.random((12, 12, 3))), RasterImage(rng.random((30, 20, 3)))):
            prediction = predict_image(ckpt, img, Scenario.RGB)
            x = preprocess(resize_bilinear(img, 12, 12), Scenario.RGB)[None].astype(np.float32)
            probs = softmax(forward(net, params, x, 1.0)[0])[0]
            assert (prediction.class_id, prediction.probability) == (int(np.argmax(probs)), float(probs.max()))

    def test_agrees_with_evaluate_on_same_record(self, tmp_path):
        rec = random_records(1, seed=9)[0]
        ckpt = random_checkpoint(12)
        img = RasterImage(rec.pixels.astype(np.float64) / 255.0)
        prediction = predict_image(ckpt, img, Scenario.RGB)
        report = evaluate(ckpt, shard_records(tmp_path, [rec]), Scenario.RGB, log=None)
        assert (report.correct == 1) == (prediction.class_id == rec.label)

    def test_non_rgb_rejected(self):
        # the image type refuses one channel, so predict_image never sees it
        with pytest.raises(InvalidInputError):
            predict_image(zero_checkpoint(), RasterImage(np.zeros((10, 10, 1))), Scenario.GRAY)


def test_scenario_channel_checks_keep_their_messages(tmp_path):
    shards = shard_records(tmp_path, random_records(1))
    message = "scenario hsv_gray feeds 4 channels, checkpoint network expects 3"
    with pytest.raises(ConfigurationError, match=message):
        evaluate(zero_checkpoint(), shards, Scenario.HSV_GRAY, log=None)
    img = RasterImage(np.zeros((10, 10, 3)))
    with pytest.raises(ConfigurationError, match=message):
        predict_image(zero_checkpoint(), img, Scenario.HSV_GRAY)


def test_label_beyond_the_checkpoint_classes_is_a_configuration_error(tmp_path):
    records = random_records(3)
    records[1] = ExampleRecord(label=5, pixels=records[1].pixels)
    shards = shard_records(tmp_path, records)
    with pytest.raises(ConfigurationError, match=r"label 5 .*3-class"):
        evaluate(random_checkpoint(), shards, Scenario.RGB, batch_size=2, log=None)


def test_a_network_not_taking_the_shard_images_is_refused(tmp_path):
    net = NetworkConfig(**{**NET.__dict__, "input_height": 12, "input_width": 12})
    params = {k: np.zeros(s, dtype=np.float32) for k, s in param_shapes(net).items()}
    ckpt = Checkpoint(net, params, AdamState.zeros_like(params), 0, 1e-3, LABELS)
    lines = []
    with pytest.raises(ConfigurationError, match="shards hold 100x100 images, checkpoint network expects 12x12"):
        evaluate(ckpt, shard_records(tmp_path, random_records(2)), Scenario.RGB, log=lines.append)
    assert lines == []


def test_a_label_past_the_checkpoint_is_refused_before_the_first_forward_pass(tmp_path, monkeypatch):
    # a build sorts records by class, so the label the network lacks comes last
    records = random_records(24)
    records = [ExampleRecord(label=1 + i // 8, pixels=rec.pixels) for i, rec in enumerate(records)]
    forwards, lines, real_forward = [], [], evaluation.forward

    def counted_forward(*args, **kwargs):
        forwards.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(evaluation, "forward", counted_forward)
    with pytest.raises(ConfigurationError, match="shard label 3 is out of range for a 3-class checkpoint"):
        evaluate(random_checkpoint(), shard_records(tmp_path, records), Scenario.RGB, batch_size=4, log=lines.append)
    assert forwards == [] and lines == []


def test_an_empty_split_is_refused(tmp_path):
    lines = []
    with pytest.raises(ConfigurationError, match="shard set 'test' is empty"):
        evaluate(random_checkpoint(), shard_records(tmp_path, []), Scenario.RGB, log=lines.append)
    assert lines == []
