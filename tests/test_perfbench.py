"""The benchmark's tracer against the program: perfbench/tracing.py wraps
fruitnet functions where training and evaluation look them up, and its namers
take the parameters those functions had when it was written (the fifth of
forward is named rng there).  A short train, evaluate and predict under the
tracer must record every wrapped training, evaluation and layer span, so a
call the namers cannot take, such as forward(..., masks=...), fails here."""

import types
from pathlib import Path

import numpy as np

import fruitnet
from fruitnet.augmentation import Scenario
from fruitnet.evaluation import evaluate, predict_image
from fruitnet.imaging import RasterImage
from fruitnet.network import NetworkConfig
from fruitnet.training import train

from test_training import tiny_cfg, tiny_corpus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# distinct map counts, so the tracer can tell the four convs and pools apart
NET = NetworkConfig(num_classes=3, input_channels=4, conv_maps=(2, 3, 4, 5), fc_sizes=(8, 6))

TRAIN_SPANS = {
    "records.read", "records.buffer_fill", "records.batch_wait", "augmentation.preprocess_batch_train",
    "network.forward", "training.rescore", "network.backward", "training.adam_step",
    "training.save_checkpoint",
}
EVAL_SPANS = {
    "records.sequential_batch", "augmentation.preprocess_batch_test", "network.forward.b1",
    "augmentation.preprocess", "evaluation.predict_resize",
}
LAYER_SPANS = {f"layers.{kind}{i}.{way}" for kind in ("conv", "pool") for i in (1, 2, 3, 4) for way in ("fwd", "bwd")}
LAYER_SPANS |= {"layers.relu.fwd", "layers.relu.bwd", "layers.fc.fwd", "layers.fc.bwd", "layers.dropout"}


def load_tracing():
    """perfbench/tracing.py as a module, executed from its source so that
    nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_a_traced_train_evaluate_and_predict_records_every_wrapped_span(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    cfg = tiny_cfg(2, net=NET, scenario=Scenario.HSV_GRAY_AUG, batch_size=5, display_interval=1)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.instrument(tracer, fruitnet, NET.conv_maps, NET.input_channels, NET.kernel_size)
    try:
        ckpt = train(cfg, shards, tmp_path / "run", labels, log=None)
        report = evaluate(ckpt, shards, Scenario.HSV_GRAY_AUG, batch_size=6, log=None)
        image = RasterImage(np.random.default_rng(3).random((37, 53, 3)))
        predict_image(ckpt, image, Scenario.HSV_GRAY_AUG)
    finally:
        tracer.restore()
    assert report.total_images == shards.count
    recorded = {span[1] for span in tracer.spans}
    assert TRAIN_SPANS <= recorded, TRAIN_SPANS - recorded
    assert EVAL_SPANS <= recorded, EVAL_SPANS - recorded
    assert LAYER_SPANS <= recorded, LAYER_SPANS - recorded
    assert set(tracer.peaks) == {f"layers.conv{i}.im2col_bytes" for i in (1, 2, 3, 4)}
