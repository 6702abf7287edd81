"""Test-set accuracy with per-class mislabel accounting, plus single-image
prediction.

evaluate reads 8-bit records from shards and preprocesses them a batch at a
time; predict_image takes one RGB RasterImage of any size (the type has
already checked it), resizes it to the network's input and preprocesses it
alone.  Both use test mode, so neither draws random numbers."""

import json
from dataclasses import dataclass

import numpy as np

from ._parallel import batch_slices, slice_workers
from .augmentation import Scenario, preprocess, preprocess_batch
from .errors import ConfigurationError
from .imaging import RasterImage, resize_bilinear
from .layers import softmax
from .network import forward
from .records import IMAGE_SIDE, ShardSet, read_examples, sequential_batches
from .training import Checkpoint, check_channels

# published benchmark test accuracies on the full fruit corpus (46371 train /
# 15563 test images, 75000 iterations); documentation only, never asserted
REFERENCE_TEST_ACCURACY = {
    Scenario.GRAY: 0.9424,
    Scenario.RGB: 0.9347,
    Scenario.HSV: 0.9701,
    Scenario.HSV_GRAY: 0.9571,
    Scenario.HSV_GRAY_AUG: 0.9704,
}


@dataclass(frozen=True)
class EvalReport:
    total_images: int
    correct: int
    accuracy: float
    mislabeled: dict  # class name -> count of wrongly classified images

    def to_json(self) -> str:
        return json.dumps(
            {
                "total": self.total_images,
                "correct": self.correct,
                "accuracy": self.accuracy,
                "mislabeled": self.mislabeled,
            },
            indent=2,
            sort_keys=True,
        )

    def format_text(self) -> str:
        lines = [
            f"total images: {self.total_images}",
            f"correct:      {self.correct}",
            f"accuracy:     {self.accuracy:.4f}",
        ]
        if self.mislabeled:
            lines.append("mislabeled per class:")
            for name in sorted(self.mislabeled):
                lines.append(f"  {name}: {self.mislabeled[name]}")
        else:
            lines.append("mislabeled per class: none")
        return "\n".join(lines)


@dataclass(frozen=True)
class Prediction:
    class_id: int
    class_name: str
    probability: float


def evaluate(
    ckpt: Checkpoint,
    shards: ShardSet,
    scenario: Scenario,
    batch_size: int = 60,
    log=print,
) -> EvalReport:
    """Classify every record once (sequential batches, keep_prob 1, test-mode
    preprocessing) and tally accuracy plus per-class mislabel counts.  Each
    batch runs as two slices on the worker threads, with BLAS at one thread
    until evaluate returns."""
    check_channels(scenario, ckpt.config, "checkpoint network")
    total = 0
    correct = 0
    mislabeled: dict = {}

    def logits_of(images):
        x = preprocess_batch(images, scenario)
        return forward(ckpt.config, ckpt.params, x, keep_prob=1.0)[0]

    with slice_workers() as run:
        for images, labels in sequential_batches(read_examples(shards), batch_size):
            if labels.max() >= ckpt.config.num_classes:
                n = ckpt.config.num_classes
                raise ConfigurationError(f"shard label {labels.max()} is out of range for a {n}-class checkpoint")
            logits = np.concatenate(run(logits_of, [images[rows] for rows in batch_slices(len(images))]))
            picks = np.argmax(logits, axis=1)  # lowest index wins on ties
            for pick, truth in zip(picks, labels):
                total += 1
                if pick == truth:
                    correct += 1
                else:
                    name = ckpt.labels.name_of(int(truth))
                    mislabeled[name] = mislabeled.get(name, 0) + 1
            if log is not None:
                running = correct / total
                log(f"evaluated {total} images, running accuracy {running:.4f}")
    accuracy = correct / total if total else 0.0
    return EvalReport(total_images=total, correct=correct, accuracy=accuracy, mislabeled=mislabeled)


def predict_image(ckpt: Checkpoint, image: RasterImage, scenario: Scenario) -> Prediction:
    """Classify one RGB image of any size; returns the argmax class and its
    softmax probability."""
    check_channels(scenario, ckpt.config, "checkpoint network")
    resized = resize_bilinear(image, IMAGE_SIDE, IMAGE_SIDE)
    x = preprocess(resized, scenario, "test")[None].astype(np.float32)
    logits, _ = forward(ckpt.config, ckpt.params, x, keep_prob=1.0)
    probs = softmax(logits)[0]
    class_id = int(np.argmax(probs))
    return Prediction(
        class_id=class_id,
        class_name=ckpt.labels.name_of(class_id),
        probability=float(probs[class_id]),
    )
