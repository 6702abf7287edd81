"""The public surface: the names the package exports and the fields of
TrainConfig.  A name added here is a decision, not a side effect of an import
or a new knob."""

import dataclasses
import inspect
import types

import fruitnet

PUBLIC_NAMES = {
    # preprocessing scenarios
    "Scenario", "preprocess",
    # errors
    "ConfigurationError", "FormatError", "FruitnetError", "InvalidInputError", "ShapeError",
    "TrainingDivergedError",
    # evaluation and prediction
    "EvalReport", "Prediction", "evaluate", "predict_image",
    # images: background extraction, rescaling, PPM I/O
    "FloodFillParams", "RasterImage", "flood_fill_background", "read_ppm",
    "remove_background", "resize_bilinear", "write_ppm",
    # the network
    "NetworkConfig", "init_params", "preset_configuration",
    # shards and batches
    "ExampleRecord", "LabelMap", "ShardSet", "build_shards", "find_shards",
    "read_examples", "sequential_batches", "shuffle_batches",
    # synthetic corpus
    "generate_corpus",
    # training and checkpoints
    "AdamState", "Checkpoint", "TrainConfig", "adam_step", "batch_accuracy", "load_checkpoint",
    "save_checkpoint", "train", "update_learning_rate",
}


def test_exported_names_are_exactly_the_public_api():
    exported = {
        name
        for name, value in vars(fruitnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


# the run's settings; the published protocol's fixed values (augmentation
# ranges, learning-rate bounds, shuffle buffer size) are module constants, not fields
TRAIN_CONFIG_FIELDS = [
    "net", "scenario", "iterations", "batch_size", "keep_prob", "display_interval", "seed",
]


def test_train_config_fields_are_exactly_the_run_settings():
    assert [f.name for f in dataclasses.fields(fruitnet.TrainConfig)] == TRAIN_CONFIG_FIELDS


def test_preprocessing_takes_no_mode():
    # one image is only ever preprocessed for testing; augmentation is a training batch's draws
    assert list(inspect.signature(fruitnet.preprocess).parameters) == ["img", "scenario"]
    assert list(inspect.signature(fruitnet.augmentation.augment_draws).parameters) == ["scenario", "rng", "n"]
