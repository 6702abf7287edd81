"""Command-line surface binding the pipeline end to end.

Subcommands:

    extract-background   flood-fill background removal + white fill + resize
    build-records        serialize image trees into shard files
    train                train a network on the train shards
    test                 evaluate a checkpoint on the test (or train) shards
    predict              classify a single PPM image
    gen-synthetic        emit a labeled synthetic corpus for desk-scale runs

A key=value config file pointed to by the FRUITS_CONFIG environment variable
supplies defaults; flags override it.  Exit code 0 means the operation
completed.  A failed command removes its partial outputs, never older files,
and an output path that names a file is refused before anything is written.
train is the exception: whatever stops it, its directory keeps the last
checkpoint and the metrics rows up to it, so the run can continue with --resume.
train records its --scenario in the checkpoint; test and predict read it there.
"""

import argparse
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

from .augmentation import Scenario
from .config import ProjectConfig
from .errors import ConfigurationError, FruitnetError
from .evaluation import evaluate, predict_image
from .imaging import FloodFillParams, flood_fill_background, read_ppm, remove_background, resize_bilinear, write_ppm
from .network import preset_configuration
from .records import IMAGE_SIDE, LabelMap, _replaced_on_success, build_shards, find_shards
from .synthetic import generate_corpus
from .training import (
    CHECKPOINT_NAME,
    METRICS_NAME,
    TrainConfig,
    load_checkpoint,
    train,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fruitnet", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-background", help="remove backgrounds and rescale a directory of PPM images")
    p.add_argument("--input_directory", required=True)
    p.add_argument("--output_directory", required=True)
    p.add_argument("--threshold", type=float, default=0.1, help="flood-fill color-distance threshold, tuned per run")

    p = sub.add_parser("build-records", help="serialize image trees into shard files")
    p.add_argument("--train_directory", default=None)
    p.add_argument("--validation_directory", default=None, help="directory with the test images")
    p.add_argument("--output_directory", default=None)
    p.add_argument("--labels_file", default=None)
    p.add_argument("--num_threads", type=int, default=1)

    p = sub.add_parser("train", help="train a network")
    p.add_argument("--scenario", default="hsv_gray_aug")
    p.add_argument("--config-nr", type=int, default=1, choices=range(1, 11), help="benchmark configuration 1..10")
    p.add_argument("--iterations", type=int, default=TrainConfig.iterations)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", default=None, help="output directory for checkpoint and metrics")
    p.add_argument("--records-dir", default=None)
    p.add_argument("--labels-file", default=None)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--keep-prob", type=float, default=TrainConfig.keep_prob)
    p.add_argument("--display-interval", type=int, default=TrainConfig.display_interval)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = sub.add_parser("test", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--use-train", action="store_true", help="evaluate the train split instead of the test split")
    p.add_argument("--records-dir", default=None)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--json-out", default=None, help="where to write the JSON report")

    p = sub.add_parser("predict", help="classify one PPM image")
    p.add_argument("--image_path", required=True)
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("gen-synthetic", help="emit a labeled synthetic corpus")
    p.add_argument("--output_directory", required=True)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--train-per-class", type=int, default=20)
    p.add_argument("--test-per-class", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=int, default=IMAGE_SIDE)
    p.add_argument("--style", choices=("clean", "raw"), default="clean")
    return parser


def _required(value, flag: str, config_value, key: str):
    if value is not None:
        return Path(value)
    if config_value is not None:
        return Path(config_value)
    raise ConfigurationError(f"{flag} not given and {key} not set in the config file")


def _existing_dir(path: Path, what: str) -> Path:
    if not path.is_dir():
        raise ConfigurationError(f"{what} does not exist: {path}")
    return path


def _output_dir(path: Path, flag: str) -> Path:
    for blocker in (path, *path.parents):
        if blocker.exists() and not blocker.is_dir():
            raise ConfigurationError(f"{flag} {path}: {blocker} is not a directory")
    return path


def _existing_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigurationError(f"{what} does not exist: {path}")
    return path


def _checkpoint_path(args, project: ProjectConfig) -> Path:
    """--checkpoint, else the checkpoint in the config file's models_dir."""
    default = project.models_dir / CHECKPOINT_NAME if project.models_dir else None
    return _existing_file(_required(args.checkpoint, "--checkpoint", default, "models_dir"), "checkpoint")


@contextmanager
def _removed_on_failure(out_dir: Path):
    """Run the body; if it raises, delete what it added under out_dir, and the
    first directory on the way to out_dir that did not exist, with all below it.
    Nothing that existed before is removed."""
    created = next((d for d in reversed((out_dir, *out_dir.parents)) if not d.exists()), None)
    before = None if created else set(out_dir.rglob("*"))
    try:
        yield
    except BaseException:
        added = [created] if created else set(out_dir.rglob("*")) - before
        for path in added:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        raise


def _cmd_extract_background(args, project: ProjectConfig) -> int:
    in_dir = _existing_dir(Path(args.input_directory), "--input_directory")
    out_dir = _output_dir(Path(args.output_directory), "--output_directory")
    if out_dir.resolve().is_relative_to(in_dir.resolve()):  # would overwrite, or on a rerun re-read, its own input
        raise ConfigurationError(f"--output_directory {out_dir} is inside --input_directory {in_dir}")
    params = FloodFillParams(threshold=args.threshold)
    count = 0
    with _removed_on_failure(out_dir):
        for src in sorted(in_dir.rglob("*.ppm")):
            img = read_ppm(src)
            mask = flood_fill_background(img, params)
            cleaned = resize_bilinear(remove_background(img, mask), IMAGE_SIDE, IMAGE_SIDE)
            dst = out_dir / src.relative_to(in_dir)
            dst.parent.mkdir(parents=True, exist_ok=True)
            write_ppm(cleaned, dst)
            count += 1
    print(f"extracted backgrounds from {count} images into {out_dir}")
    return 0


def _cmd_build_records(args, project: ProjectConfig) -> int:
    train_dir = _existing_dir(
        _required(args.train_directory, "--train_directory", project.training_images_dir, "training_images_dir"),
        "train image directory",
    )
    test_dir = _existing_dir(
        _required(args.validation_directory, "--validation_directory", project.test_images_dir, "test_images_dir"),
        "test image directory",
    )
    labels_file = _existing_file(
        _required(args.labels_file, "--labels_file", project.labels_file, "labels_file"), "labels file"
    )
    out_dir = _output_dir(
        _required(args.output_directory, "--output_directory", project.data_dir, "data_dir"), "--output_directory"
    )
    train_set, test_set = build_shards(train_dir, test_dir, labels_file, out_dir, num_threads=args.num_threads)
    print(f"wrote {train_set.count} train records to {train_set.path.name}")
    print(f"wrote {test_set.count} test records to {test_set.path.name}")
    print(f"records directory: {out_dir}")
    return 0


def _cmd_train(args, project: ProjectConfig) -> int:
    records_dir = _existing_dir(
        _required(args.records_dir, "--records-dir", project.data_dir, "data_dir"), "records directory"
    )
    labels_file = _existing_file(
        _required(args.labels_file, "--labels-file", project.labels_file, "labels_file"), "labels file"
    )
    resume_path = _existing_file(Path(args.resume), "--resume checkpoint") if args.resume else None
    out_dir = _output_dir(_required(args.out, "--out", project.models_dir, "models_dir"), "--out")
    scenario = Scenario.from_tag(args.scenario)
    labels = LabelMap.from_file(labels_file)
    net = preset_configuration(args.config_nr, num_classes=labels.num_classes, input_channels=scenario.input_channels)
    cfg = TrainConfig(
        net=net,
        scenario=scenario,
        iterations=args.iterations,
        batch_size=args.batch_size,
        keep_prob=args.keep_prob,
        display_interval=args.display_interval,
        seed=args.seed,
    )
    shards = find_shards(records_dir, "train")
    resume_from = load_checkpoint(resume_path) if resume_path else None

    train(cfg, shards, out_dir, labels, resume_from=resume_from)
    print(f"checkpoint: {out_dir / CHECKPOINT_NAME}")
    print(f"metrics csv: {out_dir / METRICS_NAME}")
    return 0


def _cmd_test(args, project: ProjectConfig) -> int:
    ckpt_path = _checkpoint_path(args, project)
    records_dir = _existing_dir(
        _required(args.records_dir, "--records-dir", project.data_dir, "data_dir"), "records directory"
    )
    split = "train" if args.use_train else "test"
    shards = find_shards(records_dir, split)
    json_path = Path(args.json_out) if args.json_out else ckpt_path.parent / f"report-{split}.json"
    _output_dir(json_path.parent, "--json-out")
    if json_path.is_dir():
        raise ConfigurationError(f"--json-out {json_path} is a directory")
    for what, read in (("checkpoint", ckpt_path), (f"{split} shard", shards.path)):
        if json_path.is_file() and json_path.samefile(read):
            raise ConfigurationError(f"--json-out {json_path} is the {what} the evaluation reads")

    ckpt = load_checkpoint(ckpt_path)
    print(f"scenario: {ckpt.scenario.value}")
    report = evaluate(ckpt, shards, ckpt.scenario, batch_size=args.batch_size)
    print(f"final accuracy on the {split} set: {report.accuracy:.4f}")
    print(report.format_text())

    json_path.parent.mkdir(parents=True, exist_ok=True)
    with _replaced_on_success(json_path) as tmp:
        tmp.write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"json report: {json_path}")
    return 0


def _cmd_predict(args, project: ProjectConfig) -> int:
    ckpt_path = _checkpoint_path(args, project)
    image_path = _existing_file(Path(args.image_path), "--image_path")
    ckpt = load_checkpoint(ckpt_path)
    prediction = predict_image(ckpt, read_ppm(image_path), ckpt.scenario)
    print(
        f"Label index: {prediction.class_id} ({prediction.class_name}), "
        f"probability: {prediction.probability:.4f}"
    )
    return 0


def _cmd_gen_synthetic(args, project: ProjectConfig) -> int:
    out_dir = _output_dir(Path(args.output_directory), "--output_directory")
    with _removed_on_failure(out_dir):
        parts = generate_corpus(
            out_dir,
            num_classes=args.classes,
            train_per_class=args.train_per_class,
            test_per_class=args.test_per_class,
            seed=args.seed,
            image_size=args.image_size,
            style=args.style,
        )
    print(f"labels file: {parts['labels_file']}")
    print(f"train images: {parts['train_dir']}")
    print(f"test images: {parts['test_dir']}")
    return 0


_COMMANDS = {
    "extract-background": _cmd_extract_background,
    "build-records": _cmd_build_records,
    "train": _cmd_train,
    "test": _cmd_test,
    "predict": _cmd_predict,
    "gen-synthetic": _cmd_gen_synthetic,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, ProjectConfig.from_environment())
    except FruitnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
