#!/usr/bin/env python3
"""Full-corpus training run: the published protocol end to end.

Expects a corpus directory with Training/ and Test/ subdirectories, one
folder per class, PPM images (convert JPEGs beforehand; decoding is out of
scope).  Trains for 75000 iterations with batches of 60 by default, then
reports the test accuracy.  Published reference accuracies for the five
scenarios on the full fruit corpus are recorded in
fruitnet.evaluation.REFERENCE_TEST_ACCURACY.  --resume continues the saved
checkpoint, and train refuses one trained on another --scenario.

This is a long CPU run; expect days rather than minutes at full scale.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fruitnet.augmentation import Scenario
from fruitnet.errors import ConfigurationError
from fruitnet.evaluation import REFERENCE_TEST_ACCURACY, evaluate
from fruitnet.network import preset_configuration
from fruitnet.records import LabelMap, _replaced_on_success, build_shards, find_shards
from fruitnet.training import CHECKPOINT_NAME, TrainConfig, load_checkpoint, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--corpus-dir", required=True, help="directory with Training/ and Test/")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--scenario", default="hsv_gray_aug")
    parser.add_argument("--config-nr", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=TrainConfig.iterations)
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    parser.add_argument("--seed", type=int, default=TrainConfig.seed)
    parser.add_argument("--num-threads", type=int, default=4)
    parser.add_argument(
        "--resume", action="store_true", help="continue from the saved checkpoint; without it, one there is refused"
    )
    args = parser.parse_args()

    corpus = Path(args.corpus_dir)
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    scenario = Scenario.from_tag(args.scenario)

    labels_file = work / "labels.txt"
    if not labels_file.exists():
        names = sorted(p.name for p in (corpus / "Training").iterdir() if p.is_dir())
        labels_file.write_text("".join(n + "\n" for n in names), encoding="utf-8")
    labels = LabelMap.from_file(labels_file)
    print(f"{labels.num_classes - 1} classes (+ background)")

    records_dir = work / "records"
    try:
        train_set, test_set = find_shards(records_dir, "train"), find_shards(records_dir, "test")
    except ConfigurationError:  # a split's shard is missing
        train_set, test_set = build_shards(
            corpus / "Training", corpus / "Test", labels_file, records_dir, num_threads=args.num_threads
        )
        print(f"wrote shards: {train_set.count} train / {test_set.count} test")
    else:
        print(f"reusing shards: {train_set.count} train / {test_set.count} test")

    net = preset_configuration(
        args.config_nr, num_classes=labels.num_classes, input_channels=scenario.input_channels
    )
    cfg = TrainConfig(
        net=net, scenario=scenario, iterations=args.iterations,
        batch_size=args.batch_size, seed=args.seed,
    )
    resume_from = None
    ckpt_path = work / "model" / CHECKPOINT_NAME
    if args.resume and ckpt_path.exists():
        resume_from = load_checkpoint(ckpt_path)
        print(f"resuming from iteration {resume_from.iteration}")

    ckpt = train(cfg, train_set, work / "model", labels, resume_from=resume_from)
    report = evaluate(ckpt, test_set, ckpt.scenario, batch_size=args.batch_size)
    print(report.format_text())
    reference = REFERENCE_TEST_ACCURACY[ckpt.scenario]
    print(f"reference test accuracy for {ckpt.scenario.value}: {reference:.2%}")
    with _replaced_on_success(work / "report.json") as tmp:
        tmp.write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"json report: {work / 'report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
