#!/usr/bin/env python3
"""Desk-scale rerun of the preprocessing-scenario comparison.

Generates a synthetic corpus, trains one network per scenario and prints a
train/test accuracy table.  With default sizes this takes a few minutes per
scenario on a laptop CPU; it is a scaled-down rehearsal of the full-corpus
protocol, not a reproduction of the published numbers (see
scripts/run_full_corpus.py for that).  Each model is trained into
<workdir>/model-<scenario>, and train refuses a fresh run into a directory
that holds a checkpoint, so a second run needs a new --workdir.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fruitnet.augmentation import Scenario
from fruitnet.evaluation import evaluate
from fruitnet.network import preset_configuration
from fruitnet.records import LabelMap, build_shards
from fruitnet.synthetic import generate_corpus
from fruitnet.training import TrainConfig, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--train-per-class", type=int, default=25)
    parser.add_argument("--test-per-class", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=120)
    parser.add_argument("--batch-size", type=int, default=20)
    parser.add_argument("--config-nr", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    work = Path(args.workdir)
    parts = generate_corpus(
        work / "corpus",
        num_classes=args.classes,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        seed=args.seed,
    )
    train_set, test_set = build_shards(
        parts["train_dir"], parts["test_dir"], parts["labels_file"], work / "records"
    )
    labels = LabelMap.from_file(parts["labels_file"])
    print(f"corpus: {train_set.count} train / {test_set.count} test images, {args.classes} classes")

    results = []
    for scenario in Scenario:
        net = preset_configuration(
            args.config_nr, num_classes=labels.num_classes, input_channels=scenario.input_channels
        )
        cfg = TrainConfig(
            net=net,
            scenario=scenario,
            iterations=args.iterations,
            batch_size=args.batch_size,
            display_interval=max(1, args.iterations // 6),
            seed=args.seed,
        )
        out = work / f"model-{scenario.value}"
        started = time.time()
        ckpt = train(cfg, train_set, out, labels, log=None)
        train_report = evaluate(ckpt, train_set, scenario, batch_size=args.batch_size, log=None)
        test_report = evaluate(ckpt, test_set, scenario, batch_size=args.batch_size, log=None)
        took = time.time() - started
        print(
            f"{scenario.value:>14}: train {train_report.accuracy:6.2%}  "
            f"test {test_report.accuracy:6.2%}  ({took:.0f}s)"
        )
        results.append((scenario.value, train_report.accuracy, test_report.accuracy))

    print("\nscenario, train_accuracy, test_accuracy")
    for row in results:
        print(f"{row[0]}, {row[1]:.4f}, {row[2]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
