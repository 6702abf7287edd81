import fcntl
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from fruitnet import cli, records, training
from fruitnet.cli import main
from fruitnet.config import ProjectConfig
from fruitnet.imaging import read_ppm
from fruitnet.records import find_shards, read_examples
from fruitnet.synthetic import generate_corpus
from fruitnet.training import load_checkpoint


@pytest.fixture()
def corpus(tmp_path):
    parts = generate_corpus(
        tmp_path / "corpus", num_classes=2, train_per_class=6, test_per_class=3, seed=1
    )
    return tmp_path, parts


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenSynthetic:
    def test_creates_labeled_tree(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen-synthetic", "--output_directory", str(tmp_path / "c"),
            "--classes", "3", "--train-per-class", "2", "--test-per-class", "1", "--seed", "4",
        )
        assert code == 0
        labels = (tmp_path / "c" / "labels.txt").read_text().split()
        assert labels == ["class_01", "class_02", "class_03"]
        assert len(list((tmp_path / "c" / "Training").rglob("*.ppm"))) == 6
        assert len(list((tmp_path / "c" / "Test").rglob("*.ppm"))) == 3
        img = read_ppm(next((tmp_path / "c" / "Training" / "class_01").glob("*.ppm")))
        assert (img.height, img.width) == (100, 100)

    def test_deterministic_under_seed(self, tmp_path, capsys):
        for name in ("a", "b"):
            run(capsys, "gen-synthetic", "--output_directory", str(tmp_path / name), "--seed", "9",
                "--classes", "2", "--train-per-class", "1", "--test-per-class", "1")
        fa = sorted((tmp_path / "a").rglob("*.ppm"))
        fb = sorted((tmp_path / "b").rglob("*.ppm"))
        assert [f.read_bytes() for f in fa] == [f.read_bytes() for f in fb]

    def test_a_negative_seed_is_an_error_line_not_a_traceback(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-synthetic", "--output_directory", str(tmp_path / "c"), "--seed", "-1")
        assert code == 1
        assert err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--train-per-class", "-1", "train_per_class must be >= 0, got -1"),
        ("--test-per-class", "-2", "test_per_class must be >= 0, got -2"),
        ("--image-size", "0", "image_size must be >= 1, got 0"),
    ])
    def test_a_negative_count_or_a_size_below_1_is_an_error_line(self, tmp_path, capsys, flag, value, message):
        code, _, err = run(capsys, "gen-synthetic", "--output_directory", str(tmp_path / "c"), flag, value)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "c").exists()


class TestExtractBackground:
    def test_raw_corpus_is_whitened_and_rescaled(self, tmp_path, capsys):
        generate_corpus(tmp_path / "raw", num_classes=1, train_per_class=2, test_per_class=1,
                        seed=2, image_size=120, style="raw")
        code, out, _ = run(
            capsys, "extract-background",
            "--input_directory", str(tmp_path / "raw" / "Training"),
            "--output_directory", str(tmp_path / "clean"),
            "--threshold", "0.1",
        )
        assert code == 0
        outputs = sorted((tmp_path / "clean").rglob("*.ppm"))
        assert len(outputs) == 2
        img = read_ppm(outputs[0])
        assert (img.height, img.width) == (100, 100)
        corners = img.pixels[[0, 0, -1, -1], [0, -1, 0, -1]]
        assert np.allclose(corners, 1.0)  # background became white
        assert img.pixels.min() < 0.9  # the blob survived

    @pytest.mark.parametrize("out_of", [
        lambda in_dir: in_dir,
        lambda in_dir: in_dir / "clean",
        lambda in_dir: in_dir / "class_01" / "clean",
        lambda in_dir: in_dir.parent.parent / "link",  # a symlink to the input directory
    ], ids=["itself", "inside", "deeper", "symlink"])
    def test_an_output_inside_the_input_is_refused_before_anything_is_written(self, tmp_path, capsys, out_of):
        generate_corpus(tmp_path / "raw", num_classes=1, train_per_class=2, test_per_class=1,
                        seed=2, image_size=120, style="raw")
        in_dir = tmp_path / "raw" / "Training"
        (tmp_path / "link").symlink_to(in_dir, target_is_directory=True)
        before = {p: p.read_bytes() if p.is_file() else None for p in in_dir.rglob("*")}
        out = out_of(in_dir)
        code, _, err = run(
            capsys, "extract-background", "--input_directory", str(in_dir), "--output_directory", str(out),
        )
        assert code == 1
        assert err == f"error: --output_directory {out} is inside --input_directory {in_dir}\n"
        assert {p: p.read_bytes() if p.is_file() else None for p in in_dir.rglob("*")} == before

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "extract-background",
            "--input_directory", str(tmp_path / "nope"),
            "--output_directory", str(tmp_path / "out"),
        )
        assert code == 1
        assert "error:" in err


class TestPipeline:
    def build(self, capsys, tmp_path, parts):
        return run(
            capsys, "build-records",
            "--train_directory", str(parts["train_dir"]),
            "--validation_directory", str(parts["test_dir"]),
            "--output_directory", str(tmp_path / "records"),
            "--labels_file", str(parts["labels_file"]),
        )

    def train(self, capsys, tmp_path, parts, iterations=2, out="model", resume=False):
        resume_argv = ["--resume", str(tmp_path / out / "checkpoint.frck")] if resume else []
        return run(
            capsys, "train",
            "--records-dir", str(tmp_path / "records"),
            "--labels-file", str(parts["labels_file"]),
            "--out", str(tmp_path / out),
            "--scenario", "hsv_gray_aug",
            "--config-nr", "1",
            "--iterations", str(iterations),
            "--batch-size", "4",
            "--display-interval", "2",
            "--seed", "3",
            *resume_argv,
        )

    def test_full_pipeline(self, corpus, capsys):
        tmp_path, parts = corpus

        code, out, _ = self.build(capsys, tmp_path, parts)
        assert code == 0
        assert "12 train records" in out
        shards = find_shards(tmp_path / "records", "train")
        assert shards.count == 12
        assert {r.label for r in read_examples(shards)} == {1, 2}

        code, out, _ = self.train(capsys, tmp_path, parts)
        assert code == 0
        assert "checkpoint:" in out and "metrics csv:" in out
        assert (tmp_path / "model" / "checkpoint.frck").exists()
        metrics = (tmp_path / "model" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "iteration,loss,batch_accuracy,learning_rate"

        code, out, _ = run(
            capsys, "test",
            "--checkpoint", str(tmp_path / "model" / "checkpoint.frck"),
            "--records-dir", str(tmp_path / "records"),
            "--scenario", "hsv_gray_aug",
            "--batch-size", "4",
        )
        assert code == 0
        assert "final accuracy on the test set" in out
        report_path = tmp_path / "model" / "report-test.json"
        assert f"json report: {report_path}" in out
        payload = json.loads(report_path.read_text())
        assert payload["total"] == 6
        assert set(payload) == {"total", "correct", "accuracy", "mislabeled"}

        image = next((parts["train_dir"] / "class_01").glob("*.ppm"))
        code, out, _ = run(
            capsys, "predict",
            "--image_path", str(image),
            "--checkpoint", str(tmp_path / "model" / "checkpoint.frck"),
            "--scenario", "hsv_gray_aug",
        )
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("Label index:")]
        assert len(line) == 1
        assert "probability:" in line[0]
        assert "class_" in line[0] or "nothing" in line[0]

    def test_use_train_split_and_expected_total(self, corpus, capsys, monkeypatch):
        tmp_path, parts = corpus
        self.build(capsys, tmp_path, parts)
        self.train(capsys, tmp_path, parts)
        config = tmp_path / "fruits.cfg"
        config.write_text(
            f"data_dir={tmp_path / 'records'}\n"
            f"models_dir={tmp_path / 'model'}\n"
            f"labels_file={parts['labels_file']}\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("FRUITS_CONFIG", str(config))
        code, out, _ = run(capsys, "test", "--use-train", "--scenario", "hsv_gray_aug")
        assert code == 0
        assert "final accuracy on the train set" in out

    def test_a_json_out_under_a_file_is_an_error_line_before_the_evaluation(self, corpus, capsys):
        tmp_path, parts = corpus
        self.build(capsys, tmp_path, parts)
        self.train(capsys, tmp_path, parts)
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory")
        code, out, err = run(
            capsys, "test", "--checkpoint", str(tmp_path / "model" / "checkpoint.frck"),
            "--records-dir", str(tmp_path / "records"), "--json-out", str(taken / "report.json"),
        )
        assert code == 1
        assert err == f"error: --json-out {taken}: {taken} is not a directory\n"
        assert "final accuracy" not in out
        assert taken.read_bytes() == b"not a directory"

    def test_a_json_out_that_is_a_directory_is_an_error_line_before_the_evaluation(self, corpus, capsys):
        tmp_path, parts = corpus
        self.build(capsys, tmp_path, parts)
        self.train(capsys, tmp_path, parts)
        taken = tmp_path / "taken"
        taken.mkdir()
        (taken / "kept.txt").write_bytes(b"kept")
        code, out, err = run(
            capsys, "test", "--checkpoint", str(tmp_path / "model" / "checkpoint.frck"),
            "--records-dir", str(tmp_path / "records"), "--json-out", str(taken),
        )
        assert code == 1
        assert err == f"error: --json-out {taken} is a directory\n"
        assert "final accuracy" not in out
        assert [p.name for p in taken.iterdir()] == ["kept.txt"]
        assert (taken / "kept.txt").read_bytes() == b"kept"

    @pytest.mark.parametrize("target", ["checkpoint", "shard", "symlink"])
    def test_a_json_out_that_is_the_checkpoint_or_the_shard_is_an_error_line_before_the_evaluation(
        self, corpus, capsys, target
    ):
        tmp_path, parts = corpus
        self.build(capsys, tmp_path, parts)
        self.train(capsys, tmp_path, parts)
        ckpt, shard = tmp_path / "model" / "checkpoint.frck", tmp_path / "records" / "test-00000-of-00001.rec"
        before = {path: path.read_bytes() for path in (ckpt, shard)}
        link = tmp_path / "link.json"
        link.symlink_to(ckpt)
        targets = {"checkpoint": (ckpt, "checkpoint"), "shard": (shard, "test shard"), "symlink": (link, "checkpoint")}
        taken, what = targets[target]
        code, out, err = run(
            capsys, "test", "--checkpoint", str(ckpt),
            "--records-dir", str(tmp_path / "records"), "--json-out", str(taken),
        )
        assert code == 1
        assert err == f"error: --json-out {taken} is the {what} the evaluation reads\n"
        assert "final accuracy" not in out
        assert {path: path.read_bytes() for path in before} == before

    def test_an_empty_split_is_an_error_line_and_writes_no_report(self, tmp_path, capsys):
        parts = generate_corpus(tmp_path / "corpus", num_classes=2, train_per_class=6, test_per_class=0, seed=1)
        assert self.build(capsys, tmp_path, parts)[0] == 0
        assert self.train(capsys, tmp_path, parts)[0] == 0
        code, out, err = run(
            capsys, "test", "--checkpoint", str(tmp_path / "model" / "checkpoint.frck"),
            "--records-dir", str(tmp_path / "records"), "--scenario", "hsv_gray_aug",
        )
        assert code == 1
        assert err == "error: shard set 'test' is empty\n"
        assert "final accuracy" not in out
        assert sorted(p.name for p in (tmp_path / "model").iterdir()) == ["checkpoint.frck", "metrics.csv"]

    def test_resume_flag(self, corpus, capsys):
        tmp_path, parts = corpus
        self.build(capsys, tmp_path, parts)
        self.train(capsys, tmp_path, parts, iterations=2)
        code, out, _ = run(
            capsys, "train",
            "--records-dir", str(tmp_path / "records"),
            "--labels-file", str(parts["labels_file"]),
            "--out", str(tmp_path / "model"),
            "--scenario", "hsv_gray_aug",
            "--config-nr", "1",
            "--iterations", "4",
            "--batch-size", "4",
            "--display-interval", "2",
            "--seed", "3",
            "--resume", str(tmp_path / "model" / "checkpoint.frck"),
        )
        assert code == 0

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_a_resume_path_that_is_no_file_is_an_error_line(self, corpus, capsys, kind):
        tmp_path, parts = corpus
        self.build(capsys, tmp_path, parts)
        resume = tmp_path / "elsewhere"
        if kind == "directory":
            resume.mkdir()
        code, _, err = run(
            capsys, "train",
            "--records-dir", str(tmp_path / "records"),
            "--labels-file", str(parts["labels_file"]),
            "--out", str(tmp_path / "model"),
            "--iterations", "2",
            "--batch-size", "4",
            "--resume", str(resume),
        )
        assert code == 1
        assert err == f"error: --resume checkpoint does not exist: {resume}\n"
        assert not (tmp_path / "model").exists()

    def test_a_failed_report_write_keeps_the_old_report(self, corpus, capsys, monkeypatch):
        tmp_path, parts = corpus
        self.build(capsys, tmp_path, parts)
        self.train(capsys, tmp_path, parts)
        argv = ("test", "--checkpoint", str(tmp_path / "model" / "checkpoint.frck"),
                "--records-dir", str(tmp_path / "records"), "--batch-size", "4")
        assert run(capsys, *argv)[0] == 0
        report = tmp_path / "model" / "report-test.json"
        before = report.read_bytes()

        def half_then_fail(path, text, encoding=None):
            with open(path, "w", encoding=encoding) as fh:
                fh.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(OSError):
            run(capsys, *argv)
        monkeypatch.undo()
        assert report.read_bytes() == before
        assert not list((tmp_path / "model").glob("*.tmp"))


class TestErrors:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["train", "--what"]) == 2

    def test_unknown_scenario_fails_with_context(self, corpus, capsys):
        tmp_path, parts = corpus
        code, _, err = run(
            capsys, "train",
            "--records-dir", str(tmp_path), "--labels-file", str(parts["labels_file"]),
            "--out", str(tmp_path / "m"), "--scenario", "sepia",
        )
        assert code == 1
        assert "sepia" in err

    def test_missing_config_value_reported(self, capsys, monkeypatch):
        monkeypatch.delenv("FRUITS_CONFIG", raising=False)
        code, _, err = run(capsys, "test")
        assert code == 1
        assert "error:" in err


class TestTextInputs:
    def build(self, capsys, tmp_path, parts, labels: bytes):
        labels_file = tmp_path / "labels.txt"
        labels_file.write_bytes(labels)
        return run(
            capsys, "build-records",
            "--train_directory", str(parts["train_dir"]),
            "--validation_directory", str(parts["test_dir"]),
            "--output_directory", str(tmp_path / "records"),
            "--labels_file", str(labels_file),
        )

    def test_a_labels_file_that_is_not_utf8_fails_at_its_offset(self, corpus, capsys):
        tmp_path, parts = corpus
        code, _, err = self.build(capsys, tmp_path, parts, b"class_01\nclass_\xff2\n")
        assert code == 1
        assert err.startswith("error: text is not UTF-8")
        assert str(tmp_path / "labels.txt") in err and "[byte offset: 15]" in err

    @pytest.mark.parametrize(
        "labels, named",
        [(b"class_01\nclass_02\nclass_01\n", "class_01"), (b"nothing\nclass_01\nclass_02\n", "'nothing'")],
    )
    def test_a_labels_file_naming_a_class_twice_or_the_background_fails(self, corpus, capsys, labels, named):
        tmp_path, parts = corpus
        code, _, err = self.build(capsys, tmp_path, parts, labels)
        assert code == 1
        assert err.startswith("error: labels file") and named in err
        assert not (tmp_path / "records").exists()

    def test_a_config_file_that_is_not_utf8_fails_at_its_offset(self, tmp_path, capsys, monkeypatch):
        cfg_file = tmp_path / "p.cfg"
        cfg_file.write_bytes(b"data_dir=caf\xe9\n")
        monkeypatch.setenv("FRUITS_CONFIG", str(cfg_file))
        code, _, err = run(capsys, "test")
        assert code == 1
        assert err.startswith("error: text is not UTF-8")
        assert str(cfg_file) in err and "[byte offset: 12]" in err


class TestProjectConfig:
    def test_parse_and_relative_resolution(self, tmp_path):
        cfg_file = tmp_path / "p.cfg"
        cfg_file.write_text(
            f"root_dir={tmp_path}\n"
            "data_dir=data  # relative to root\n",
            encoding="utf-8",
        )
        cfg = ProjectConfig.load(cfg_file)
        assert cfg.data_dir == tmp_path / "data"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "p.cfg"
        cfg_file.write_text("wat=1\n", encoding="utf-8")
        from fruitnet.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProjectConfig.load(cfg_file)


class TestFailureCleanup:
    def test_gen_synthetic_failure_keeps_a_directory_that_existed(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        (out / "mine.txt").write_text("keep me")
        code, _, err = run(capsys, "gen-synthetic", "--output_directory", str(out), "--classes", "0")
        assert code == 1 and "error:" in err
        assert [p.name for p in out.iterdir()] == ["mine.txt"]
        assert (out / "mine.txt").read_text() == "keep me"

    @pytest.mark.parametrize(
        "existed, out_name", [(True, "clean"), (False, "clean"), (False, "a/b/c")], ids=["True", "False", "nested"]
    )
    def test_extract_background_failure_removes_only_what_it_wrote(self, tmp_path, capsys, existed, out_name):
        generate_corpus(tmp_path / "raw", num_classes=1, train_per_class=2, test_per_class=1,
                        seed=2, image_size=120, style="raw")
        in_dir = tmp_path / "raw" / "Training"
        (in_dir / "class_01" / "zzz.ppm").write_bytes(b"P6 broken")  # decoded last, after two good images
        out = tmp_path / out_name
        if existed:
            (out / "class_01").mkdir(parents=True)
            (out / "class_01" / "mine.txt").write_text("keep me")
        code, _, err = run(
            capsys, "extract-background",
            "--input_directory", str(in_dir), "--output_directory", str(out),
        )
        assert code == 1 and "error:" in err
        if existed:
            left = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
            assert left == ["class_01", "class_01/mine.txt"]
        else:
            assert [p.name for p in tmp_path.iterdir()] == ["raw"]  # nor the directories made on the way to out


def test_ctrl_c_during_train_keeps_the_last_checkpoint_for_resume(corpus, capsys, monkeypatch):
    tmp_path, parts = corpus
    pipeline = TestPipeline()
    pipeline.build(capsys, tmp_path, parts)
    real_save, saves = training.save_checkpoint, []

    def save_then_interrupt(ckpt, path):
        saves.append(ckpt.iteration)
        if len(saves) == 3:  # Ctrl-C in the middle of the third save
            with records._replaced_on_success(path) as tmp:
                tmp.write_bytes(b"partial")
                raise KeyboardInterrupt
        real_save(ckpt, path)

    monkeypatch.setattr(training, "save_checkpoint", save_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        pipeline.train(capsys, tmp_path, parts, iterations=8)
    monkeypatch.undo()
    model = tmp_path / "model"
    assert sorted(p.name for p in model.iterdir()) == ["checkpoint.frck", "metrics.csv"]
    assert load_checkpoint(model / "checkpoint.frck").iteration == 4
    assert len((model / "metrics.csv").read_text().splitlines()) == 4  # header and three rows

    code, _, _ = pipeline.train(capsys, tmp_path, parts, iterations=6, resume=True)
    assert code == 0
    assert load_checkpoint(model / "checkpoint.frck").iteration == 6
    # the row of iteration 6 that outran the interrupted save is written once
    assert [ln.split(",")[0] for ln in (model / "metrics.csv").read_text().splitlines()[1:]] == ["2", "4", "6"]


@pytest.mark.parametrize("torn", [False, True], ids=["after_the_row", "inside_the_row"])
def test_ctrl_c_around_a_metrics_row_leaves_each_row_once_after_resume(corpus, capsys, monkeypatch, torn):
    """A Ctrl-C after the row of iteration 10 is appended (before its save),
    or after the first byte of that row: the resumed run's metrics.csv equals
    an uninterrupted run's, byte for byte.  The torn row reads as iteration
    1, which is not past the checkpoint: only its missing line break marks it."""
    tmp_path, parts = corpus
    pipeline = TestPipeline()
    pipeline.build(capsys, tmp_path, parts)
    assert pipeline.train(capsys, tmp_path, parts, iterations=10, out="whole")[0] == 0
    real_append, rows = training._append_metrics, []

    def append_then_interrupt(path, new_rows):
        rows.extend(new_rows)
        if len(rows) < 5:
            return real_append(path, new_rows)
        if torn:
            with open(path, "a", newline="") as fh:
                fh.write(str(new_rows[0][0])[:1])
        else:
            real_append(path, new_rows)
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "_append_metrics", append_then_interrupt)
    model = tmp_path / "model"
    with pytest.raises(KeyboardInterrupt):
        pipeline.train(capsys, tmp_path, parts, iterations=12)
    monkeypatch.undo()
    assert load_checkpoint(model / "checkpoint.frck").iteration == 8
    assert (model / "metrics.csv").read_text().splitlines()[-1].startswith("1")

    assert pipeline.train(capsys, tmp_path, parts, iterations=10, resume=True)[0] == 0
    assert (model / "metrics.csv").read_bytes() == (tmp_path / "whole" / "metrics.csv").read_bytes()


def test_a_fresh_train_that_fails_keeps_its_last_checkpoint_and_resumes_as_the_uninterrupted_run(
    corpus, capsys, monkeypatch
):
    """An error right after the second save, and a non-finite loss at
    iteration 7: each run directory keeps the last checkpoint it saved and
    exactly the metrics rows up to it, and a resume ends with the bytes of an
    uninterrupted run."""
    tmp_path, parts = corpus
    pipeline = TestPipeline()
    pipeline.build(capsys, tmp_path, parts)
    assert pipeline.train(capsys, tmp_path, parts, iterations=8, out="whole")[0] == 0
    real_save, saves = training.save_checkpoint, []

    def save_then_fail(ckpt, path):
        real_save(ckpt, path)
        saves.append(ckpt.iteration)
        if len(saves) == 2:
            raise RuntimeError("disk gone")

    monkeypatch.setattr(training, "save_checkpoint", save_then_fail)
    with pytest.raises(RuntimeError, match="disk gone"):
        pipeline.train(capsys, tmp_path, parts, iterations=8, out="failed")
    monkeypatch.undo()
    real_loss, losses = training.cross_entropy_loss, []

    def nan_at_iteration_7(logits, labels):
        loss, grad = real_loss(logits, labels)
        losses.append(loss)
        return (math.nan if len(losses) == 10 else loss), grad  # steps 1-7, re-scores at 2, 4 and 6

    monkeypatch.setattr(training, "cross_entropy_loss", nan_at_iteration_7)
    code, _, err = pipeline.train(capsys, tmp_path, parts, iterations=8, out="diverged")
    monkeypatch.undo()
    assert code == 1
    assert err == "error: non-finite loss nan at iteration 7\n"

    whole = tmp_path / "whole"
    rows = (whole / "metrics.csv").read_text().splitlines()
    for out, kept in (("failed", 4), ("diverged", 6)):
        model = tmp_path / out
        assert sorted(p.name for p in model.iterdir()) == ["checkpoint.frck", "metrics.csv"]
        assert load_checkpoint(model / "checkpoint.frck").iteration == kept
        assert (model / "metrics.csv").read_text().splitlines() == rows[: 1 + kept // 2]  # header, rows 2..kept
        assert pipeline.train(capsys, tmp_path, parts, iterations=8, out=out, resume=True)[0] == 0
        for name in ("checkpoint.frck", "metrics.csv"):
            assert (model / name).read_bytes() == (whole / name).read_bytes()


def test_a_refused_train_deletes_nothing_another_run_wrote_after_it_started(corpus, capsys, monkeypatch):
    tmp_path, parts = corpus
    pipeline = TestPipeline()
    pipeline.build(capsys, tmp_path, parts)
    model, real_train, fds = tmp_path / "model", cli.train, []
    header = b"iteration,loss,batch_accuracy,learning_rate\n"

    def another_run_takes_the_directory_first(*args, **kwargs):
        model.mkdir()
        fds.append(os.open(model, os.O_RDONLY))
        fcntl.flock(fds[0], fcntl.LOCK_EX | fcntl.LOCK_NB)
        (model / "metrics.csv").write_bytes(header)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", another_run_takes_the_directory_first)
    try:
        code, _, err = pipeline.train(capsys, tmp_path, parts)
    finally:
        for fd in fds:
            os.close(fd)
    assert code == 1
    assert err == f"error: run directory {model} is in use by another training run\n"
    assert [p.name for p in model.iterdir()] == ["metrics.csv"]
    assert (model / "metrics.csv").read_bytes() == header


@pytest.mark.parametrize("blocked", ["itself", "a_parent"])
@pytest.mark.parametrize("command", ["extract-background", "build-records", "train", "gen-synthetic"])
def test_an_output_path_that_names_a_file_is_an_error_line(corpus, capsys, command, blocked):
    tmp_path, parts = corpus
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory")
    out = str(taken if blocked == "itself" else taken / "sub")
    if command == "train":
        TestPipeline().build(capsys, tmp_path, parts)
    argv = {
        "extract-background": ("--input_directory", str(parts["train_dir"]), "--output_directory", out),
        "build-records": (
            "--train_directory", str(parts["train_dir"]), "--validation_directory", str(parts["test_dir"]),
            "--labels_file", str(parts["labels_file"]), "--output_directory", out,
        ),
        "train": (
            "--records-dir", str(tmp_path / "records"), "--labels-file", str(parts["labels_file"]),
            "--out", out, "--iterations", "2", "--batch-size", "4",
        ),
        "gen-synthetic": ("--output_directory", out),
    }[command]
    code, _, err = run(capsys, command, *argv)
    flag = "--out" if command == "train" else "--output_directory"
    assert code == 1
    assert err == f"error: {flag} {out}: {taken} is not a directory\n"
    assert taken.read_bytes() == b"not a directory"


def test_a_fresh_train_into_an_older_run_exits_1_and_keeps_it(corpus, capsys):
    tmp_path, parts = corpus
    pipeline = TestPipeline()
    pipeline.build(capsys, tmp_path, parts)
    assert pipeline.train(capsys, tmp_path, parts)[0] == 0
    model = tmp_path / "model"
    files = {path.name: path.read_bytes() for path in model.iterdir()}
    code, _, err = pipeline.train(capsys, tmp_path, parts, iterations=4)
    assert code == 1
    assert err.startswith(f"error: run directory {model} holds a checkpoint")
    assert {path.name: path.read_bytes() for path in model.iterdir()} == files


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_a_train_into_a_run_directory_another_holds_exits_1_and_deletes_nothing(corpus, capsys, resume):
    tmp_path, parts = corpus
    pipeline = TestPipeline()
    pipeline.build(capsys, tmp_path, parts)
    assert pipeline.train(capsys, tmp_path, parts)[0] == 0
    model = tmp_path / "model"
    files = {path.name: path.read_bytes() for path in model.iterdir()}
    fd = os.open(model, os.O_RDONLY)  # the exclusive flock a running train holds on its directory
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code, _, err = pipeline.train(capsys, tmp_path, parts, iterations=4, resume=resume)
    finally:
        os.close(fd)
    assert code == 1
    assert err == f"error: run directory {model} is in use by another training run\n"
    assert {path.name: path.read_bytes() for path in model.iterdir()} == files
