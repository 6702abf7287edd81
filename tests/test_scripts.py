"""Smoke tests: the experiment scripts run end to end as their users call them."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from fruitnet.synthetic import generate_corpus
from fruitnet.training import load_checkpoint

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )


def test_compare_scenarios_runs_end_to_end_at_tiny_size(tmp_path):
    done = run_script(
        "compare_scenarios.py", "--workdir", str(tmp_path),
        "--classes", "2", "--train-per-class", "2", "--test-per-class", "2",
        "--iterations", "1", "--batch-size", "2",
    )
    assert done.returncode == 0, done.stderr
    assert "corpus: 4 train / 4 test images, 2 classes" in done.stdout
    table = done.stdout.split("scenario, train_accuracy, test_accuracy\n")[1].splitlines()
    assert [row.split(",")[0] for row in table] == ["gray", "rgb", "hsv", "hsv_gray", "hsv_gray_aug"]
    assert sorted(p.name for p in (tmp_path / "records").iterdir()) == [
        "test-00000-of-00001.rec",
        "train-00000-of-00001.rec",
    ]


def test_run_full_corpus_prints_its_usage():
    done = run_script("run_full_corpus.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--corpus-dir" in done.stdout


def test_run_full_corpus_resumes_from_its_checkpoint(tmp_path):
    generate_corpus(tmp_path / "corpus", num_classes=2, train_per_class=3, test_per_class=2, seed=4)
    common = ("--corpus-dir", str(tmp_path / "corpus"), "--workdir", str(tmp_path / "work"),
              "--batch-size", "2", "--num-threads", "1")
    first = run_script("run_full_corpus.py", *common, "--iterations", "2")
    assert first.returncode == 0, first.stderr
    assert "resuming" not in first.stdout
    again = run_script("run_full_corpus.py", *common, "--iterations", "4", "--resume")
    assert again.returncode == 0, again.stderr
    assert "reusing shards: 6 train / 4 test" in again.stdout
    assert "resuming from iteration 2" in again.stdout
    assert load_checkpoint(tmp_path / "work" / "model" / "checkpoint.frck").iteration == 4
    (tmp_path / "work" / "records" / "test-00000-of-00001.rec").unlink()
    rebuilt = run_script("run_full_corpus.py", *common, "--iterations", "4", "--resume")
    assert rebuilt.returncode == 0, rebuilt.stderr
    assert "wrote shards: 6 train / 4 test" in rebuilt.stdout


def test_run_full_corpus_keeps_its_old_report_when_a_report_write_fails(tmp_path, monkeypatch):
    generate_corpus(tmp_path / "corpus", num_classes=2, train_per_class=3, test_per_class=2, seed=4)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ on import
    spec = importlib.util.spec_from_file_location("run_full_corpus", SCRIPTS / "run_full_corpus.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["run_full_corpus.py", "--corpus-dir", str(tmp_path / "corpus"), "--workdir", str(tmp_path / "work"),
            "--batch-size", "2", "--num-threads", "1", "--iterations", "2"]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0
    report = tmp_path / "work" / "report.json"
    before = report.read_bytes()

    def half_then_fail(path, text, encoding=None):
        with open(path, "w", encoding=encoding) as fh:
            fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "argv", [*argv, "--resume"])
    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError):
        script.main()
    monkeypatch.undo()
    assert report.read_bytes() == before
    assert not list((tmp_path / "work").glob("*.tmp"))
