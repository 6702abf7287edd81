"""The README's CLI walkthrough runs as written, so a flag the docs still name must exist,
and its file formats section names the versions the code writes."""

import shlex
from pathlib import Path

from fruitnet import cli
from fruitnet.records import SHARD_VERSION
from fruitnet.training import CHECKPOINT_VERSION

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough(tmp_path) -> list:
    """The argv of each command in the `sh` block under "## CLI walkthrough",
    with continuations joined, comments dropped and /tmp/fruit moved to tmp_path."""
    section = README.read_text(encoding="utf-8").split("\n## CLI walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [
        [arg.replace("/tmp/fruit", str(tmp_path)) for arg in shlex.split(line)]
        for line in lines
        if line and not line.startswith("#")
    ]


def test_the_cli_walkthrough_runs_as_written(tmp_path, capsys):
    commands = walkthrough(tmp_path)
    assert [argv[0] for argv in commands] == ["fruitnet"] * len(commands)
    assert "train" in [argv[1] for argv in commands]
    for argv in commands:
        if argv[1] == "train":  # the documented 100 preset-1 iterations take about 100 s
            argv[argv.index("--iterations") + 1] = "2"
        code = cli.main(argv[1:])
        assert code == 0, f"{shlex.join(argv)} exited {code}: {capsys.readouterr().err}"


def test_the_file_formats_section_names_the_current_format_versions():
    section = README.read_text(encoding="utf-8").split("\n## File formats", 1)[1].split("\n## ", 1)[0]
    assert f"format v{CHECKPOINT_VERSION}" in section
    assert f"format v{SHARD_VERSION}" in section
