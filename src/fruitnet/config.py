"""Project-level configuration: a key=value file instead of editing source.

The CLI looks for a config file at the path named by the FRUITS_CONFIG
environment variable; command-line flags always override file values.

Recognized keys (all optional):

    root_dir             base directory; relative paths below resolve to it
    data_dir             where shard files live
    models_dir           where checkpoints and metrics go
    labels_file          path to the labels file
    training_images_dir  image tree for the train split
    test_images_dir      image tree for the test split
"""

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigurationError, read_utf8

ENV_VAR = "FRUITS_CONFIG"

_PATH_KEYS = ("data_dir", "models_dir", "labels_file", "training_images_dir", "test_images_dir")


@dataclass(frozen=True)
class ProjectConfig:
    root_dir: Path | None = None
    data_dir: Path | None = None
    models_dir: Path | None = None
    labels_file: Path | None = None
    training_images_dir: Path | None = None
    test_images_dir: Path | None = None

    @classmethod
    def load(cls, path) -> "ProjectConfig":
        """Parse a key=value file ('#' starts a comment)."""
        raw = {}
        for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in {f.name for f in fields(cls)}:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value

        root = Path(raw["root_dir"]).expanduser() if "root_dir" in raw else None
        kwargs = {"root_dir": root}
        for key in _PATH_KEYS:
            if key in raw:
                p = Path(raw[key]).expanduser()
                kwargs[key] = p if (p.is_absolute() or root is None) else root / p
        return cls(**kwargs)

    @classmethod
    def from_environment(cls) -> "ProjectConfig":
        path = os.environ.get(ENV_VAR)
        if not path:
            return cls()
        if not Path(path).is_file():
            raise ConfigurationError(f"{ENV_VAR} points to a missing file: {path}")
        return cls.load(path)
