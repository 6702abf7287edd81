"""Exception types shared across the pipeline, and a text-file reader that raises them."""

from pathlib import Path


class FruitnetError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(FruitnetError, ValueError):
    """An argument violates an operation's precondition."""


class ShapeError(FruitnetError, ValueError):
    """Array shapes disagree; the message names both shapes."""


class FormatError(FruitnetError, ValueError):
    """A binary file is malformed; carries the file path and byte offset."""

    def __init__(self, message: str, path=None, offset: int | None = None):
        detail = message
        if path is not None:
            detail += f" [file: {path}]"
        if offset is not None:
            detail += f" [byte offset: {offset}]"
        super().__init__(detail)
        self.path = path
        self.offset = offset


class ConfigurationError(FruitnetError, ValueError):
    """Components were wired together inconsistently."""


class TrainingDivergedError(FruitnetError, RuntimeError):
    """Training produced a non-finite loss; carries the iteration number."""

    def __init__(self, iteration: int, loss: float):
        super().__init__(f"non-finite loss {loss} at iteration {iteration}")
        self.iteration = iteration


def read_utf8(path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise FormatError
    with the path and the offset of the first bad byte."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"text is not UTF-8: {exc.reason}", path=path, offset=exc.start) from None
