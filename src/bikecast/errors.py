"""Exception hierarchy shared across the package. Every error pickles whole,
so one raised in a worker process reads as one raised in its parent."""

from __future__ import annotations


class BikecastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BikecastError):
    """Invalid configuration value (bad interval, bad split span, ...)."""


class DataError(BikecastError):
    """Input data violates a documented precondition."""


class FormatError(DataError):
    """A required column or structural element is missing from an input file."""


class RowError(DataError):
    """A single data row could not be parsed.

    Carries the 1-based physical line number, the message without its
    location (``reason``) and, when the reader was given a path, the file.
    """

    def __init__(self, line_number: int, message: str, path: str | None = None):
        where = f"{path}: line {line_number}" if path else f"line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number
        self.reason = message
        self.path = path

    def __reduce__(self):
        return type(self), (self.line_number, self.reason, self.path)


class DomainError(BikecastError):
    """Argument outside its mathematical domain (inventory level, rate sign)."""


class TrainingError(BikecastError):
    """Model optimization failed (divergence, NaN loss)."""


class StageError(BikecastError):
    """A pipeline stage failed; carries the stage name and the bare ``reason``."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.reason = message

    def __reduce__(self):
        return type(self), (self.stage, self.reason)
