"""Exception types shared across the engine."""

from __future__ import annotations

from typing import NamedTuple


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class NoMatchingOption(SimulationError):
    """A choice answer matched zero options, or more than one."""


class NotANumber(SimulationError):
    """A numeric answer contained no parseable number token."""


class InvalidModelOutput(SimulationError):
    """The model kept producing unusable output after all retries."""


class BackendUnavailable(SimulationError):
    """A remote model backend could not be reached."""


class EpisodeAbort(SimulationError):
    """An episode stopped early; the message names the failing part."""


class ConfigError(SimulationError):
    """A runtime operation referenced something the scenario never declared,
    or a file the scenario names is missing or malformed."""


class ConfigIssue(NamedTuple):
    """One validation problem, locating the offending config field."""

    kind: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.path}: {self.message}"


class ConfigValidationError(SimulationError):
    """Raised by config loading with the full list of problems found."""

    def __init__(self, issues: list[ConfigIssue]):
        self.issues = issues
        lines = "\n".join(f"  - {issue}" for issue in issues)
        super().__init__(f"invalid scenario config:\n{lines}")

