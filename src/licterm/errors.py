"""Shared exception types for file parsing and data validation."""


class LictermError(Exception):
    """Base class for all licterm errors."""


class FormatError(LictermError):
    """A data file is syntactically malformed.

    Carries a locator (file path and/or line number) so the offending
    record can be found and fixed by hand.
    """

    def __init__(self, message: str, *, source: str = "", line: int | None = None):
        self.message = message
        self.source = source
        self.line = line
        locator = source or "<input>"
        if line is not None:
            locator = f"{locator}:{line}"
        super().__init__(f"{locator}: {message}")


class ValidationError(LictermError):
    """Parsed data violates a domain invariant (names the offender)."""


class DuplicateVersionError(FormatError):
    """A snapshot contains the same (package, version) twice."""
