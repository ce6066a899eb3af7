"""Shared exception types for file parsing and data validation."""

from pathlib import Path


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


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a data file; a byte that does not decode is a FormatError at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"byte {data[exc.start]:#04x} is not valid UTF-8"
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(message, source=str(path), line=line) from None


class ValidationError(LictermError):
    """Parsed data violates a domain invariant (names the offender)."""


class DuplicateVersionError(FormatError):
    """A snapshot contains the same (package, version) twice."""
