"""Shared exception types, and line splitting, skipping and reading for data files.

``skipped`` is the blank-or-comment rule of every line-oriented file but the
dataset, where a blank line ends a record and a comment line does not.
"""

import codecs
from pathlib import Path


class LictermError(Exception):
    """Base class for all licterm errors.

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


class FormatError(LictermError):
    """A data file is syntactically malformed."""


def split_lines(text: str) -> list[str]:
    """The lines of a data file, broken only at ``\\r\\n``, ``\\r`` and ``\\n``.

    Line ``i`` is element ``i - 1``; after a final line break comes an empty element.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def skipped(line: str) -> bool:
    """Whether a line is blank or, after leading whitespace, a ``#`` comment."""
    rest = line.lstrip()
    return not rest or rest[0] == "#"


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a data file less one leading byte-order mark; a byte
    that does not decode is a FormatError at its line. The mark is cut from
    the bytes, since ``utf-8-sig`` counts error offsets from after it."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"byte {data[exc.start]:#04x} is not valid UTF-8"
        line = len(split_lines(data[: exc.start].decode("utf-8")))
        raise FormatError(message, source=str(path), line=line) from None


class ValidationError(LictermError):
    """Parsed data violates a domain invariant (names the offender)."""


class DuplicateVersionError(FormatError):
    """A snapshot contains the same (package, version) twice."""


class ExpressionTooComplex(ValueError):
    """An expression pair has more than ``conflicts.MAX_CHOICE_PAIRS`` pairs of OR choices."""
