"""Semantic versions and npm-style dependency ranges.

A range is ``||`` disjunctions of space-separated conjunctions of
tokens, after node-semver's range grammar. Every token, each end of a
spaced hyphen range included, desugars by one rule: a floor version
(the given parts, then zeros) and the part bumped to form the upper
bound. ``^`` bumps the first non-zero given part, ``~`` (also written
``~>``) the minor part (the major if only it is given), and a partial
version like ``1.2`` or ``1.x`` spans its floor up to the bump of its
last given part; ``>`` ``>=`` ``<`` ``<=`` keep one end of it. An
operator may be followed by spaces, so ``>= 1.2`` is ``>=1.2``. A
hyphen range ``A - B`` is ``>=A <=B``, so ``1.2 - 2.3`` is
``>=1.2.0 <2.4.0``. Anything else (git URLs, dist-tags such as
``latest``) is a parse error for the caller to record.

Prerelease versions satisfy a range only when some comparator in the
range carries a prerelease with the same (major, minor, patch) triple,
mirroring registry resolution behavior. node-semver instead ends a
bumped upper bound at the lowest prerelease (``^1.2.3`` is
``>=1.2.3 <2.0.0-0``); no release lies between ``2.0.0-0`` and
``2.0.0``, so both admit the same releases. They differ on
prereleases: here a prerelease comparator in one ``||`` alternative
admits its triple's prereleases through another alternative too, and
within one conjunction ``1.x >=2.0.0-rc.1`` admits ``2.0.0-rc.2``,
which node-semver's ``<2.0.0-0`` excludes.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from functools import lru_cache, total_ordering
from operator import attrgetter
from typing import NamedTuple

from ._frozen import Frozen
from .errors import FormatError


class RangeSyntaxError(ValueError):
    """A version range string is outside the supported grammar."""


# Dot-separated prerelease or build identifiers, none of them empty.
_IDENTS = r"[0-9A-Za-z-]+(?:\.[0-9A-Za-z-]+)*"

# re.ASCII: numeric parts are ASCII digits, not any Unicode decimal digit.
_VERSION_RE = re.compile(
    rf"^(0|[1-9]\d*)\.(0|[1-9]\d*)\.(0|[1-9]\d*)(?:-({_IDENTS}))?(?:\+({_IDENTS}))?$",
    re.ASCII,
)


@total_ordering
class Semver(Frozen):
    """A semantic version; equality, hashing and order follow ``key``, its precedence."""

    __slots__ = ("major", "minor", "patch", "prerelease", "build", "key")
    _fields = __slots__[:-1]  # the constructor's parameters; key is derived from them

    def __init__(
        self, major: int, minor: int, patch: int, prerelease: tuple[str, ...] = (), build: str = ""
    ):
        object.__setattr__(self, "major", major)
        object.__setattr__(self, "minor", minor)
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "prerelease", prerelease)
        object.__setattr__(self, "build", build)
        # Precedence key, computed once. A release sorts after any of its
        # prereleases; numeric prerelease identifiers sort below alphanumeric
        # ones. Build metadata is ignored for precedence.
        pre_key = tuple(
            [(0, int(part), "") if part.isdigit() else (1, 0, part) for part in prerelease]
        )
        object.__setattr__(self, "key", (major, minor, patch, not prerelease, pre_key))

    @classmethod
    def parse(cls, text: str) -> "Semver":
        m = _VERSION_RE.match(text.strip())
        if m is None:
            raise FormatError(f"not a semantic version: {text!r}")
        return cls(
            int(m.group(1)),
            int(m.group(2)),
            int(m.group(3)),
            tuple(m.group(4).split(".")) if m.group(4) else (),
            m.group(5) or "",
        )

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.major, self.minor, self.patch)

    def __lt__(self, other: "Semver") -> bool:
        return self.key < other.key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Semver):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __str__(self) -> str:
        text = f"{self.major}.{self.minor}.{self.patch}"
        if self.prerelease:
            text += "-" + ".".join(self.prerelease)
        if self.build:
            text += "+" + self.build
        return text


class Comparator(NamedTuple):
    op: str  # one of < <= > >= =
    version: Semver


class VersionRange(Frozen):
    """Disjunction of comparator conjunctions, plus the raw text."""

    __slots__ = ("raw", "alternatives", "bounds")
    _fields = __slots__[:-1]  # the constructor's parameters; bounds is derived from them

    def __init__(self, raw: str, alternatives: tuple[tuple[Comparator, ...], ...]):
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "alternatives", alternatives)
        # Per conjunction, its tightest lower and upper bound, derived once
        # from ``alternatives`` (see ``_bounds``); not part of equality.
        object.__setattr__(self, "bounds", tuple(map(_bounds, alternatives)))

    def satisfies(self, version: Semver) -> bool:
        if version.prerelease and not self._prerelease_allowed(version):
            return False
        return any(_window(bound, [version]) == (0, 1) for bound in self.bounds)

    def _prerelease_allowed(self, version: Semver) -> bool:
        return any(
            c.version.prerelease and c.version.triple == version.triple
            for conjunction in self.alternatives
            for c in conjunction
        )


_PARTIAL_RE = re.compile(
    r"^[v=]?(\d+|[xX*])(?:\.(\d+|[xX*]))?(?:\.(\d+|[xX*]))?"
    rf"(?:-({_IDENTS}))?(?:\+({_IDENTS}))?$",
    re.ASCII,
)


def _parse_partial(text: str) -> tuple[Semver, int]:
    """The floor of a possibly partial version, and how many parts it gives.

    The parts given are the numeric ones before the first wildcard or
    missing part, so ``1.x.3`` is the floor ``1.0.0`` with one part given.
    """
    m = _PARTIAL_RE.match(text)
    if m is None:
        raise RangeSyntaxError(f"not a version or partial version: {text!r}")
    parts = [0, 0, 0]
    given = 0
    for group in m.group(1, 2, 3):
        if group is None or group in ("x", "X", "*"):
            break
        parts[given] = int(group)
        given += 1
    prerelease = tuple(m.group(4).split(".")) if m.group(4) else ()
    if prerelease and given < 3:
        raise RangeSyntaxError(f"prerelease requires a full version: {text!r}")
    return Semver(*parts, prerelease), given


def _bump(low: Semver, i: int) -> Semver:
    """The lowest version above every version sharing ``low``'s first ``i + 1`` parts."""
    if i == 0:
        return Semver(low.major + 1, 0, 0)
    if i == 1:
        return Semver(low.major, low.minor + 1, 0)
    return Semver(low.major, low.minor, low.patch + 1)


# Range tokens repeat across a registry's dependency entries. The result
# is an immutable tuple; a token that raises is not cached.
@lru_cache(maxsize=4096)
def _span(op: str, text: str) -> tuple[Comparator, ...]:
    """The comparators of one range token, operator ``op`` (maybe empty) on ``text``."""
    low, given = _parse_partial(text)
    if given == 0:
        # Comparing against a bare wildcard collapses to all-or-nothing;
        # treat ">=*" as any and ">*", "<*", "=*" as unsupported.
        if op in ("", "^", "~", ">=", "<="):
            return ()
        raise RangeSyntaxError(f"cannot apply {op!r} to a wildcard")
    if op == "^":
        i = 0  # the first non-zero part given, else the last part given
        while i < given - 1 and low.triple[i] == 0:
            i += 1
        return (Comparator(">=", low), Comparator("<", _bump(low, i)))
    if op == "~":
        return (Comparator(">=", low), Comparator("<", _bump(low, min(1, given - 1))))
    if given == 3:
        return (Comparator(op or "=", low),)
    # A partial version under an operator stands for its wildcard span [low, high).
    high = _bump(low, given - 1)
    if op == ">":
        return (Comparator(">=", high),)
    if op == ">=":
        return (Comparator(">=", low),)
    if op == "<":
        return (Comparator("<", low),)
    if op == "<=":
        return (Comparator("<", high),)
    return (Comparator(">=", low), Comparator("<", high))  # "=1.2" == "1.2" == "1.2.x"


# One range token: an operator (maybe none), optional spaces, a version.
_TOKEN_RE = re.compile(r"\s*(>=|<=|>|<|=|\^|~>?|)\s*(\S+)")


def _parse_conjunction(text: str) -> tuple[Comparator, ...]:
    tokens = text.split()
    # Spaced hyphen range: "1.2.3 - 2.3.4", inclusive on both ends.
    if "-" in tokens:
        if tokens.index("-") != 1 or len(tokens) != 3:
            raise RangeSyntaxError(f"malformed hyphen range: {text!r}")
        return _span(">=", tokens[0]) + _span("<=", tokens[2])
    comparators: list[Comparator] = []
    for op, version in _TOKEN_RE.findall(text):
        comparators.extend(_span("~" if op == "~>" else op, version))
    return tuple(comparators)


def parse_range(text: str) -> VersionRange:
    """Parse a range string; raises RangeSyntaxError outside the grammar."""
    raw = text.strip()
    if raw == "":
        return VersionRange(raw, ((),))
    parts = [alt.strip() for alt in raw.split("||")]
    if any(part == "" for part in parts):
        raise RangeSyntaxError(f"empty alternative in range: {text!r}")
    return VersionRange(raw, tuple(_parse_conjunction(part) for part in parts))


_KEY = attrgetter("key")
_BELOW_ALL = ()  # sorts before every precedence key
_ABOVE_ALL = (math.inf,)  # sorts after every precedence key


def _bounds(conjunction: tuple[Comparator, ...]) -> tuple:
    """The conjunction's tightest bounds as ``(find_lo, low, find_hi, high)``.

    Over a list sorted by key, ``find_lo(list, low)`` is the index of the
    first version the lower bounds admit and ``find_hi(list, high)`` the
    index after the last one the upper bounds admit. A bisect index grows
    with its (key, strict) pair, so the tightest of several bounds on one
    side is the one with the greatest (lower) or least (upper) pair. A
    side with no comparator is bounded by a key beyond every version.
    """
    low, above = _BELOW_ALL, False  # above: ``>`` excludes ``low`` itself
    high, upto = _ABOVE_ALL, False  # upto: ``<=`` or ``=`` includes ``high``
    for c in conjunction:
        key = c.version.key
        if c.op in (">=", "=", ">") and (key, c.op == ">") > (low, above):
            low, above = key, c.op == ">"
        if c.op in ("<=", "=", "<") and (key, c.op != "<") < (high, upto):
            high, upto = key, c.op != "<"
    return (
        bisect_right if above else bisect_left,
        low,
        bisect_right if upto else bisect_left,
        high,
    )


def _window(bound: tuple, ordered: list[Semver]) -> tuple[int, int]:
    """Index span of ``ordered`` (sorted by key) within one conjunction's ``_bounds``."""
    find_lo, low, find_hi, high = bound
    return find_lo(ordered, low, key=_KEY), find_hi(ordered, high, key=_KEY)


def resolve_range(rng: VersionRange, available: list[Semver]) -> Semver | None:
    """Highest available version satisfying the range, or None.

    Prereleases are skipped unless the range itself names a prerelease
    of the same (major, minor, patch). ``available`` must be in
    precedence order, as ``sorted(versions, key=attrgetter("key"))``
    gives it; among precedence-equal versions the first is returned, so
    a stable sort returns the first in the caller's original order.

    Work per call is two bisections per conjunction and a walk
    down from the top of each window. Every version in a window meets
    its conjunction's comparators, so the walk stops at the first
    release and asks ``rng.satisfies`` (the prerelease rule) only about
    the prereleases above it, not about every available version.
    """
    best: Semver | None = None
    for bound in rng.bounds:
        lo, hi = _window(bound, available)
        for i in range(hi - 1, lo - 1, -1):
            version = available[i]
            if best is not None and version.key <= best.key:
                break
            if not version.prerelease or rng.satisfies(version):
                # Precedence-equal versions satisfy alike; take the first.
                best = available[bisect_left(available, version.key, lo, i, key=_KEY)]
                break
    return best
