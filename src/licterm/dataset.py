"""Loading, checking, and persisting the curated license dataset.

The dataset file is plain UTF-8 text, one record per license, hand
editable and diff friendly. A record is a block of ``key: value``
lines separated from the next record by a blank line; the first block
may be a metadata record carrying ``dataset-version`` and
``provenance``. A profile record has ``spdx-id``, ``full-name``,
``copyleft``, one line for each of the 22 terms, and an optional
``notes`` line. Parsing is strict: unknown keys, duplicate keys, or
unknown attitude spellings are format errors. Each record's term lines
are read into packed bits, and :func:`licterm.model.packed_profile`
builds the profile, as the ``LicenseProfile`` constructor does; its
validation errors (the id, totality and kind rules) are raised at the
record's first line. Records are read one at a time, and loading stops
at the end of the first faulty record, or at once at a line without a
colon. ``Dataset.profiles`` maps each exact, case-sensitive id to its
profile.

The alias table maps irregular raw spellings to canonical ids, one
``raw form<TAB>spdx-id`` pair per line; keys are stored case-folded
with whitespace collapsed, and a key listed twice must name the same
id. The known-id list uses the same two-column layout
(``spdx-id<TAB>full name``) and feeds expression normalization. Both
skip blank and comment lines by ``errors.skipped``.
"""

from __future__ import annotations

from pathlib import Path

from ._frozen import Frozen
from .errors import FormatError, ValidationError, read_text, skipped, split_lines
from .expression import KnownLicenses, fold_key
from .model import (
    TERM_BITS, TERM_ORDER, Attitude, CopyleftClass, LicenseProfile, Term, packed_profile,
)

_META_KEYS = ("dataset-version", "provenance")
_HEADER_KEYS = ("spdx-id", "full-name", "copyleft", "notes")
_ATTITUDE_KEYS = frozenset(a.value for a in Attitude)
_COPYLEFT_BY_KEY = {c.value: c for c in CopyleftClass}


class Dataset(Frozen):
    """Immutable collection of validated license profiles."""

    __slots__ = _fields = ("profiles", "version", "provenance")

    def __init__(
        self, profiles: dict[str, LicenseProfile], version: str = "0", provenance: str = "unknown"
    ):
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "provenance", provenance)

    def __len__(self) -> int:
        return len(self.profiles)


class AliasTable(Frozen):
    """Mapping from normalized raw license spellings to canonical ids."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: dict[str, str] | None = None):
        object.__setattr__(self, "entries", {} if entries is None else entries)

    def resolve(self, raw: str) -> str | None:
        return self.entries.get(fold_key(raw))


# ---------------------------------------------------------------------------
# Dataset file parsing
# ---------------------------------------------------------------------------


def _profile(record: list[tuple[int, str, str]], source: str) -> LicenseProfile:
    """The profile of a record's ``(line, key, value)`` triples, or its first fault.

    The first unknown key, duplicate key or unknown attitude spelling
    raises at its own line. Then, at the record's first line, a missing
    field or unknown copyleft class, then the faults that
    :func:`licterm.model.packed_profile` names.
    """
    fields: dict[str, str] = {}
    packed = 0
    wrong_kind: list[tuple[Term, str]] = []
    term_bits = TERM_BITS.get  # CPython 3.11 binds a method of an imported name per call
    for lineno, key, value in record:
        if key in fields:
            raise FormatError(f"duplicate key {key!r}", source=source, line=lineno)
        fields[key] = value
        entry = term_bits(key)
        if entry is None:
            if key not in _HEADER_KEYS:
                raise FormatError(f"unknown key {key!r}", source=source, line=lineno)
            continue
        term, read, allowed = entry
        bits = allowed.get(value)
        if bits is None:
            if value not in _ATTITUDE_KEYS:
                message = f"unknown attitude {value!r} for {key}"
                raise FormatError(message, source=source, line=lineno)
            wrong_kind.append((term, value))
            bits = read
        packed |= bits
    line = record[0][0]
    for required in ("spdx-id", "copyleft"):
        if required not in fields:
            raise FormatError(f"record missing {required!r}", source=source, line=line)
    copyleft = _COPYLEFT_BY_KEY.get(fields["copyleft"])
    if copyleft is None:
        message = f"unknown copyleft class {fields['copyleft']!r}"
        raise FormatError(message, source=source, line=line)
    full_name, notes = fields.get("full-name", ""), fields.get("notes", "")
    try:
        return packed_profile(fields["spdx-id"], full_name, packed, wrong_kind, copyleft, notes)
    except ValidationError as exc:
        raise ValidationError(exc.message, source=source, line=line) from None


def loads_dataset(text: str, source: str = "<string>") -> Dataset:
    """Parse dataset text one record at a time; strict format, every profile checked.

    A line without a colon is a format error at once; a record's other
    lines are kept as ``(line, key, value)`` triples until it ends. A
    first record of metadata keys alone is the metadata record (a repeated
    key is a format error); any other goes to :func:`_profile`, and then
    an id used before is a validation error at the record's first line.
    """
    version = "0"
    provenance = "unknown"
    profiles: dict[str, LicenseProfile] = {}
    record: list[tuple[int, str, str]] = []
    leading = True  # no record has ended yet
    lines = split_lines(text)
    lines.append("")  # a blank line ends the last record
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and stripped[0] != "#":
            key, colon, value = stripped.partition(":")
            if not colon:
                message = f"expected 'key: value', got {stripped!r}"
                raise FormatError(message, source=source, line=lineno)
            record.append((lineno, key.strip(), value.strip()))
        elif not stripped and record:
            if leading and all(key in _META_KEYS for _, key, _ in record):
                meta: dict[str, str] = {}
                for at, key, value in record:
                    if key in meta:
                        raise FormatError(f"duplicate key {key!r}", source=source, line=at)
                    meta[key] = value
                version = meta.get("dataset-version", version)
                provenance = meta.get("provenance", provenance)
            else:
                profile = _profile(record, source)
                if profile.spdx_id in profiles:
                    message = f"duplicate spdx-id {profile.spdx_id!r}"
                    raise ValidationError(message, source=source, line=record[0][0])
                profiles[profile.spdx_id] = profile
            leading = False
            record = []
    return Dataset(profiles=profiles, version=version, provenance=provenance)


def load_dataset(path: str | Path) -> Dataset:
    return loads_dataset(read_text(path), source=str(path))


def dumps_profile(profile: LicenseProfile) -> str:
    """The profile's record: one ``key: value`` line per field, in canonical order."""
    lines = [
        f"spdx-id: {profile.spdx_id}",
        f"full-name: {profile.full_name}",
        f"copyleft: {profile.copyleft.value}",
    ]
    lines.extend(f"{term.value}: {profile.terms[term].value}" for term in TERM_ORDER)
    if profile.notes:
        lines.append(f"notes: {profile.notes}")
    return "\n".join(lines) + "\n"


def dumps_dataset(ds: Dataset) -> str:
    """Canonical text form: stable key order, canonical attitude spellings.

    ``loads_dataset(dumps_dataset(ds))`` round-trips, and dumping a
    dataset loaded from a canonically formatted file reproduces the
    file byte for byte.
    """
    blocks = [f"dataset-version: {ds.version}\nprovenance: {ds.provenance}\n"]
    blocks.extend(dumps_profile(profile) for profile in ds.profiles.values())
    return "\n".join(blocks)


# ---------------------------------------------------------------------------
# Alias table and known-id list
# ---------------------------------------------------------------------------


def _two_column_lines(text: str, source: str):
    for lineno, line in enumerate(split_lines(text), start=1):
        if skipped(line):
            continue
        stripped = line.strip()
        if "\t" not in stripped:
            raise FormatError(
                "expected two tab-separated columns", source=source, line=lineno
            )
        left, _, right = stripped.partition("\t")
        yield lineno, left.strip(), right.strip()


def loads_aliases(
    text: str, known: KnownLicenses, source: str = "<string>"
) -> AliasTable:
    """Parse an alias table; every target must be a known SPDX id, one per folded key."""
    entries: dict[str, str] = {}
    for lineno, raw, target in _two_column_lines(text, source):
        if target not in known:
            raise ValidationError(
                f"alias target {target!r} is not a known SPDX id", source=source, line=lineno
            )
        key = fold_key(raw)
        if entries.setdefault(key, target) != target:
            message = f"alias {raw!r} already maps to {entries[key]!r}, not {target!r}"
            raise ValidationError(message, source=source, line=lineno)
    return AliasTable(entries)


def load_aliases(path: str | Path, known: KnownLicenses) -> AliasTable:
    return loads_aliases(read_text(path), known, source=str(path))


def loads_known_ids(text: str, source: str = "<string>") -> list[tuple[str, str]]:
    return [(i, name) for _, i, name in _two_column_lines(text, source)]


def known_licenses(ds: Dataset, extra: list[tuple[str, str]]) -> KnownLicenses:
    """The id registry: the ``extra`` (id, full name) list, then every profile of ``ds``.

    Profiles are added last, so where a spelling matches both, the
    profile's id wins. A profile's id is in ``copyleft`` when its
    copyleft class is weak or strong.
    """
    known = KnownLicenses(extra)
    for profile in ds.profiles.values():
        known.add(profile.spdx_id, profile.full_name)
        if profile.copyleft is not CopyleftClass.NONE:
            known.copyleft.add(profile.spdx_id)
    return known


# ---------------------------------------------------------------------------
# Bundled seed data
# ---------------------------------------------------------------------------


def _bundled(name: str) -> str:
    # Read beside this module, not through importlib.resources, which
    # imports inspect on Python 3.12 and later.
    return (Path(__file__).parent / "data" / name).read_text("utf-8")


def bundled_dataset() -> Dataset:
    return loads_dataset(_bundled("licenses.dat"), source="licterm:data/licenses.dat")


def bundled_known_ids() -> list[tuple[str, str]]:
    return loads_known_ids(_bundled("spdx-ids.dat"), source="licterm:data/spdx-ids.dat")


def bundled_aliases(known: KnownLicenses) -> AliasTable:
    return loads_aliases(
        _bundled("aliases.dat"), known, source="licterm:data/aliases.dat"
    )
