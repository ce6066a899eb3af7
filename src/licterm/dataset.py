"""Loading, validating, and persisting the curated license dataset.

The dataset file is plain UTF-8 text, one record per license, hand
editable and diff friendly. A record is a block of ``key: value``
lines separated from the next record by a blank line; the first block
may be a metadata record carrying ``dataset-version`` and
``provenance``. A profile record has ``spdx-id``, ``full-name``,
``copyleft``, one line for each of the 22 terms, and an optional
``notes`` line. Parsing is strict: unknown keys, duplicate keys, or
unknown attitude spellings are format errors, and
:func:`licterm.model.validate_profile` must return no violations for
any profile. ``Dataset.profiles`` maps each exact, case-sensitive id
to its profile.

The alias table maps irregular raw spellings to canonical ids, one
``raw form<TAB>spdx-id`` pair per line; keys are stored case-folded
with whitespace collapsed, and a key listed twice must name the same
id. The known-id list uses the same two-column layout
(``spdx-id<TAB>full name``) and feeds expression normalization.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError, ValidationError, read_text, split_lines
from .expression import KnownLicenses, fold_key
from .model import (
    Attitude,
    CopyleftClass,
    LicenseProfile,
    TERM_ORDER,
    validate_profile,
)

_META_KEYS = ("dataset-version", "provenance")
_HEADER_KEYS = ("spdx-id", "full-name", "copyleft")
_TERM_BY_KEY = {t.value: t for t in TERM_ORDER}
_ATTITUDE_BY_KEY = {a.value: a for a in Attitude}
_COPYLEFT_BY_KEY = {c.value: c for c in CopyleftClass}


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of validated license profiles."""

    profiles: dict[str, LicenseProfile]
    version: str = "0"
    provenance: str = "unknown"

    def __len__(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class AliasTable:
    """Mapping from normalized raw license spellings to canonical ids."""

    entries: dict[str, str] = field(default_factory=dict)

    def resolve(self, raw: str) -> str | None:
        return self.entries.get(fold_key(raw))


# ---------------------------------------------------------------------------
# Dataset file parsing
# ---------------------------------------------------------------------------


def _record_blocks(text: str, source: str):
    """Split file text into blocks of (line_number, key, value) triples."""
    block: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.strip()
        if not stripped:
            if block:
                yield block
                block = []
            continue
        if stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise FormatError(
                f"expected 'key: value', got {stripped!r}", source=source, line=lineno
            )
        key, _, value = stripped.partition(":")
        block.append((lineno, key.strip(), value.strip()))
    if block:
        yield block


def _parse_profile(block: list[tuple[int, str, str]], source: str) -> LicenseProfile:
    fields: dict[str, str] = {}
    first_line = block[0][0]
    for lineno, key, value in block:
        if key not in _TERM_BY_KEY and key not in _HEADER_KEYS and key != "notes":
            raise FormatError(f"unknown key {key!r}", source=source, line=lineno)
        if key in fields:
            raise FormatError(f"duplicate key {key!r}", source=source, line=lineno)
        fields[key] = value
        if key in _TERM_BY_KEY and value not in _ATTITUDE_BY_KEY:
            raise FormatError(
                f"unknown attitude {value!r} for {key}", source=source, line=lineno
            )
    for required in ("spdx-id", "copyleft"):
        if required not in fields:
            raise FormatError(
                f"record missing {required!r}", source=source, line=first_line
            )
    copyleft_raw = fields.get("copyleft", "")
    if copyleft_raw not in _COPYLEFT_BY_KEY:
        raise FormatError(
            f"unknown copyleft class {copyleft_raw!r}", source=source, line=first_line
        )
    terms = {
        _TERM_BY_KEY[key]: _ATTITUDE_BY_KEY[value]
        for key, value in fields.items()
        if key in _TERM_BY_KEY
    }
    return LicenseProfile(
        spdx_id=fields.get("spdx-id", ""),
        full_name=fields.get("full-name", ""),
        terms=terms,
        copyleft=_COPYLEFT_BY_KEY[copyleft_raw],
        notes=fields.get("notes", ""),
    )


def loads_dataset(text: str, source: str = "<string>") -> Dataset:
    """Parse dataset text; strict format, every profile validated."""
    version = "0"
    provenance = "unknown"
    profiles: dict[str, LicenseProfile] = {}
    for index, block in enumerate(_record_blocks(text, source)):
        keys = {key for _, key, _ in block}
        if index == 0 and keys <= set(_META_KEYS):
            meta = {key: value for _, key, value in block}
            version = meta.get("dataset-version", version)
            provenance = meta.get("provenance", provenance)
            continue
        profile = _parse_profile(block, source)
        first_line = block[0][0]  # the record's first line
        violations = validate_profile(profile)
        if violations:
            raise ValidationError(
                f"profile {profile.spdx_id or '<missing id>'}: " + "; ".join(violations),
                source=source,
                line=first_line,
            )
        if profile.spdx_id in profiles:
            raise ValidationError(
                f"duplicate spdx-id {profile.spdx_id!r}", source=source, line=first_line
            )
        profiles[profile.spdx_id] = profile
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
    lines.extend(
        f"{term.value}: {profile.terms[term].value}" for term in TERM_ORDER
    )
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
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
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
    return (
        importlib.resources.files("licterm").joinpath("data", name).read_text("utf-8")
    )


def bundled_dataset() -> Dataset:
    return loads_dataset(_bundled("licenses.dat"), source="licterm:data/licenses.dat")


def bundled_known_ids() -> list[tuple[str, str]]:
    return loads_known_ids(_bundled("spdx-ids.dat"), source="licterm:data/spdx-ids.dat")


def bundled_aliases(known: KnownLicenses) -> AliasTable:
    return loads_aliases(
        _bundled("aliases.dat"), known, source="licterm:data/aliases.dat"
    )
