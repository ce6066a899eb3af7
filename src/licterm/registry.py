"""Offline registry snapshots: parsing, dependency resolution, license changes.

Snapshot format: plain UTF-8 text, one version record per line (lines
end at ``\r\n``, ``\r`` or ``\n``; see ``errors.split_lines``), five
tab-separated fields::

    package<TAB>version<TAB>published<TAB>license_raw<TAB>dependencies

``published`` is an ISO calendar date (YYYY-MM-DD). ``dependencies``
is ``;``-joined ``name@range`` entries (the range follows the last
``@``, so scoped names like ``@scope/pkg`` work) and may be empty.
``license_raw`` may be empty and may not contain tabs. Lines starting
with ``#`` and blank lines are skipped. Parsing is strict; a repeated
(package, version) is an error, with versions compared by precedence
(build metadata does not tell two versions apart).

The dependency graph materializes one edge per resolvable dependency
entry; failures are kept as data with their reason rather than
dropped. Each entry counts on its own: a record that names the same
dependency twice, even with the same range, gets two edges (or two
unresolved records), so ``edges + unresolved`` always equals the
number of dependency entries. The records list is the node table:
an edge holds the list indexes of its two nodes, an unresolved entry
the index of its one node. The graph file written by ``ingest``
repeats the node metadata so a scan can run from the graph file alone.

Snapshot lines and graph node lines go through one record parser
(``_record``) under one line driver (``_parse_lines``), so both are
validated alike and every error carries its ``file:line`` locator.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DuplicateVersionError, FormatError, read_text, split_lines
from .expression import (
    KnownLicenses,
    LicenseExpression,
    NormalizationOutcome,
    Unresolvable,
    expression_ids,
    normalize,
)
from .semver import RangeSyntaxError, Semver, VersionRange, parse_range, resolve_range

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import AliasTable


@dataclass(frozen=True)
class VersionRecord:
    package: str
    version: Semver
    published: _dt.date
    license_raw: str
    dependencies: tuple[tuple[str, str], ...]  # (name, range string)


class Edge(NamedTuple):
    parent: int  # records index of the dependent
    dep: int  # records index of the resolved dependency
    range: str


# Why a dependency entry has no edge: its package is not in the snapshot,
# no version of it satisfies the range, or the range does not parse.
UNRESOLVED_REASONS = ("unknown-package", "no-match", "unparsable-range")
_UNKNOWN_PACKAGE, _NO_MATCH, _UNPARSABLE_RANGE = UNRESOLVED_REASONS


class Unresolved(NamedTuple):
    node: int  # records index of the dependent
    dep_name: str
    range: str
    reason: str  # one of UNRESOLVED_REASONS


@dataclass(frozen=True)
class DependencyGraph:
    edges: tuple[Edge, ...]
    unresolved: tuple[Unresolved, ...]


class _Versions(dict):
    """Version text -> its one shared ``Semver``, parsed on first lookup."""

    def __missing__(self, text: str) -> Semver:
        version = self[text] = Semver.parse(text)
        return version


def _parse_lines(text: str, source: str, parse_line) -> None:
    """Call ``parse_line`` with the tab-split fields of each line not blank or ``#``.

    A ``FormatError`` is re-raised, as the same subclass, at ``source:line``.
    """
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            parse_line(line.split("\t"))
        except FormatError as exc:
            raise type(exc)(exc.message, source=source, line=lineno) from None


# Python 3.11+ ``fromisoformat`` also takes "20200101" and week dates such
# as "2020-W01-1"; the format is exactly YYYY-MM-DD on every version.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _record(
    fields: list[str], seen: set[tuple[str, Semver]], versions: _Versions, dependencies=()
) -> VersionRecord:
    """The record of a (package, version, published, license) field list, added to ``seen``."""
    package, version_text, published_text, license_raw = fields
    package = package.strip()
    if not package:
        raise FormatError("empty package name")
    version = versions[version_text]
    date_text = published_text.strip()
    if _DATE_RE.fullmatch(date_text) is None:
        raise FormatError(f"invalid date {published_text!r}")
    try:
        published = _dt.date.fromisoformat(date_text)
    except ValueError:
        raise FormatError(f"invalid date {published_text!r}") from None
    if (package, version) in seen:  # by precedence: build metadata is ignored
        raise DuplicateVersionError(f"duplicate record for {package}@{version}")
    seen.add((package, version))
    return VersionRecord(package, version, published, license_raw.strip(), dependencies)


def _parse_dependencies(text: str) -> tuple[tuple[str, str], ...]:
    deps = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, range_str = entry.rpartition("@")
        if not sep or not name:
            raise FormatError(f"dependency entry {entry!r} is not name@range")
        deps.append((name, range_str.strip()))
    return tuple(deps)


def parse_snapshot(path: str | Path) -> list[VersionRecord]:
    return parse_snapshot_text(read_text(path), source=str(path))


def parse_snapshot_text(text: str, source: str = "<string>") -> list[VersionRecord]:
    records: list[VersionRecord] = []
    seen: set[tuple[str, Semver]] = set()
    versions = _Versions()

    def parse_line(fields: list[str]) -> None:
        if len(fields) != 5:
            raise FormatError(f"expected 5 tab-separated fields, got {len(fields)}")
        dependencies = _parse_dependencies(fields[4])
        records.append(_record(fields[:4], seen, versions, dependencies))

    _parse_lines(text, source, parse_line)
    return records


def _node_order(records: list[VersionRecord]) -> list[int]:
    """Indexes of ``records`` in (package, version) order, the graph file's node order."""
    return sorted(range(len(records)), key=lambda i: (records[i].package, records[i].version.key))


def build_graph(records: list[VersionRecord]) -> DependencyGraph:
    """Resolve every dependency range against the snapshot's own versions.

    Edges and unresolved entries index into ``records`` and come out
    sorted by their nodes' (package, version), then dependency and range.
    Each range resolves against all versions of the target package in
    the snapshot. Each distinct (package, range) is resolved once; every
    entry naming it still yields its own edge or unresolved record.
    """
    order = _node_order(records)
    rank = [0] * len(records)  # position in (package, version) order
    # Each list is in key order, as resolve_range requires.
    versions_by_package: dict[str, list[Semver]] = defaultdict(list)
    node_of: dict[tuple[str, tuple], int] = {}  # (package, version key) -> records index
    for position, i in enumerate(order):
        rank[i] = position
        record = records[i]
        versions_by_package[record.package].append(record.version)
        node_of[record.package, record.version.key] = i

    ranges: dict[str, VersionRange | None] = {}  # range text -> range, None if unparsable

    def resolve(name: str, range_str: str) -> int | str:
        """The target's records index, or the reason there is none."""
        if name not in versions_by_package:
            return _UNKNOWN_PACKAGE
        if range_str not in ranges:
            try:
                ranges[range_str] = parse_range(range_str)
            except RangeSyntaxError:
                ranges[range_str] = None
        rng = ranges[range_str]
        if rng is None:
            return _UNPARSABLE_RANGE
        target = resolve_range(rng, versions_by_package[name])
        return _NO_MATCH if target is None else node_of[name, target.key]

    outcomes: dict[tuple[str, str], int | str] = {}
    edges: list[Edge] = []
    unresolved: list[Unresolved] = []
    for i in order:
        for name, range_str in records[i].dependencies:
            outcome = outcomes.get((name, range_str))
            if outcome is None:
                outcome = outcomes[(name, range_str)] = resolve(name, range_str)
            if isinstance(outcome, str):
                unresolved.append(Unresolved(i, name, range_str, outcome))
            else:
                edges.append(Edge(i, outcome, range_str))
    # Ranks are unique per node, so this is the (package, version) order of both ends.
    edges.sort(key=lambda e: (rank[e.parent], rank[e.dep], e.range))
    unresolved.sort(key=lambda u: (rank[u.node], u.dep_name, u.range))
    return DependencyGraph(edges=tuple(edges), unresolved=tuple(unresolved))


# ---------------------------------------------------------------------------
# License change detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LicenseChange:
    package: str
    from_outcome: NormalizationOutcome
    to_outcome: NormalizationOutcome
    at_version: Semver
    classification: str


def _classify(
    from_outcome: NormalizationOutcome,
    to_outcome: NormalizationOutcome,
    known: KnownLicenses,
) -> str:
    if isinstance(from_outcome, Unresolvable) or isinstance(to_outcome, Unresolvable):
        return "involving-unresolvable"

    def side(expr: LicenseExpression) -> str:
        return "copyleft" if expression_ids(expr) & known.copyleft else "permissive"

    return f"{side(from_outcome)}-to-{side(to_outcome)}"


def license_changes(
    records: list[VersionRecord],
    aliases: "AliasTable | None",
    known: KnownLicenses,
) -> list[LicenseChange]:
    """Changes of normalized license between consecutive versions.

    Versions are ordered by semver precedence with publish date as the
    tie breaker. Changes of statement only (raw text differs, same
    normalized license) are suppressed; a change touching an
    unresolvable license is emitted as involving-unresolvable.
    """
    by_package: dict[str, list[VersionRecord]] = defaultdict(list)
    for record in records:
        by_package[record.package].append(record)
    cache: dict[str, NormalizationOutcome] = {}

    def normalized(raw: str) -> NormalizationOutcome:
        if raw not in cache:
            cache[raw] = normalize(raw, aliases, known)
        return cache[raw]

    changes: list[LicenseChange] = []
    for package in sorted(by_package):
        chain = sorted(by_package[package], key=lambda r: (r.version.key, r.published))
        for prev, curr in zip(chain, chain[1:]):
            before = normalized(prev.license_raw)
            after = normalized(curr.license_raw)
            # The text is the canonical expression or the unresolvable reason:
            # statement forms carry no license content, so two file
            # references are the same license here.
            if str(before) == str(after):
                continue
            changes.append(
                LicenseChange(
                    package=package,
                    from_outcome=before,
                    to_outcome=after,
                    at_version=curr.version,
                    classification=_classify(before, after, known),
                )
            )
    return changes


# ---------------------------------------------------------------------------
# Graph file persistence
# ---------------------------------------------------------------------------

GRAPH_HEADER = "#% licterm-graph 1"


def write_graph(graph: DependencyGraph, records: list[VersionRecord], path: str | Path) -> None:
    """Persist the graph, which indexes into ``records``, with node metadata to scan it later."""
    texts = [f"{r.package}\t{r.version}" for r in records]  # each node's text, rendered once
    lines = [GRAPH_HEADER]
    for i in _node_order(records):
        r = records[i]
        lines.append(f"node\t{texts[i]}\t{r.published.isoformat()}\t{r.license_raw}")
    lines.extend(f"edge\t{texts[e.parent]}\t{texts[e.dep]}\t{e.range}" for e in graph.edges)
    lines.extend(
        f"unresolved\t{texts[u.node]}\t{u.dep_name}\t{u.range}\t{u.reason}"
        for u in graph.unresolved
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> tuple[DependencyGraph, list[VersionRecord]]:
    """Load a graph file; the returned records carry no dependency lists.

    Line 1 must be ``GRAPH_HEADER``. Node lines are checked as snapshot
    records are, and an unresolved line's reason must be one of
    ``UNRESOLVED_REASONS``. Each package version an edge or unresolved
    line names needs a node line above it with the same version text, as
    ``write_graph`` writes it; the edge or entry holds that node's index
    in the returned records, which are in node-line order.
    """
    source = str(path)
    text = read_text(path)
    # The header line is whole only if a line break or the end follows it.
    if split_lines(text[: len(GRAPH_HEADER) + 1])[0] != GRAPH_HEADER:
        raise FormatError(
            f"missing or unsupported header, expected {GRAPH_HEADER!r}", source=source, line=1
        )
    records: list[VersionRecord] = []
    seen: set[tuple[str, Semver]] = set()
    versions = _Versions()
    index: dict[tuple[str, str], int] = {}  # (package, version text) of each node line -> index
    edges: list[Edge] = []
    unresolved: list[Unresolved] = []

    def node(package: str, version_text: str) -> int:
        i = index.get((package, version_text))
        if i is None:
            raise FormatError(f"{package}@{version_text} has no node line above it")
        return i

    def parse_line(fields: list[str]) -> None:
        kind = fields[0]
        if kind == "node" and len(fields) == 5:
            record = _record(fields[1:], seen, versions)
            index[record.package, fields[2]] = len(records)
            records.append(record)
        elif kind == "edge" and len(fields) == 6:
            edges.append(Edge(node(fields[1], fields[2]), node(fields[3], fields[4]), fields[5]))
        elif kind == "unresolved" and len(fields) == 6:
            if fields[5] not in UNRESOLVED_REASONS:
                raise FormatError(f"unknown unresolved reason {fields[5]!r}")
            unresolved.append(Unresolved(node(fields[1], fields[2]), *fields[3:]))
        else:
            raise FormatError(f"unrecognized line kind {kind!r}")

    _parse_lines(text, source, parse_line)
    return DependencyGraph(edges=tuple(edges), unresolved=tuple(unresolved)), records
