"""Offline registry snapshots: parsing, dependency resolution, license changes.

Snapshot format: plain UTF-8 text, one version record per line (lines
end at ``\r\n``, ``\r`` or ``\n``; see ``errors.split_lines``), five
tab-separated fields::

    package<TAB>version<TAB>published<TAB>license_raw<TAB>dependencies

``published`` is an ISO calendar date (YYYY-MM-DD). ``dependencies``
is ``;``-joined ``name@range`` entries (the range follows the last
``@``, so scoped names like ``@scope/pkg`` work; the entry, its name
and its range are stripped of spaces) and may be empty.
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

Both files skip blank and comment lines by ``errors.skipped``. Snapshot
lines and graph node lines are checked by one record parser
(``_RecordParser``), so both are validated alike and every error carries
its ``file:line`` locator. Within one file each distinct version text
and date is parsed once. The graph reader tests each line's kind and
field count before the skip test, since no blank or comment line has a
kind.

On the write side, ``build_graph`` parses each distinct range text once
and resolves each distinct (package, range) once. ``write_graph`` writes
node lines in (package, version precedence) order, then the edge and
unresolved lines in the graph's order; ``build_graph`` groups edges by
parent in that node order and orders each parent's edges by dependency
node and range. It renders each distinct version object's text once,
keyed by the object and not by precedence, since ``1.0.0+a`` and
``1.0.0+b`` are equal but print apart.
"""

from __future__ import annotations

import datetime as _dt
import re
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DuplicateVersionError, FormatError, read_text, skipped, split_lines
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


class VersionRecord(NamedTuple):
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


class DependencyGraph(NamedTuple):
    edges: tuple[Edge, ...]
    unresolved: tuple[Unresolved, ...]


# Builds a named tuple from all of its fields without the class's own
# ``__new__``, a Python-level call.
_new = tuple.__new__


class _Parsed(dict):
    """Text -> ``parse(text)``, parsed on first lookup; a text that raises is not stored."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str):
        value = self[text] = self.parse(text)
        return value


# Python 3.11+ ``fromisoformat`` also takes "20200101" and week dates such
# as "2020-W01-1"; the format is exactly YYYY-MM-DD on every version.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_date(text: str) -> _dt.date:
    date_text = text.strip()
    if _DATE_RE.fullmatch(date_text) is None:
        raise FormatError(f"invalid date {text!r}")
    try:
        return _dt.date.fromisoformat(date_text)
    except ValueError:
        raise FormatError(f"invalid date {text!r}") from None


def _parse_dependency(entry: str) -> tuple[str, str] | None:
    """The (name, range) of one ``;``-separated entry, or None if it is blank."""
    entry = entry.strip()
    if not entry:
        return None
    name, sep, range_str = entry.rpartition("@")
    name = name.strip()
    if not sep or not name:
        raise FormatError(f"dependency entry {entry!r} is not name@range")
    return name, range_str.strip()


class _RecordParser:
    """Checks node fields and builds records, parsing each distinct text once per file."""

    def __init__(self):
        self.seen: set[tuple[str, tuple]] = set()  # (package, version key)
        self.versions = _Parsed(Semver.parse)
        self.dates = _Parsed(_parse_date)

    def record(
        self, package: str, version_text: str, published_text: str, license_raw: str,
        dependencies: tuple[tuple[str, str], ...] = (),
    ) -> VersionRecord:
        """The record of one line's package, version, date and license fields."""
        package = package.strip()
        if not package:
            raise FormatError("empty package name")
        version = self.versions[version_text]
        published = self.dates[published_text]
        node = (package, version.key)
        if node in self.seen:  # by precedence: build metadata is ignored
            raise DuplicateVersionError(f"duplicate record for {package}@{version}")
        self.seen.add(node)
        return _new(VersionRecord, (package, version, published, license_raw.strip(), dependencies))


def parse_snapshot(path: str | Path) -> list[VersionRecord]:
    return parse_snapshot_text(read_text(path), source=str(path))


def parse_snapshot_text(text: str, source: str = "<string>") -> list[VersionRecord]:
    records: list[VersionRecord] = []
    record = _RecordParser().record
    lineno = 0
    try:
        for lineno, line in enumerate(split_lines(text), start=1):
            if skipped(line):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise FormatError(f"expected 5 tab-separated fields, got {len(fields)}")
            package, version_text, published_text, license_raw, deps_text = fields
            # A blank entry parses to None; every other one to a non-empty tuple.
            dependencies = (
                tuple(filter(None, map(_parse_dependency, deps_text.split(";"))))
                if deps_text
                else ()
            )
            records.append(
                record(package, version_text, published_text, license_raw, dependencies)
            )
    except FormatError as exc:
        raise type(exc)(exc.message, source=source, line=lineno) from None
    return records


def _node_order(records: list[VersionRecord]) -> list[int]:
    """Indexes of ``records`` in (package, version) order, the graph file's node order."""
    keys = [(r.package, r.version.key) for r in records]
    return sorted(range(len(records)), key=keys.__getitem__)


def _parse_range_or_none(text: str) -> VersionRange | None:
    """The range ``text`` parses to, or None if it is outside the range grammar."""
    try:
        return parse_range(text)
    except RangeSyntaxError:
        return None


def build_graph(records: list[VersionRecord]) -> DependencyGraph:
    """Resolve every dependency range against the snapshot's own versions.

    Edges and unresolved entries index into ``records`` and come out
    sorted by their nodes' (package, version), then dependency and range.
    Each range resolves against all versions of the target package in
    the snapshot. Each distinct range text is parsed once and each
    distinct (package, range) resolved once; every entry naming it still
    yields its own edge or unresolved record.
    """
    order = _node_order(records)
    rank = [0] * len(records)  # position in (package, version) order
    # package -> its versions in key order, as resolve_range requires, and
    # each version key's records index. A package's nodes are adjacent in order.
    packages: dict[str, tuple[list[Semver], dict[tuple, int]]] = {}
    last_package = None
    for position, i in enumerate(order):
        rank[i] = position
        record = records[i]
        if record.package != last_package:
            last_package, available, nodes = record.package, [], {}
            packages[last_package] = available, nodes
        available.append(record.version)
        nodes[record.version.key] = i

    ranges = _Parsed(_parse_range_or_none)  # range text -> range, None if unparsable
    # (package, range text) -> (the target's rank, range text, target's records
    # index), the sort key and fields of an edge, or the reason there is none
    outcomes: dict[tuple[str, str], tuple[int, str, int] | str] = {}
    edges: list[Edge] = []
    unresolved: list[Unresolved] = []
    for i in order:
        dependencies = records[i].dependencies
        if not dependencies:
            continue
        found = []  # the outcome of each of this node's edges
        for entry in dependencies:
            outcome = outcomes.get(entry)
            if outcome is None:
                name, range_str = entry
                known = packages.get(name)
                if known is None:
                    outcome = _UNKNOWN_PACKAGE
                elif (rng := ranges[range_str]) is None:
                    outcome = _UNPARSABLE_RANGE
                else:
                    available, nodes = known
                    target = resolve_range(rng, available)
                    if target is None:
                        outcome = _NO_MATCH
                    else:
                        dep = nodes[target.key]
                        outcome = (rank[dep], range_str, dep)
                outcomes[entry] = outcome
            if isinstance(outcome, str):
                unresolved.append(_new(Unresolved, (i, *entry, outcome)))
            else:
                found.append(outcome)
        # Nodes come in rank order and ranks are unique per node, so sorting
        # each node's edges puts all of them in (package, version) order of both ends.
        if len(found) > 1:
            found.sort()
        for _, range_str, dep in found:
            edges.append(_new(Edge, (i, dep, range_str)))
    unresolved.sort(key=lambda u: (rank[u.node], u.dep_name, u.range))
    return DependencyGraph(edges=tuple(edges), unresolved=tuple(unresolved))


# ---------------------------------------------------------------------------
# License change detection
# ---------------------------------------------------------------------------

class LicenseChange(NamedTuple):
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
    records: list[VersionRecord], aliases: "AliasTable", known: KnownLicenses
) -> list[LicenseChange]:
    """Changes of normalized license between consecutive versions.

    Versions are taken in the graph file's node order, (package, semver
    precedence), with no publish-date tie-break: ``parse_snapshot`` and
    ``read_graph`` reject precedence-equal versions of one package.
    Changes of statement only (raw text differs, same normalized license)
    are suppressed; a change touching an unresolvable license is emitted
    as involving-unresolvable.
    """

    def outcome_and_text(raw: str) -> tuple[NormalizationOutcome, str]:
        # The text is the canonical expression or the unresolvable reason:
        # statement forms carry no license content, so two file references
        # are the same license here.
        outcome = normalize(raw, aliases, known)
        return outcome, str(outcome)

    normalized = _Parsed(outcome_and_text)  # by raw license
    changes: list[LicenseChange] = []
    chain = [records[i] for i in _node_order(records)]
    for prev, curr in zip(chain, chain[1:]):
        if prev.package != curr.package:
            continue
        before, before_text = normalized[prev.license_raw]
        after, after_text = normalized[curr.license_raw]
        if before_text == after_text:
            continue
        classification = _classify(before, after, known)
        changes.append(LicenseChange(curr.package, before, after, curr.version, classification))
    return changes


# ---------------------------------------------------------------------------
# Graph file persistence
# ---------------------------------------------------------------------------

GRAPH_HEADER = "#% licterm-graph 1"
_FIELD_COUNTS = {"node": 5, "edge": 6, "unresolved": 6}


def write_graph(graph: DependencyGraph, records: list[VersionRecord], path: str | Path) -> None:
    """Persist the graph, which indexes into ``records``, with node metadata to scan it later.

    Node lines come in (package, version) order, edge and unresolved lines
    in the order the graph gives them.
    """
    # Each distinct version object's text, rendered once. Keyed by object, not
    # by precedence: 1.0.0+a and 1.0.0+b are equal but print apart.
    version_texts: dict[int, str] = {}
    texts = []  # each node's package and version
    for r in records:
        version_text = version_texts.get(id(r.version))
        if version_text is None:
            version_text = version_texts[id(r.version)] = str(r.version)
        texts.append(f"{r.package}\t{version_text}")
    lines = [GRAPH_HEADER]
    for i in _node_order(records):
        r = records[i]
        lines.append(f"node\t{texts[i]}\t{r.published.isoformat()}\t{r.license_raw}")
    lines += [
        f"edge\t{texts[parent]}\t{texts[dep]}\t{range_str}"
        for parent, dep, range_str in graph.edges
    ]
    lines += [
        f"unresolved\t{texts[node]}\t{dep_name}\t{range_str}\t{reason}"
        for node, dep_name, range_str, reason in graph.unresolved
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _no_node(package: str, version_text: str) -> FormatError:
    return FormatError(f"{package}@{version_text} has no node line above it")


def read_graph(path: str | Path) -> tuple[DependencyGraph, list[VersionRecord]]:
    """Load a graph file; the returned records carry no dependency lists.

    Line 1 must be ``GRAPH_HEADER``. Node lines are checked as snapshot
    records are, and an unresolved line's reason must be one of
    ``UNRESOLVED_REASONS``. Each package version an edge or unresolved
    line names needs a node line above it with the same package and
    version text, as ``write_graph`` writes them; the edge or entry holds
    that node's index in the returned records, which are in node-line order.
    """
    source = str(path)
    text = read_text(path)
    # The header line is whole only if a line break or the end follows it.
    if split_lines(text[: len(GRAPH_HEADER) + 1])[0] != GRAPH_HEADER:
        raise FormatError(
            f"missing or unsupported header, expected {GRAPH_HEADER!r}", source=source, line=1
        )
    records: list[VersionRecord] = []
    record = _RecordParser().record
    index: dict[tuple[str, str], int] = {}  # (package, version text) of each node line -> index
    edges: list[Edge] = []
    unresolved: list[Unresolved] = []
    lineno = 0
    try:
        for lineno, line in enumerate(split_lines(text), start=1):
            fields = line.split("\t")
            kind = fields[0]
            if kind == "edge" and len(fields) == 6:
                _, package, version_text, dep_package, dep_version, range_str = fields
                parent = index.get((package, version_text))
                if parent is None:
                    raise _no_node(package, version_text)
                dep = index.get((dep_package, dep_version))
                if dep is None:
                    raise _no_node(dep_package, dep_version)
                edges.append(_new(Edge, (parent, dep, range_str)))
            elif kind == "node" and len(fields) == 5:
                _, package, version_text, published_text, license_raw = fields
                records.append(record(package, version_text, published_text, license_raw))
                index[package, version_text] = len(records) - 1
            elif kind == "unresolved" and len(fields) == 6:
                if fields[5] not in UNRESOLVED_REASONS:
                    raise FormatError(f"unknown unresolved reason {fields[5]!r}")
                node = index.get((fields[1], fields[2]))
                if node is None:
                    raise _no_node(fields[1], fields[2])
                unresolved.append(Unresolved(node, *fields[3:]))
            elif kind in _FIELD_COUNTS:
                fault = f"expected {_FIELD_COUNTS[kind]} tab-separated fields, got {len(fields)}"
                raise FormatError(f"{kind} line: {fault}")
            elif not skipped(line):  # no blank or comment line has one of the kinds above
                raise FormatError(f"unrecognized line kind {kind!r}")
    except FormatError as exc:
        raise type(exc)(exc.message, source=source, line=lineno) from None
    return DependencyGraph(edges=tuple(edges), unresolved=tuple(unresolved)), records
