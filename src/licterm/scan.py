"""Apply conflict checking across a dependency graph and aggregate reports.

Every edge gets its own verdict: the dependent's raw license is the
parent side and the target's is the dependency side, both normalized
first. An edge with an unresolvable license on either side lands in
``unknown_license_edges`` and is never counted as a conflict. The
aggregation adds no findings of its own; counts are exactly what
per-edge checking produces.

Each distinct raw license is normalized once and rendered once. That
one text interns its outcome (unresolvable outcomes apart from resolved
ones) as an integer outcome id, spells it in the top pairs and names
its usage bucket. Every node maps to its outcome id and every edge to
its pair of ids, coded as one int (parent id * number of ids +
dependency id), so edges whose licenses normalize to the same pair of
expressions share one check, whose verdict counts once per edge. No
version or expression tree is hashed. The scan reads only each
verdict's ``conflict_types``, so it builds no finding. Per-type counts
are kept by position in ``ConflictType`` and keyed by the type only in
the returned report.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

from .conflicts import ConflictType, check_expressions
from .dataset import AliasTable, Dataset
from .expression import (
    KnownLicenses,
    NormalizationOutcome,
    Unresolvable,
    UnresolvableReason,
    normalize,
)
from .registry import DependencyGraph, VersionRecord

#: Usage bucket for packages that declare no license at all.
NO_LICENSE_BUCKET = "no-license"

# The conflict types in ``ConflictType`` order. ``tuple.index`` finds a member
# by identity, where a dict would call the Python-level ``Enum.__hash__``.
_TYPES = tuple(ConflictType)


class ScanReport(NamedTuple):
    total_edges: int
    edges_with_findings: dict[ConflictType, int]
    conflicted_edges: int  # distinct edges with at least one finding of any type
    unknown_license_edges: int
    top_pairs: dict[ConflictType, Counter]  # (parent expr, dep expr) -> edge count
    usage: dict[tuple[int, str], int]  # (year, license bucket) -> package count


def _yearly_usage(
    records: list[VersionRecord], bucket_of: dict[str, str]
) -> dict[tuple[int, str], int]:
    """Count each package once per year via its latest version that year, by usage bucket."""
    latest: dict[tuple[str, int], VersionRecord] = {}
    for record in records:
        key = (record.package, record.published.year)
        cur = latest.get(key)
        if (
            cur is None
            or record.published > cur.published
            or (record.published == cur.published and record.version.key > cur.version.key)
        ):
            latest[key] = record
    usage: dict[tuple[int, str], int] = defaultdict(int)
    for (package, year), record in latest.items():
        usage[(year, bucket_of[record.license_raw])] += 1
    return dict(usage)


def scan(
    graph: DependencyGraph,
    records: list[VersionRecord],
    ds: Dataset,
    strict_not_mentioned: bool,
    aliases: AliasTable,
    known: KnownLicenses,
) -> ScanReport:
    """Check every edge of the graph and aggregate ecosystem statistics.

    Raw licenses are normalized with ``aliases`` and ``known`` and checked
    against the profiles of ``ds``; the caller builds all three, as the
    CLI does once per command.
    """
    id_of: dict[str, int] = {}  # outcome id by raw license
    bucket_of: dict[str, str] = {}  # usage bucket by raw license
    ids: dict[tuple[bool, str], int] = {}  # (unresolvable, rendered text) -> outcome id
    # By outcome id. Trees that share an id are equal: render is one-to-one.
    interned: list[NormalizationOutcome] = []
    for raw in dict.fromkeys(record.license_raw for record in records):
        outcome = normalize(raw, aliases, known)
        rendered = str(outcome)
        unresolvable = isinstance(outcome, Unresolvable)
        id_of[raw] = ids.setdefault((unresolvable, rendered), len(ids))
        if len(interned) < len(ids):
            interned.append(outcome)
        no_license = unresolvable and outcome.reason is UnresolvableReason.NO_LICENSE
        bucket_of[raw] = NO_LICENSE_BUCKET if no_license else rendered
    text = [rendered for _, rendered in ids]  # ids were handed out in insertion order
    # Edges per (parent, dependency) outcome id pair, in first-seen edge order,
    # each pair coded as parent id * width + dependency id so no tuple is hashed.
    width = len(ids)
    outcome_id = [id_of[record.license_raw] for record in records]  # by node
    scaled = [i * width for i in outcome_id]
    edges_of_pair = Counter(scaled[parent] + outcome_id[dep] for parent, dep, _ in graph.edges)

    # Per rule number k, the k-th ConflictType: its edge total and its pair counts.
    edges_with = [0] * len(_TYPES)
    top_pairs: list[Counter] = [Counter() for _ in _TYPES]
    conflicted = 0
    unknown_edges = 0
    for code, edges in edges_of_pair.items():
        parent_id, dep_id = divmod(code, width)
        parent, dep = interned[parent_id], interned[dep_id]
        if isinstance(parent, Unresolvable) or isinstance(dep, Unresolvable):
            unknown_edges += edges
            continue
        verdict = check_expressions(parent, dep, ds, strict_not_mentioned)
        if verdict.conflict_free:
            continue
        conflicted += edges
        pair = (text[parent_id], text[dep_id])
        for k in map(_TYPES.index, verdict.conflict_types):
            edges_with[k] += edges
            top_pairs[k][pair] += edges
    return ScanReport(
        total_edges=len(graph.edges),
        edges_with_findings=dict(zip(_TYPES, edges_with)),
        conflicted_edges=conflicted,
        unknown_license_edges=unknown_edges,
        top_pairs=dict(zip(_TYPES, top_pairs)),
        usage=_yearly_usage(records, bucket_of),
    )


def rank_pairs(
    report: ScanReport, k: int = 10
) -> dict[ConflictType, tuple[tuple[str, str, int], ...]]:
    """Per-type top-k (parent, dep, count) rows.

    Rows sort by descending count, then pair spelling. The per-type
    totals over all conflicted edges, not only the top k, are
    ``report.edges_with_findings``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows: dict[ConflictType, tuple[tuple[str, str, int], ...]] = {}
    for ctype in ConflictType:
        ranked = sorted(
            report.top_pairs[ctype].items(), key=lambda item: (-item[1], item[0])
        )
        rows[ctype] = tuple(
            (parent, dep, count) for (parent, dep), count in ranked[:k]
        )
    return rows
