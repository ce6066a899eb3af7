"""Apply conflict checking across a dependency graph and aggregate reports.

Every edge gets its own verdict: the dependent's raw license is the
parent side and the target's is the dependency side, both normalized
first. An edge with an unresolvable license on either side lands in
``unknown_license_edges`` and is never counted as a conflict. The
aggregation adds no findings of its own; counts are exactly what
per-edge checking produces. Edges whose licenses normalize to the same
pair of expressions share one check, whose verdict counts once per edge.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .conflicts import ConflictType, check_expressions
from .dataset import Dataset, bundled_known_ids, known_licenses
from .expression import (
    KnownLicenses,
    NormalizationOutcome,
    Unresolvable,
    UnresolvableReason,
    normalize,
)
from .registry import DependencyGraph, VersionRecord
from .semver import Semver

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import AliasTable

#: Usage bucket for packages that declare no license at all.
NO_LICENSE_BUCKET = "no-license"


@dataclass(frozen=True)
class ScanReport:
    total_edges: int
    edges_with_findings: dict[ConflictType, int]
    conflicted_edges: int  # distinct edges with at least one finding of any type
    unknown_license_edges: int
    top_pairs: dict[ConflictType, Counter]  # (parent expr, dep expr) -> edge count
    usage: dict[tuple[int, str], int]  # (year, license bucket) -> package count
    warnings: tuple[str, ...]


def _usage_bucket(outcome: NormalizationOutcome) -> str:
    if isinstance(outcome, Unresolvable) and outcome.reason is UnresolvableReason.NO_LICENSE:
        return NO_LICENSE_BUCKET
    return str(outcome)


def _yearly_usage(
    records: list[VersionRecord], outcome_of: dict[str, NormalizationOutcome]
) -> dict[tuple[int, str], int]:
    """Count each package once per year via its latest version that year."""
    latest: dict[tuple[str, int], VersionRecord] = {}
    for record in records:
        key = (record.package, record.published.year)
        cur = latest.get(key)
        if cur is None or (record.published, record.version) > (cur.published, cur.version):
            latest[key] = record
    usage: dict[tuple[int, str], int] = defaultdict(int)
    for (package, year), record in latest.items():
        usage[(year, _usage_bucket(outcome_of[record.license_raw]))] += 1
    return dict(usage)


def scan(
    graph: DependencyGraph,
    records: list[VersionRecord],
    ds: Dataset,
    strict_not_mentioned: bool = False,
    aliases: "AliasTable | None" = None,
    known: KnownLicenses | None = None,
) -> ScanReport:
    """Check every edge of the graph and aggregate ecosystem statistics."""
    if known is None:
        known = known_licenses(ds, bundled_known_ids())
    outcome_of: dict[str, NormalizationOutcome] = {}  # by raw license
    outcome_at: dict[tuple[str, Semver], NormalizationOutcome] = {}  # by node
    for record in records:
        if record.license_raw not in outcome_of:
            outcome_of[record.license_raw] = normalize(record.license_raw, aliases, known)
        outcome_at[(record.package, record.version)] = outcome_of[record.license_raw]
    # Edges per (parent, dependency) outcome pair, in first-seen edge order.
    edges_of_pair = Counter(
        (outcome_at[(edge.package, edge.version)], outcome_at[(edge.dep_package, edge.dep_version)])
        for edge in graph.edges
    )

    edges_with = {ctype: 0 for ctype in ConflictType}
    top_pairs: dict[ConflictType, Counter] = {ctype: Counter() for ctype in ConflictType}
    conflicted = 0
    unknown_edges = 0
    warnings: dict[str, None] = {}  # first-seen order
    for (parent, dep), edges in edges_of_pair.items():
        if isinstance(parent, Unresolvable) or isinstance(dep, Unresolvable):
            unknown_edges += edges
            continue
        verdict = check_expressions(parent.expr, dep.expr, ds, strict_not_mentioned)
        warnings.update(dict.fromkeys(verdict.warnings))
        if not verdict.findings:
            continue
        conflicted += edges
        pair = (str(parent), str(dep))
        for ctype in {f.ctype for f in verdict.findings}:
            edges_with[ctype] += edges
            top_pairs[ctype][pair] += edges
    return ScanReport(
        total_edges=len(graph.edges),
        edges_with_findings=edges_with,
        conflicted_edges=conflicted,
        unknown_license_edges=unknown_edges,
        top_pairs=top_pairs,
        usage=_yearly_usage(records, outcome_of),
        warnings=tuple(warnings),
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
