"""Frequent term-pattern mining over license profiles.

Each license is one transaction whose items are its (term, attitude)
stances, spelled ``"term=attitude"``, skipping not-mentioned entries.
An attitude is part of the item identity on purpose: "cannot
place-warranty" and "can place-warranty" are different stances and
conflating them would merge licenses that disagree. Mining reports, for every itemset at or above
the support threshold, the exact set of licenses containing it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from .dataset import Dataset
from .model import Attitude, LicenseProfile, TERM_ORDER, Term


class InvalidThreshold(ValueError):
    pass


@dataclass(frozen=True)
class FrequentPattern:
    items: frozenset[str]
    support_count: int
    supporting_ids: frozenset[str]

    def sorted_items(self) -> tuple[str, ...]:
        return tuple(sorted(self.items))


def profile_items(profile: LicenseProfile) -> frozenset[str]:
    return frozenset(
        f"{term.value}={attitude.value}"
        for term, attitude in profile.terms.items()
        if attitude is not Attitude.NOT_MENTIONED
    )


def mine(ds: Dataset, min_support: int) -> list[FrequentPattern]:
    """Every itemset supported by at least ``min_support`` licenses.

    Output is sorted by descending support, ascending itemset size,
    then item spelling, and is independent of profile order. The search
    runs depth-first over supporting-id sets: each itemset is extended
    by one later item at a time and kept while the intersection of its
    id sets still reaches ``min_support``, so every supporting set is
    exact by construction.
    """
    if min_support < 1:
        raise InvalidThreshold(f"min_support must be >= 1, got {min_support}")
    inverted: dict[str, set[str]] = defaultdict(set)
    for spdx_id, profile in ds.profiles.items():
        for item in profile_items(profile):
            inverted[item].add(spdx_id)
    patterns: list[FrequentPattern] = []

    def extend(
        prefix: frozenset[str], candidates: list[tuple[str, frozenset[str]]]
    ) -> None:
        # Each candidate pairs a later item with the ids supporting prefix + item.
        for k, (item, ids) in enumerate(candidates):
            itemset = prefix | {item}
            patterns.append(FrequentPattern(itemset, len(ids), ids))
            extend(
                itemset,
                [
                    (other, both)
                    for other, other_ids in candidates[k + 1:]
                    if len(both := ids & other_ids) >= min_support
                ],
            )

    frequent = sorted(item for item, ids in inverted.items() if len(ids) >= min_support)
    extend(frozenset(), [(item, frozenset(inverted[item])) for item in frequent])
    patterns.sort(
        key=lambda p: (-p.support_count, len(p.items), p.sorted_items())
    )
    return patterns


def dedup_similar(
    patterns: list[FrequentPattern], jaccard_min: float = 0.9
) -> list[FrequentPattern]:
    """Collapse nested patterns whose supporting sets nearly coincide.

    Scans in input order (the mine() sort order from the CLI). A
    pattern is folded into an already kept one when their supporting
    sets have Jaccard similarity at or above ``jaccard_min`` (inclusive)
    and one itemset contains the other; the larger itemset survives, so
    a kept pattern can be replaced by a later superset.

    Kept patterns are bucketed by supporting-set size. Since
    Jaccard(A, B) <= min(|A|, |B|) / max(|A|, |B|), a pattern with n
    supporters is compared only with kept patterns whose size lies in
    [j*n, n/j] (widened by one on each side against rounding), the
    length filter of Bayardo, Ma and Srikant (WWW 2007). The result
    equals that of comparing with every kept pattern, for any input
    order.
    """
    if not 0 < jaccard_min <= 1:
        raise InvalidThreshold(f"jaccard_min must be in (0, 1], got {jaccard_min}")
    kept: dict[int, FrequentPattern] = {}  # id(pattern) -> pattern, in keeping order
    buckets: dict[int, dict[int, FrequentPattern]] = {}  # len(supporting_ids) -> kept
    sizes: list[int] = []  # sorted keys of ``buckets``
    for pattern in patterns:
        n = len(pattern.supporting_ids)
        window = sizes[
            bisect_left(sizes, jaccard_min * n - 1) : bisect_right(sizes, n / jaccard_min + 1)
        ]
        items = pattern.items
        similars = []
        for k in chain.from_iterable([buckets[size].values() for size in window]):
            if (k.items <= items or items <= k.items) and _jaccard(
                k.supporting_ids, pattern.supporting_ids
            ) >= jaccard_min:
                if len(k.items) >= len(items):
                    break  # a similar pattern at least as large: drop this one
                similars.append(k)
        else:
            for k in similars:
                del kept[id(k)]
                del buckets[len(k.supporting_ids)][id(k)]
            if n not in buckets:
                buckets[n] = {}
                insort(sizes, n)
            kept[id(pattern)] = buckets[n][id(pattern)] = pattern
    return list(kept.values())


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    common = len(a & b)
    return common / (len(a) + len(b) - common)


def common_term_report(ds: Dataset) -> dict[Term, dict[Attitude, int]]:
    """Per-term attitude histogram across the dataset (rows sum to its size)."""
    report = {
        term: {attitude: 0 for attitude in Attitude} for term in TERM_ORDER
    }
    for profile in ds.profiles.values():
        for term in TERM_ORDER:
            report[term][profile.terms[term]] += 1
    return report
