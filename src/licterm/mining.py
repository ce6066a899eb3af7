"""Frequent term-pattern mining over license profiles.

Each license is one transaction whose items are its (term, attitude)
stances, spelled ``"term=attitude"``, skipping not-mentioned entries.
An attitude is part of the item identity on purpose: "cannot
place-warranty" and "can place-warranty" are different stances and
conflating them would merge licenses that disagree. Mining reports, for every itemset at or above
the support threshold, the exact set of licenses containing it.

Supporting sets are Python ``int`` bitsets: bit i stands for the i-th id
of the dataset's sorted license ids, a tuple that every pattern of one
``mine()`` call shares. Intersection is ``&`` and support is
``int.bit_count()``; the ids themselves are only spelled out, by
:func:`licterm.model.selected`, for the patterns someone reads.

Similarity dedup keeps only closed itemsets, by a test on each alone: a
P that is not closed has some P + x with its supporting set, at Jaccard
1; and P + x's supporting set is ``s & support(x)``, a subset of P's s,
so only the largest popcount c of those decides P. Given a Jaccard
threshold, ``mine()`` walks closed itemsets and applies the test there.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._frozen import Frozen
from .dataset import Dataset
from .model import MASK_SLOTS, Attitude, LicenseProfile, TERM_ORDER, Term, selected


class InvalidThreshold(ValueError):
    pass


class FrequentPattern(Frozen):
    """An itemset with its supporting licenses.

    Bit i of ``support`` is set when ``licenses[i]`` supports the itemset;
    ``licenses`` is the sorted id tuple that every pattern of one
    :func:`mine` call shares.
    """

    __slots__ = _fields = ("items", "support", "licenses")

    def __init__(self, items: frozenset[str], support: int, licenses: tuple[str, ...]):
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "licenses", licenses)

    @property
    def support_count(self) -> int:
        return self.support.bit_count()

    def sorted_items(self) -> tuple[str, ...]:
        return tuple(sorted(self.items))

    def sorted_ids(self) -> Iterator[str]:
        """The supporting ids in bit order, which is sorted order, read by ``model.selected``."""
        return selected(self.licenses, self.support)


#: Per mask of :data:`licterm.model.MASK_SLOTS`, the item each of its bits stands for.
_MASK_ITEMS = [[f"{term.value}={attitude.value}" for term in slot] for slot, attitude in MASK_SLOTS]


def profile_items(profile: LicenseProfile) -> frozenset[str]:
    """The profile's stances, read off its mask bits: not-mentioned sets none."""
    return frozenset([
        item
        for items, mask in zip(_MASK_ITEMS, profile.masks)
        for item in selected(items, mask)
    ])


def mine(ds: Dataset, min_support: int, jaccard: float | None = None) -> list[FrequentPattern]:
    """Every itemset supported by at least ``min_support`` licenses, or with
    ``jaccard`` only those that ``dedup_similar(..., jaccard)`` keeps.

    Output is sorted by descending support, ascending itemset size,
    then item spelling, and is independent of profile order. The search
    runs depth-first over supporting sets, Eclat's vertical layout
    (Zaki, IEEE TKDE 2000) with each set an ``int`` bitset over the
    sorted license ids: each itemset is extended by one later item at a
    time and kept while the ``&`` of its bitsets still has
    ``min_support`` bits set, so every supporting set is exact by
    construction. Every returned pattern shares one ``licenses`` tuple.

    With ``jaccard``, the search lists far fewer sets. Let P have
    supporting set s; for an item x outside P, P + x has the supporting
    set ``s & support(x)``, a subset of s, whose popcount c(x) makes
    ``_jaccard`` of the two the float ``c(x) / |s|``. So a P that is not
    closed is always dropped: some x has c(x) = |s|, so P + x is
    frequent at Jaccard 1. And dropping is a test on P alone: P + x is
    listed exactly when c(x) >= ``min_support``, and ``c / |s|`` grows
    with c, so P is dropped exactly when the largest c(x) passes
    ``c >= min_support`` and ``c / |s| >= jaccard``. The search walks
    closed itemsets only, as LCM does (Uno, Kiyomi and Arimura, FIMI
    2004): it extends a closed set by one later item, adds every item
    that all the new supporters hold, and keeps the result only when no
    earlier item joined, so each closed set is reached once.
    """
    check_thresholds(min_support, jaccard)
    licenses = tuple(sorted(ds.profiles))
    inverted: dict[str, int] = {}
    for i, spdx_id in enumerate(licenses):
        for item in profile_items(ds.profiles[spdx_id]):
            inverted[item] = inverted.get(item, 0) | 1 << i
    frequent = [
        (item, support)
        for item, support in sorted(inverted.items())
        if support.bit_count() >= min_support
    ]
    if jaccard is None:
        patterns = _frequent(frequent, min_support, licenses)
    else:
        patterns = _closed(frequent, min_support, jaccard, licenses)
    patterns.sort(
        key=lambda p: (-p.support_count, len(p.items), p.sorted_items())
    )
    return patterns


def _frequent(frequent, min_support, licenses) -> list[FrequentPattern]:
    patterns: list[FrequentPattern] = []
    # Each candidate pairs a later item with the bitset of prefix + item. A
    # recursive closure would be a reference cycle holding ``patterns``
    # until the cyclic collector runs, which cli.main turns off.
    stack = [(frozenset(), frequent)]
    while stack:
        prefix, candidates = stack.pop()
        for k, (item, support) in enumerate(candidates):
            itemset = prefix | {item}
            patterns.append(FrequentPattern(itemset, support, licenses))
            stack.append((itemset, [
                (other, both)
                for other, other_support in candidates[k + 1:]
                if (both := support & other_support).bit_count() >= min_support
            ]))
    return patterns


def _closed(frequent, min_support, jaccard, licenses) -> list[FrequentPattern]:
    # A node is a closed itemset and the items still frequent under it, each
    # with the bitset of itemset + item, which gives the closure, the prefix
    # test and the largest c at once; it grows by the items from ``first``
    # on. Rarest first: rare earlier items soon stop being carried down.
    # The search starts from the empty itemset, never emitted. Extending it
    # by the first item every license holds meets no earlier item at full
    # count, so it yields exactly the set of those items, with c the largest
    # count of the others; every other extension takes them into its closure
    # when they come later and fails the prefix test when one comes earlier.
    live = sorted(frequent, key=lambda entry: entry[1].bit_count())
    patterns = []
    stack = [((), 0, live)]
    while stack:
        itemset, first, live = stack.pop()
        for k in range(first, len(live)):
            item, support = live[k]
            size = support.bit_count()
            grown, closure, best = [], [item], 0
            for other, other_support in live[:k]:
                if (count := (both := support & other_support).bit_count()) >= min_support:
                    if count == size:
                        # An earlier item joins, so this set is reached elsewhere.
                        # (It would fail the test below anyway, at c = |s|.)
                        break
                    grown.append((other, both))
                    if count > best:
                        best = count
            else:
                start = len(grown)
                for other, other_support in live[k + 1:]:
                    if (count := (both := support & other_support).bit_count()) >= min_support:
                        if count == size:
                            closure.append(other)
                        else:
                            grown.append((other, both))
                            if count > best:
                                best = count
                closed = itemset + tuple(closure)
                if best / size < jaccard:  # best is 0 or at least min_support
                    patterns.append(FrequentPattern(frozenset(closed), support, licenses))
                if len(grown) > start:
                    stack.append((closed, start, grown))
    return patterns


def dedup_similar(
    patterns: list[FrequentPattern], jaccard_min: float = 0.9
) -> list[FrequentPattern]:
    """Drop each pattern that a similar pattern one item larger contains.

    A pattern P is dropped when the list also holds P plus one item and
    the two supporting sets have Jaccard similarity at or above
    ``jaccard_min`` (inclusive). The rest are returned in input order,
    so every order of one list keeps the same patterns.

    On a whole :func:`mine` result this keeps exactly the patterns that
    no similar larger pattern of the result contains, as a greedy scan
    in :func:`mine`'s order that folds the smaller of two nested similar
    patterns into the larger does: :func:`mine` lists every frequent
    itemset, and a supporting set only shrinks as items are added, so
    for a similar superset Q of P and any x in Q - P, P + {x} is listed
    and is at least as similar to P as Q is. On a ``mine(ds, s, j)``
    result at the same ``j`` it drops nothing: any P + x that list holds
    is frequent, and P passed its own test against every frequent P + x.

    Each itemset is keyed by an ``int`` with one bit per item of the
    list, so P minus one item is one ``^`` and one dict lookup away.

    Raises ``ValueError`` when two patterns have one itemset, or unless
    every pattern has the same ``licenses`` tuple: bitsets over
    different id tuples cannot be compared.
    """
    _check_jaccard(jaccard_min)
    licenses = patterns[0].licenses if patterns else ()
    if any(p.licenses is not licenses and p.licenses != licenses for p in patterns):
        raise ValueError("patterns over different licenses tuples cannot be compared")
    bit_of = {item: 1 << i for i, item in enumerate(set().union(*(p.items for p in patterns)))}
    support_of = {sum(map(bit_of.__getitem__, p.items)): p.support for p in patterns}
    if len(support_of) < len(patterns):
        raise ValueError("patterns repeat an itemset")
    # With no itemset repeated, the keys are in input order, one per pattern.
    folded = set()
    for pattern, (mask, support) in zip(patterns, support_of.items()):
        for item in pattern.items:
            smaller = mask ^ bit_of[item]
            smaller_support = support_of.get(smaller)
            if smaller_support is not None and _jaccard(smaller_support, support) >= jaccard_min:
                folded.add(smaller)
    return [p for p, mask in zip(patterns, support_of) if mask not in folded]


def check_thresholds(min_support: int, jaccard: float | None) -> None:
    """Raise :class:`InvalidThreshold` for the first of ``jaccard``, then
    ``min_support``, that :func:`mine` rejects."""
    if jaccard is not None:
        _check_jaccard(jaccard)
    if min_support < 1:
        raise InvalidThreshold(f"min_support must be >= 1, got {min_support}")


def _check_jaccard(jaccard_min: float) -> None:
    if not 0 < jaccard_min <= 1:
        raise InvalidThreshold(f"jaccard_min must be in (0, 1], got {jaccard_min}")


def _jaccard(a: int, b: int) -> float:
    union = (a | b).bit_count()
    return (a & b).bit_count() / union if union else 1.0


def common_term_report(ds: Dataset) -> dict[Term, dict[Attitude, int]]:
    """Per-term attitude histogram across the dataset (rows sum to its size)."""
    report = {term: dict.fromkeys(Attitude, 0) for term in TERM_ORDER}
    for profile in ds.profiles.values():
        for term in TERM_ORDER:
            report[term][profile.terms[term]] += 1
    return report
