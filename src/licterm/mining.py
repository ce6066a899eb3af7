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
``int.bit_count()``; the ids themselves are only spelled out for the
patterns someone reads.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress

from ._frozen import Frozen
from .dataset import Dataset
from .model import Attitude, LicenseProfile, TERM_ORDER, Term


class InvalidThreshold(ValueError):
    pass


_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to compress() selectors


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
        """The supporting ids in sorted order: ``licenses`` is sorted, so bit order.

        The reversed binary digits of ``support``, as bytes 0 and 1, are the
        selectors of one ``compress`` over ``licenses``, so the bits are read
        in C, not one Python step per supporting license.
        """
        return compress(self.licenses, bin(self.support)[:1:-1].encode().translate(_SELECTORS))


def profile_items(profile: LicenseProfile) -> frozenset[str]:
    return frozenset(
        f"{term._value_}={attitude._value_}"  # ``_value_`` skips Enum's ``value`` property
        for term, attitude in profile.terms.items()
        if attitude is not Attitude.NOT_MENTIONED
    )


def mine(ds: Dataset, min_support: int) -> list[FrequentPattern]:
    """Every itemset supported by at least ``min_support`` licenses.

    Output is sorted by descending support, ascending itemset size,
    then item spelling, and is independent of profile order. The search
    runs depth-first over supporting sets, Eclat's vertical layout
    (Zaki, IEEE TKDE 2000) with each set an ``int`` bitset over the
    sorted license ids: each itemset is extended by one later item at a
    time and kept while the ``&`` of its bitsets still has
    ``min_support`` bits set, so every supporting set is exact by
    construction. Every returned pattern shares one ``licenses`` tuple.
    """
    if min_support < 1:
        raise InvalidThreshold(f"min_support must be >= 1, got {min_support}")
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
    patterns.sort(
        key=lambda p: (-p.support_count, len(p.items), p.sorted_items())
    )
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
    and is at least as similar to P as Q is.

    Each itemset is keyed by an ``int`` with one bit per item of the
    list, so P minus one item is one ``^`` and one dict lookup away.

    Raises ``ValueError`` when two patterns have one itemset, or unless
    every pattern has the same ``licenses`` tuple: bitsets over
    different id tuples cannot be compared.
    """
    if not 0 < jaccard_min <= 1:
        raise InvalidThreshold(f"jaccard_min must be in (0, 1], got {jaccard_min}")
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


def _jaccard(a: int, b: int) -> float:
    union = (a | b).bit_count()
    return (a & b).bit_count() / union if union else 1.0


def common_term_report(ds: Dataset) -> dict[Term, dict[Attitude, int]]:
    """Per-term attitude histogram across the dataset (rows sum to its size)."""
    report = {
        term: {attitude: 0 for attitude in Attitude} for term in TERM_ORDER
    }
    for profile in ds.profiles.values():
        for term in TERM_ORDER:
            report[term][profile.terms[term]] += 1
    return report
