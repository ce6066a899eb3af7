"""Conflict detection between license profiles and license expressions.

Three directed rules, always evaluated from a parent (the depending
project) toward a dependency (the component it uses):

* C1, rights: the parent permits a right the dependency forbids
  (parent ``can``, dependency ``cannot``). In strict mode a dependency
  silence (``not-mentioned``) also counts, treating unmentioned rights
  as not granted.
* C2, obligations: the parent does not require an obligation the
  dependency requires (parent ``not-mentioned``, dependency ``must``).
* C3, copyleft: a copyleft dependency grants a right the parent fails
  to preserve (dependency ``can`` while the parent attitude is not
  ``can``). Copyleft licenses demand that granted rights survive in
  derivative works, so this is a violation rather than a latent risk.

A must-versus-cannot conflict cannot exist in this model: rights never
take ``must`` and obligations never take ``cannot``.

The rules are evaluated as per-profile bitmasks over the terms in
catalog order (:attr:`licterm.model.LicenseProfile.masks`):
:func:`_rule_masks` gives each profile one mask per rule for the parent
side and one for the dependency side, and a rule fires where the two
intersect. :func:`check_profiles` decodes the intersecting bits into
findings. :func:`check_expressions` reads the rules that fired for two
single licenses off their one pair of intersections, and scores other OR
choices by the popcounts alone, in one flat loop that stops at the first
choice pair with no findings, which no later pair can beat. Its verdict
names the conflict types that fired and decodes the winning choice's
findings only when they are read. :func:`build_matrix` inverts the masks
into term-holder bitsets, one license bitset per rule, side and term,
and unions the holders of a license's term bits to get its conflict
partners.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from ._frozen import Frozen
from .dataset import Dataset
from .errors import ExpressionTooComplex
from .expression import And, LicenseExpression, LicenseRef, Or, render
from .model import (
    Attitude,
    CopyleftClass,
    LicenseProfile,
    OBLIGATION_TERMS,
    RIGHT_TERMS,
    Term,
)


class ConflictType(Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"


class ConflictFinding(NamedTuple):
    """One conflicting term between an ordered pair of licenses."""

    ctype: ConflictType
    term: Term
    parent_id: str
    dep_id: str
    parent_attitude: Attitude
    dep_attitude: Attitude


_ALL_RIGHTS = (1 << len(RIGHT_TERMS)) - 1
_ALL_OBLIGATIONS = (1 << len(OBLIGATION_TERMS)) - 1
_RULE_TERMS = (
    (ConflictType.C1, RIGHT_TERMS),
    (ConflictType.C2, OBLIGATION_TERMS),
    (ConflictType.C3, RIGHT_TERMS),
)


def _rule_masks(
    profile: LicenseProfile, strict_not_mentioned: bool
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The profile's (parent side, dependency side) masks for C1, C2, C3.

    Rule k fires for a parent depending on a dependency exactly when
    ``parent_side[k] & dep_side[k]`` is non-zero, and each set bit is
    one conflicting term of ``_RULE_TERMS[k]``. The rules are stated
    here and nowhere else.
    """
    can, cannot, must = profile.masks
    not_can = _ALL_RIGHTS & ~can
    parent_side = (can, _ALL_OBLIGATIONS & ~must, not_can)
    dep_side = (
        not_can if strict_not_mentioned else cannot,
        must,
        can if profile.copyleft is not CopyleftClass.NONE else 0,
    )
    return parent_side, dep_side


def _bits(mask: int) -> Iterator[int]:
    """The indexes of the set bits of ``mask``, lowest first.

    Clears the lowest bit each step, which suits term masks of 11 bits or
    fewer. On support masks thousands of bits wide, clearing would copy
    the mask once per bit, so ``FrequentPattern.sorted_ids`` reads their
    bits off ``bin()``'s digits in one pass instead.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_profiles(
    parent: LicenseProfile,
    dep: LicenseProfile,
    strict_not_mentioned: bool = False,
) -> list[ConflictFinding]:
    """All C1/C2/C3 findings for parent depending on dep.

    Findings are ordered by conflict type, then term catalog order.
    ``strict_not_mentioned`` extends C1 to rights the dependency never
    mentions; off by default because community opinion is split on
    whether silence denies a right.
    """
    parent_side = _rule_masks(parent, strict_not_mentioned)[0]
    dep_side = _rule_masks(dep, strict_not_mentioned)[1]
    findings: list[ConflictFinding] = []
    for (ctype, terms), p, d in zip(_RULE_TERMS, parent_side, dep_side):
        for bit in _bits(p & d):
            term = terms[bit]
            pa, da = parent.terms[term], dep.terms[term]
            findings.append(ConflictFinding(ctype, term, parent.spdx_id, dep.spdx_id, pa, da))
    return findings


#: Each conflict type's sentence about a finding, filled in by :func:`explain`.
_EXPLANATIONS = {
    ConflictType.C1: "parent {p} permits the right '{t}' ({pa}) "
    "that dependency {d} does not grant ({da})",
    ConflictType.C2: "parent {p} does not require the obligation '{t}' ({pa}) "
    "that dependency {d} requires ({da})",
    ConflictType.C3: "parent {p} fails to preserve the right '{t}' ({pa}) "
    "granted by copyleft dependency {d} ({da})",
}


def explain(finding: ConflictFinding) -> str:
    """Deterministic one-sentence explanation of a finding."""
    ctype, term, p, d, pa, da = finding
    detail = _EXPLANATIONS[ctype].format(p=p, d=d, t=term.value, pa=pa.value, da=da.value)
    return f"{ctype.value} conflict: {detail}."


# ---------------------------------------------------------------------------
# Expression-level checking
# ---------------------------------------------------------------------------


#: Most (parent choice, dependency choice) pairs :func:`check_expressions` scores.
MAX_CHOICE_PAIRS = 4096


#: A leaf of a chosen tree with its dataset profile, ``None`` if it has none.
_Leaf = tuple[LicenseRef, LicenseProfile | None]


class ExpressionVerdict(Frozen):
    """Outcome of checking a parent expression against a dependency expression.

    ``parent_choice`` and ``dep_choice`` are the winning OR choices, one
    branch per OR node for the whole expression; like every tree, each
    prints as its :func:`render` form. Each leaf keeps the profile it had
    when the check ran. ``conflict_types`` lists, in :class:`ConflictType`
    order, the types of the findings. The findings themselves and the
    warnings are built from the chosen leaves on first access. Ids missing
    from the dataset appear in ``unknown_ids`` and add no findings.
    """

    _fields = (
        "conflict_types",
        "parent_choice",
        "dep_choice",
        "parent_leaves",
        "dep_leaves",
        "strict_not_mentioned",
    )

    def __init__(
        self,
        conflict_types: tuple[ConflictType, ...],
        parent_choice: LicenseExpression,
        dep_choice: LicenseExpression,
        parent_leaves: tuple[_Leaf, ...],
        dep_leaves: tuple[_Leaf, ...],
        strict_not_mentioned: bool,
    ):
        vars(self).update(
            conflict_types=conflict_types,
            parent_choice=parent_choice,
            dep_choice=dep_choice,
            parent_leaves=parent_leaves,
            dep_leaves=dep_leaves,
            strict_not_mentioned=strict_not_mentioned,
        )

    @property
    def conflict_free(self) -> bool:
        return not self.conflict_types

    @cached_property
    def findings(self) -> tuple[ConflictFinding, ...]:
        """Every parent leaf checked against every dependency leaf, parent leaves outer."""
        return tuple(
            finding
            for _, p_profile in self.parent_leaves
            if p_profile is not None
            for _, d_profile in self.dep_leaves
            if d_profile is not None
            for finding in check_profiles(p_profile, d_profile, self.strict_not_mentioned)
        )

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        return tuple(
            dict.fromkeys(
                warning
                for parent in self.parent_leaves
                for dep in self.dep_leaves
                for warning in _leaf_warnings(parent, dep)
            )
        )

    @cached_property
    def unknown_ids(self) -> tuple[str, ...]:
        leaves = self.parent_leaves + self.dep_leaves
        return tuple(sorted({ref.id for ref, profile in leaves if profile is None}))


def _leaf_warnings(parent: _Leaf, dep: _Leaf) -> Iterator[str]:
    (p_ref, p_profile), (d_ref, d_profile) = parent, dep
    for ref in (p_ref, d_ref):
        if ref.exception:
            yield (
                f"exception {ref.exception} on {ref.id} is not modeled; "
                "checked against the base license"
            )
    for ref, profile in (parent, dep):
        if profile is None:
            yield f"unknown license {ref.id}: treated as conflict-free"
    if p_profile is not None and d_profile is not None:
        if CopyleftClass.NONE not in (p_profile.copyleft, d_profile.copyleft):
            yield (
                f"both {p_ref.id} and {d_ref.id} are copyleft; same-license "
                "propagation between copyleft licenses is not assessed"
            )


def _choices(
    expr: LicenseExpression, limit: int
) -> list[tuple[LicenseExpression, tuple[LicenseRef, ...]]]:
    """Every way to pick one branch per OR: (chosen tree, its leaves in order)."""
    if isinstance(expr, LicenseRef):
        return [(expr, (expr,))]
    left, right = _choices(expr.left, limit), _choices(expr.right, limit)
    count = len(left) + len(right) if isinstance(expr, Or) else len(left) * len(right)
    if count > limit:
        raise ExpressionTooComplex(
            f"too many OR choices to check: {render(expr)!r} has {count}, the limit is {limit}"
        )
    if isinstance(expr, Or):
        return left + right
    return [(And(lt, rt), ll + rl) for lt, ll in left for rt, rl in right]


#: The conflict types that fired, indexed by bit k set when rule k fired.
_FIRED = tuple(
    tuple(ctype for k, (ctype, _) in enumerate(_RULE_TERMS) if fired >> k & 1)
    for fired in range(8)
)


def _best_pair(
    p_rows: list[list[tuple[int, int, int]]], d_rows: list[list[tuple[int, int, int]]]
) -> tuple[int, int, int]:
    """(rules fired, parent index, dependency index) of the first pair with the fewest findings.

    Bit k of the first is set when rule k fired. Only a strictly smaller
    total replaces the best, and a pair with no findings ends the walk.
    """
    best = (0, 0, 0)
    best_total = -1
    for i, p_row in enumerate(p_rows):
        for j, d_row in enumerate(d_rows):
            c1 = c2 = c3 = 0
            for p1, p2, p3 in p_row:
                for d1, d2, d3 in d_row:
                    c1 += (p1 & d1).bit_count()
                    c2 += (p2 & d2).bit_count()
                    c3 += (p3 & d3).bit_count()
            total = c1 + c2 + c3
            if not total:
                return 0, i, j
            if best_total < 0 or total < best_total:
                best = ((c1 > 0) | (c2 > 0) << 1 | (c3 > 0) << 2, i, j)
                best_total = total
    return best


def check_expressions(
    parent: LicenseExpression,
    dep: LicenseExpression,
    ds: Dataset,
    strict_not_mentioned: bool = False,
) -> ExpressionVerdict:
    """Lift profile checking to expressions.

    OR means the licensee picks one branch for the whole expression, so
    each side is expanded into its OR choices and each (parent choice,
    dependency choice) pair is scored: the number of findings of every
    parent leaf against every dependency leaf. A leaf pair's count per
    rule is the popcount of its :func:`_rule_masks` intersection (0 when
    either id has no profile), which is exactly the number of findings
    :func:`check_profiles` would return, so scoring builds no finding.
    Each distinct leaf id's masks are derived once per call, except that
    two single licenses, one choice pair, take one call per side. The pair
    with the fewest findings wins; ties go to the first parent choice,
    then the first dependency choice, with left branches first, so the
    first pair with no findings ends the scoring. More than
    :data:`MAX_CHOICE_PAIRS` pairs raise :class:`ExpressionTooComplex`
    before they are built.
    """
    profiles = ds.profiles
    if type(parent) is LicenseRef and type(dep) is LicenseRef:
        p_profile, d_profile = profiles.get(parent.id), profiles.get(dep.id)
        fired = 0
        if p_profile is not None and d_profile is not None:
            p1, p2, p3 = _rule_masks(p_profile, strict_not_mentioned)[0]
            d1, d2, d3 = _rule_masks(d_profile, strict_not_mentioned)[1]
            fired = (p1 & d1 != 0) | (p2 & d2 != 0) << 1 | (p3 & d3 != 0) << 2
        leaves = ((parent, p_profile),), ((dep, d_profile),)
        return ExpressionVerdict(_FIRED[fired], parent, dep, *leaves, strict_not_mentioned)
    p_choices = _choices(parent, MAX_CHOICE_PAIRS)
    d_choices = _choices(dep, MAX_CHOICE_PAIRS // len(p_choices))
    sides_of: dict[str, tuple[tuple[int, int, int], tuple[int, int, int]] | None] = {}
    rows: tuple[list, list] = ([], [])  # per side, per choice: its profiled leaves' masks
    for side, choices in enumerate((p_choices, d_choices)):
        for _, leaves in choices:
            row = []
            for ref in leaves:
                if ref.id not in sides_of:
                    profile = profiles.get(ref.id)
                    sides_of[ref.id] = (
                        None if profile is None else _rule_masks(profile, strict_not_mentioned)
                    )
                sides = sides_of[ref.id]
                if sides is not None:
                    row.append(sides[side])
            rows[side].append(row)
    fired, i, j = _best_pair(*rows)
    p_tree, p_leaves = p_choices[i]
    d_tree, d_leaves = d_choices[j]
    return ExpressionVerdict(
        conflict_types=_FIRED[fired],
        parent_choice=p_tree,
        dep_choice=d_tree,
        parent_leaves=tuple([(ref, profiles.get(ref.id)) for ref in p_leaves]),
        dep_leaves=tuple([(ref, profiles.get(ref.id)) for ref in d_leaves]),
        strict_not_mentioned=strict_not_mentioned,
    )


# ---------------------------------------------------------------------------
# All-pairs conflict matrix
# ---------------------------------------------------------------------------


class ConflictMatrix(NamedTuple):
    """Ordered-pair conflict counts plus per-license conflict degrees.

    ``pairs[ConflictType.C1]`` counts ordered (parent, dep) pairs with at
    least one C1 finding, and likewise for the other types; a pair is
    counted once per type no matter how many terms conflict. A license's
    degree for a type is the number of distinct other licenses it
    conflicts with in either direction.
    """

    pairs: dict[ConflictType, int]
    degrees: dict[str, tuple[int, int, int]]


def build_matrix(ds: Dataset, strict_not_mentioned: bool = False) -> ConflictMatrix:
    """Evaluate the rules over every ordered pair of distinct licenses.

    Rule k fires for (parent i, dependency j) exactly when i's parent-side
    mask and j's dependency-side mask share a term bit. So per rule and
    side, each term bit maps to the bitset of licenses holding it, and a
    license's partners are the union of the opposite side's holders over
    its own bits. The work per rule is n times the bits set in a mask,
    not n squared.
    """
    ids = list(ds.profiles)
    sides = [_rule_masks(ds.profiles[i], strict_not_mentioned) for i in ids]
    pairs: dict[ConflictType, int] = {}
    degrees: list[list[int]] = [[] for _ in ids]
    for k, (ctype, terms) in enumerate(_RULE_TERMS):
        masks = [(parent_side[k], dep_side[k]) for parent_side, dep_side in sides]
        parent_holders, dep_holders = [0] * len(terms), [0] * len(terms)
        for i, (p, d) in enumerate(masks):
            for bit in _bits(p):
                parent_holders[bit] |= 1 << i
            for bit in _bits(d):
                dep_holders[bit] |= 1 << i
        count = 0
        for i, (p, d) in enumerate(masks):
            deps = parents = 0
            for bit in _bits(p):
                deps |= dep_holders[bit]
            for bit in _bits(d):
                parents |= parent_holders[bit]
            deps &= ~(1 << i)
            parents &= ~(1 << i)
            count += deps.bit_count()
            degrees[i].append((deps | parents).bit_count())
        pairs[ctype] = count
    return ConflictMatrix(pairs, degrees={spdx_id: tuple(d) for spdx_id, d in zip(ids, degrees)})
