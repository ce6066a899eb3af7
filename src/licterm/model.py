"""Core domain model: license terms, attitudes, and per-license profiles.

A license is described by its stance on a fixed set of 22 terms, split
into 11 rights (things a licensee may or may not do) and 11 obligations
(things a licensee must do). Rights take the attitudes ``can`` /
``cannot`` / ``not-mentioned``; obligations take ``must`` /
``not-mentioned`` only, since a "forbidden obligation" would really be
a forbidden right. Each license additionally carries a copyleft class
(none / weak / strong) that drives the copyleft conflict rule.

Three term-like concepts are deliberately not representable here:
pay-above-use-threshold, same-license, and network-use-is-distribution.
The first does not occur in SPDX licenses, the second is the copyleft
property itself (modeled as :class:`CopyleftClass`), and the third is
subsumed by distribution.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property
from itertools import compress

from ._frozen import Frozen
from .errors import ValidationError


class TermKind(Enum):
    RIGHT = "right"
    OBLIGATION = "obligation"


class Term(Enum):
    """The 22 license terms, rights first, in stable catalog order."""

    # Rights
    DISTRIBUTE = "distribute"
    MODIFY = "modify"
    COMMERCIAL_USE = "commercial-use"
    PRIVATE_USE = "private-use"
    HOLD_LIABLE = "hold-liable"
    PLACE_WARRANTY = "place-warranty"
    USE_TRADEMARK = "use-trademark"
    USE_PATENT_CLAIMS = "use-patent-claims"
    SUBLICENSE = "sublicense"
    RELICENSE = "relicense"
    STATICALLY_LINK = "statically-link"
    # Obligations
    INCLUDE_COPYRIGHT = "include-copyright"
    INCLUDE_LICENSE = "include-license"
    INCLUDE_NOTICE = "include-notice"
    INCLUDE_ORIGINAL = "include-original"
    INCLUDE_INSTALL_INSTRUCTIONS = "include-install-instructions"
    DISCLOSE_SOURCE = "disclose-source"
    STATE_CHANGES = "state-changes"
    GIVE_CREDIT = "give-credit"
    RENAME = "rename"
    CONTACT_AUTHOR = "contact-author"
    COMPENSATE_FOR_DAMAGES = "compensate-for-damages"

    @property
    def kind(self) -> TermKind:
        return TermKind.RIGHT if self in RIGHT_TERMS else TermKind.OBLIGATION

    @property
    def definition(self) -> str:
        return _TERM_DEFINITIONS[self]


#: All 22 terms in catalog order (rights first, then obligations).
TERM_ORDER: tuple[Term, ...] = tuple(Term)

RIGHT_TERMS: tuple[Term, ...] = TERM_ORDER[:11]
OBLIGATION_TERMS: tuple[Term, ...] = TERM_ORDER[11:]


class Attitude(Enum):
    """A license's stance on one term."""

    CAN = "can"
    CANNOT = "cannot"
    MUST = "must"
    NOT_MENTIONED = "not-mentioned"


#: Attitudes a term of each kind is allowed to take.
ALLOWED_ATTITUDES: dict[TermKind, frozenset[Attitude]] = {
    TermKind.RIGHT: frozenset({Attitude.CAN, Attitude.CANNOT, Attitude.NOT_MENTIONED}),
    TermKind.OBLIGATION: frozenset({Attitude.MUST, Attitude.NOT_MENTIONED}),
}


#: Each of a profile's ``(can, cannot, must)`` masks: bit ``i`` is set when
#: the mask's ``terms[i]`` takes its ``attitude``.
MASK_SLOTS: tuple[tuple[tuple[Term, ...], Attitude], ...] = (
    (RIGHT_TERMS, Attitude.CAN), (RIGHT_TERMS, Attitude.CANNOT), (OBLIGATION_TERMS, Attitude.MUST)
)


_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to compress() selectors


def selected(items, mask: int):
    """The ``items[i]`` whose bit ``i`` is set in ``mask``, lowest bit first, as an iterator.

    One ``compress`` reads the bits in C: its selectors are ``mask``'s binary digits, reversed.
    """
    return compress(items, bin(mask)[:1:-1].encode().translate(_SELECTORS))


class CopyleftClass(Enum):
    """Copyleft reach: none (permissive), weak (file/module), strong (whole work)."""

    NONE = "none"
    WEAK = "weak"
    STRONG = "strong"


_TERM_DEFINITIONS: dict[Term, str] = {
    Term.DISTRIBUTE: "Distribute copies of the original or derivative works to others.",
    Term.MODIFY: "Create derivative works by changing the licensed material.",
    Term.COMMERCIAL_USE: "Use the licensed material for commercial purposes.",
    Term.PRIVATE_USE: "Use and modify the licensed material privately, without distributing it.",
    Term.HOLD_LIABLE: "Hold the licensor liable for damages arising from the licensed material.",
    Term.PLACE_WARRANTY: "Offer a warranty, possibly for a fee, when redistributing the material.",
    Term.USE_TRADEMARK: "Use the licensor's trademarks, trade names, or logos.",
    Term.USE_PATENT_CLAIMS: "Practice the licensor's patent claims that read on the licensed material.",
    Term.SUBLICENSE: "Grant the received rights onward to third parties under terms of one's choosing.",
    Term.RELICENSE: "Distribute the material or derivatives under a different license.",
    Term.STATICALLY_LINK: "Link the licensed material statically into other software.",
    Term.INCLUDE_COPYRIGHT: "Retain the original copyright notice in all copies.",
    Term.INCLUDE_LICENSE: "Include the full license text with all copies.",
    Term.INCLUDE_NOTICE: "Preserve attribution notice files or statements shipped with the material.",
    Term.INCLUDE_ORIGINAL: "Ship or reference the original, unmodified source alongside derivatives.",
    Term.INCLUDE_INSTALL_INSTRUCTIONS: "Provide the information needed to install modified versions.",
    Term.DISCLOSE_SOURCE: "Make source code available when distributing the material.",
    Term.STATE_CHANGES: "Mark modified files or versions as changed, documenting the changes.",
    Term.GIVE_CREDIT: "Credit the original authors when using or distributing the material.",
    Term.RENAME: "Give modified versions a name or version distinct from the original.",
    Term.CONTACT_AUTHOR: "Obtain permission from or notify the author for certain uses.",
    Term.COMPENSATE_FOR_DAMAGES: "Indemnify the licensor for damages caused by one's own distribution.",
}


_W = len(RIGHT_TERMS)  # as many as OBLIGATION_TERMS
_SHIFT = {attitude: k * _W for k, (_, attitude) in enumerate(MASK_SLOTS)}
#: Each term's key -> (term, its read bit, {spelling: bits}) over the attitudes its kind allows.
#: A profile packs its terms into one int: the MASK_SLOTS masks, _W bits each, then the read bits.
TERM_BITS = {
    t.value: (t, 1 << 3 * _W + n, {
        a.value: 1 << 3 * _W + n | (1 << _SHIFT[a] + n % _W if a in _SHIFT else 0)
        for a in ALLOWED_ATTITUDES[t.kind]
    })
    for n, t in enumerate(TERM_ORDER)
}
_SPDX_ID_RE = re.compile(r"[A-Za-z0-9.+-]+")


class LicenseProfile(Frozen):
    """One license's attitude over all 22 terms plus its copyleft class.

    Every profile holds its ``(can, cannot, must)`` masks, laid out as
    :data:`MASK_SLOTS` says (a term with no bit set is not mentioned), and
    derives ``terms``, the total mapping in catalog order, on first read.
    The constructor packs ``terms`` through :data:`TERM_BITS` and builds
    through :func:`packed_profile`, as the dataset loader does, so every
    profile passes the same checks; a key not a Term or a value not an
    Attitude raises :class:`~licterm.errors.ValidationError` at once.
    """

    _fields = ("spdx_id", "full_name", "terms", "copyleft", "notes")

    def __new__(
        cls,
        spdx_id: str,
        full_name: str,
        terms: dict[Term, Attitude],
        copyleft: CopyleftClass,
        notes: str = "",
    ) -> LicenseProfile:
        packed, wrong_kind = 0, []
        for term, attitude in terms.items():
            if not isinstance(term, Term):
                fault = f"unknown key {term!r}"
            elif not isinstance(attitude, Attitude):
                fault = f"unknown attitude {attitude!r} for {term.value}"
            else:
                _, read, allowed = TERM_BITS[term.value]
                bits = allowed.get(attitude.value)
                if bits is None:
                    wrong_kind.append((term, attitude.value))
                    bits = read
                packed |= bits
                continue
            raise ValidationError(f"profile {spdx_id or '<missing id>'}: {fault}")
        return packed_profile(spdx_id, full_name, packed, wrong_kind, copyleft, notes)

    @cached_property
    def terms(self) -> dict[Term, Attitude]:
        """The total term mapping, in catalog order."""
        terms = dict.fromkeys(TERM_ORDER, Attitude.NOT_MENTIONED)
        for (slot, attitude), mask in zip(MASK_SLOTS, self.masks):
            terms.update(dict.fromkeys(selected(slot, mask), attitude))
        return terms


def packed_profile(
    spdx_id: str, full_name: str, packed: int, wrong_kind: list, copyleft: CopyleftClass, notes: str
) -> LicenseProfile:
    """The profile of ``packed``, one :data:`TERM_BITS` entry per term given, or its faults.

    ``wrong_kind`` lists each ``(term, spelling)`` its kind does not allow, in order; ``packed``
    holds only its read bit. One :class:`~licterm.errors.ValidationError` names every fault: the
    id, each term not given, each of the wrong kind, a copyleft not a :class:`CopyleftClass`, and
    a full name or notes with a CR, an LF or edge whitespace, which a dataset file cannot give back.
    """
    faults = []
    if not spdx_id:
        faults.append("spdx_id: must be non-empty")
    elif not _SPDX_ID_RE.fullmatch(spdx_id):
        faults.append(
            f"spdx_id: {spdx_id!r} contains characters outside letters, digits, '.', '-', '+'"
        )
    unread = (packed >> 3 * _W) ^ ((1 << len(TERM_ORDER)) - 1)
    if unread:
        faults.extend(
            f"{t.value}: terms mapping not total (key missing)" for t in selected(TERM_ORDER, unread)
        )
    if wrong_kind:
        faults.extend(f"{t.value}: {t.kind.value} cannot be {value!r}" for t, value in wrong_kind)
    if not isinstance(copyleft, CopyleftClass):
        faults.append(f"copyleft: {copyleft!r} is not a CopyleftClass")
    for name, text in (("full_name", full_name), ("notes", notes)):
        if "\r" in text or "\n" in text or text != text.strip():
            faults.append(f"{name}: {text!r} holds a line break or edge whitespace")
    if faults:
        raise ValidationError(f"profile {spdx_id or '<missing id>'}: " + "; ".join(faults))
    width = (1 << _W) - 1
    masks = (packed & width, packed >> _W & width, packed >> 2 * _W & width)
    profile = object.__new__(LicenseProfile)
    vars(profile).update(
        spdx_id=spdx_id, full_name=full_name, masks=masks, copyleft=copyleft, notes=notes
    )
    return profile
