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

from enum import Enum
from functools import cached_property

from ._frozen import Frozen


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


class LicenseProfile(Frozen):
    """One license's attitude over all 22 terms plus its copyleft class.

    The ``terms`` mapping is expected to be total: a term the license
    text never addresses is stored explicitly as ``NOT_MENTIONED``, not
    omitted. Construction does not enforce this or the kind rules of
    :data:`ALLOWED_ATTITUDES`; :func:`licterm.dataset.loads_dataset`
    checks both as it reads each record, and builds the profile from its
    ``masks`` alone. A profile derives the form it was not built from on
    first read.
    """

    _fields = ("spdx_id", "full_name", "terms", "copyleft", "notes")

    def __init__(
        self,
        spdx_id: str,
        full_name: str,
        terms: dict[Term, Attitude],
        copyleft: CopyleftClass,
        notes: str = "",
    ):
        vars(self).update(
            spdx_id=spdx_id, full_name=full_name, terms=terms, copyleft=copyleft, notes=notes
        )

    @classmethod
    def _from_masks(cls, spdx_id, full_name, masks, copyleft, notes) -> LicenseProfile:
        profile = cls.__new__(cls)
        vars(profile).update(
            spdx_id=spdx_id, full_name=full_name, masks=masks, copyleft=copyleft, notes=notes
        )
        return profile

    @cached_property
    def masks(self) -> tuple[int, int, int]:
        """The ``(can, cannot, must)`` bitmasks, laid out as :data:`MASK_SLOTS` says.

        A term whose bit is clear in all of its masks counts as not mentioned.
        """
        terms = self.terms
        return tuple(
            sum(1 << i for i, term in enumerate(slot) if terms[term] is attitude)
            for slot, attitude in MASK_SLOTS
        )

    @cached_property
    def terms(self) -> dict[Term, Attitude]:
        """The total term mapping of a profile built from its masks, in catalog order."""
        terms = dict.fromkeys(TERM_ORDER, Attitude.NOT_MENTIONED)
        for (slot, attitude), mask in zip(MASK_SLOTS, self.masks):
            terms.update((term, attitude) for i, term in enumerate(slot) if mask >> i & 1)
        return terms
