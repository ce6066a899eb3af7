import pytest

from licterm.dataset import dumps_profile, loads_dataset
from licterm.model import (
    ALLOWED_ATTITUDES,
    Attitude,
    CopyleftClass,
    LicenseProfile,
    OBLIGATION_TERMS,
    RIGHT_TERMS,
    TERM_ORDER,
    Term,
    TermKind,
)

from conftest import make_terms


def test_exactly_22_terms_partitioned_11_11():
    assert len(TERM_ORDER) == 22
    assert len(RIGHT_TERMS) == 11
    assert len(OBLIGATION_TERMS) == 11
    assert set(RIGHT_TERMS) | set(OBLIGATION_TERMS) == set(Term)


def test_expected_right_and_obligation_ids():
    assert [t.value for t in RIGHT_TERMS] == [
        "distribute",
        "modify",
        "commercial-use",
        "private-use",
        "hold-liable",
        "place-warranty",
        "use-trademark",
        "use-patent-claims",
        "sublicense",
        "relicense",
        "statically-link",
    ]
    assert [t.value for t in OBLIGATION_TERMS] == [
        "include-copyright",
        "include-license",
        "include-notice",
        "include-original",
        "include-install-instructions",
        "disclose-source",
        "state-changes",
        "give-credit",
        "rename",
        "contact-author",
        "compensate-for-damages",
    ]


def test_excluded_platform_terms_not_representable():
    values = {t.value for t in Term}
    for excluded in ("pay-above-use-threshold", "same-license", "network-use-is-distribution"):
        assert excluded not in values


def test_catalog_has_22_entries_rights_first():
    assert len(TERM_ORDER) == 22
    assert [term.kind for term in TERM_ORDER[:11]] == [TermKind.RIGHT] * 11
    assert [term.kind for term in TERM_ORDER[11:]] == [TermKind.OBLIGATION] * 11
    assert all(term.definition for term in TERM_ORDER)
    assert Term.SUBLICENSE.kind is TermKind.RIGHT


def test_hold_liable_and_place_warranty_are_distinct_rights():
    assert Term.HOLD_LIABLE.kind is TermKind.RIGHT
    assert Term.PLACE_WARRANTY.kind is TermKind.RIGHT
    assert Term.HOLD_LIABLE is not Term.PLACE_WARRANTY


def test_contact_author_is_an_obligation():
    assert Term.CONTACT_AUTHOR.kind is TermKind.OBLIGATION


def test_allowed_attitudes_per_kind():
    assert Attitude.MUST not in ALLOWED_ATTITUDES[TermKind.RIGHT]
    assert Attitude.CAN not in ALLOWED_ATTITUDES[TermKind.OBLIGATION]
    assert Attitude.CANNOT not in ALLOWED_ATTITUDES[TermKind.OBLIGATION]
    assert Attitude.NOT_MENTIONED in ALLOWED_ATTITUDES[TermKind.RIGHT]
    assert Attitude.NOT_MENTIONED in ALLOWED_ATTITUDES[TermKind.OBLIGATION]


def test_validate_ok_for_well_formed_profile():
    # The profile rules are checked where a record is read: a well-formed
    # profile's record loads back unchanged, with no violation raised.
    terms = make_terms(distribute="can", include_license="must")
    profile = LicenseProfile("Test-1.0", "Test License", terms, CopyleftClass.NONE)
    ds = loads_dataset(dumps_profile(profile))
    assert list(ds.profiles) == ["Test-1.0"]
    assert ds.profiles["Test-1.0"].terms == terms
    assert ds.profiles["Test-1.0"].copyleft is CopyleftClass.NONE


def test_profile_built_positionally_reads_back_terms_and_masks():
    # The benchmark's gate builds profiles this way and reads .terms; the
    # oracles read .terms[term] and the conflict rules read .masks.
    terms = make_terms(
        distribute="can", sublicense="cannot", statically_link="can", include_license="must"
    )
    profile = LicenseProfile("Test-1.0", "Test License", terms, CopyleftClass.WEAK)
    assert (profile.spdx_id, profile.full_name, profile.notes) == ("Test-1.0", "Test License", "")
    assert profile.copyleft is CopyleftClass.WEAK
    assert profile.terms is terms
    assert profile.terms[Term.SUBLICENSE] is Attitude.CANNOT
    can = 1 << RIGHT_TERMS.index(Term.DISTRIBUTE) | 1 << RIGHT_TERMS.index(Term.STATICALLY_LINK)
    must = 1 << OBLIGATION_TERMS.index(Term.INCLUDE_LICENSE)
    assert profile.masks == (can, 1 << RIGHT_TERMS.index(Term.SUBLICENSE), must)
    assert profile.masks is profile.masks
    assert LicenseProfile("A", "B", terms, CopyleftClass.NONE, "n").notes == "n"


def test_make_terms_total_and_rejects_unknown():
    terms = make_terms()
    assert len(terms) == 22
    assert all(a is Attitude.NOT_MENTIONED for a in terms.values())
    with pytest.raises(KeyError):
        make_terms(not_a_term="can")
