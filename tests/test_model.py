import pytest

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
    validate_profile,
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


def _profile(terms, copyleft=CopyleftClass.NONE, spdx_id="Test-1.0"):
    return LicenseProfile(spdx_id, "Test License", terms, copyleft)


def test_validate_ok_for_well_formed_profile():
    violations = validate_profile(_profile(make_terms(distribute="can", include_license="must")))
    assert violations == ()


def test_validate_rejects_can_obligation():
    terms = make_terms()
    terms[Term.INCLUDE_NOTICE] = Attitude.CAN
    violations = validate_profile(_profile(terms))
    assert violations
    assert any("include-notice" in v and "can" in v for v in violations)


def test_validate_rejects_must_right():
    terms = make_terms()
    terms[Term.DISTRIBUTE] = Attitude.MUST
    violations = validate_profile(_profile(terms))
    assert any("distribute" in v for v in violations)


def test_validate_reports_missing_term_key():
    terms = make_terms()
    del terms[Term.STATICALLY_LINK]
    violations = validate_profile(_profile(terms))
    assert any("statically-link" in v and "not total" in v for v in violations)


def test_validate_rejects_bad_spdx_id():
    assert validate_profile(_profile(make_terms(), spdx_id=""))
    assert validate_profile(_profile(make_terms(), spdx_id="bad id"))
    assert validate_profile(_profile(make_terms(), spdx_id="GPL-3.0+")) == ()


def test_validate_is_idempotent_and_pure():
    terms = make_terms(distribute="can")
    profile = _profile(terms)
    first = validate_profile(profile)
    second = validate_profile(profile)
    assert first == second
    assert profile.terms[Term.DISTRIBUTE] is Attitude.CAN


def test_make_terms_total_and_rejects_unknown():
    terms = make_terms()
    assert len(terms) == 22
    assert all(a is Attitude.NOT_MENTIONED for a in terms.values())
    with pytest.raises(KeyError):
        make_terms(not_a_term="can")
