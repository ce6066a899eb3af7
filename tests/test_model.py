import pytest
from hypothesis import given, settings, strategies as st

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
    selected,
)
from licterm.errors import ValidationError

from conftest import make_terms
from oracles import oracle_profile_violations


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
    # A well-formed profile builds, and its record loads back unchanged.
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
    assert profile.terms == terms
    assert profile.terms[Term.SUBLICENSE] is Attitude.CANNOT
    can = 1 << RIGHT_TERMS.index(Term.DISTRIBUTE) | 1 << RIGHT_TERMS.index(Term.STATICALLY_LINK)
    must = 1 << OBLIGATION_TERMS.index(Term.INCLUDE_LICENSE)
    assert profile.masks == (can, 1 << RIGHT_TERMS.index(Term.SUBLICENSE), must)
    assert profile.masks is profile.masks
    assert LicenseProfile("A", "B", terms, CopyleftClass.NONE, "n").notes == "n"


@pytest.mark.parametrize("terms, fault", [
    (
        {t: a for t, a in make_terms().items() if t is not Term.MODIFY},
        "modify: terms mapping not total (key missing)",
    ),
    (make_terms(distribute="must"), "distribute: right cannot be 'must'"),
    ({**make_terms(), "network-use": Attitude.CAN}, "unknown key 'network-use'"),
    ({**make_terms(), Term.MODIFY: "can"}, "unknown attitude 'can' for modify"),
], ids=["missing-term", "right-must", "foreign-key", "foreign-value"])
def test_profile_rejects_terms_its_masks_cannot_hold(terms, fault):
    # The masks hold one attitude per term, of those its kind allows, so
    # each of these dicts would be silently changed by storing them.
    with pytest.raises(ValidationError) as caught:
        LicenseProfile("X-1.0", "X License", terms, CopyleftClass.NONE)
    assert caught.value.message == f"profile X-1.0: {fault}"


def test_profile_rejection_names_every_offending_key_as_the_loader_does():
    terms = make_terms(distribute="must", include_license="must")
    del terms[Term.MODIFY], terms[Term.RENAME]
    terms[Term.INCLUDE_NOTICE] = Attitude.CAN
    with pytest.raises(ValidationError) as caught:
        LicenseProfile("X 1.0", "X License", terms, CopyleftClass.NONE)
    record = "spdx-id: X 1.0\ncopyleft: none\n" + "".join(
        f"{term.value}: {attitude.value}\n" for term, attitude in terms.items()
    )
    with pytest.raises(ValidationError) as loaded:
        loads_dataset(record)
    assert caught.value.message == loaded.value.message
    assert caught.value.message.startswith("profile X 1.0: spdx_id: 'X 1.0' contains")
    assert "distribute" in caught.value.message and "include-notice" in caught.value.message


@pytest.mark.parametrize("field, value, fault", [
    ("spdx_id", "", "<missing id>: spdx_id: must be non-empty"),
    (
        "spdx_id",
        "My License",
        "My License: spdx_id: 'My License' contains characters outside letters, digits, "
        "'.', '-', '+'",
    ),
    ("copyleft", "weak", "X-1.0: copyleft: 'weak' is not a CopyleftClass"),
    (
        "full_name",
        "X\nspdx-id: B",
        "X-1.0: full_name: 'X\\nspdx-id: B' holds a line break or edge whitespace",
    ),
    ("full_name", " X", "X-1.0: full_name: ' X' holds a line break or edge whitespace"),
    (
        "notes",
        "line1\nline2",
        "X-1.0: notes: 'line1\\nline2' holds a line break or edge whitespace",
    ),
    ("notes", "n\r", "X-1.0: notes: 'n\\r' holds a line break or edge whitespace"),
], ids=[
    "empty-id", "id-with-space", "copyleft-string", "name-with-a-record-line",
    "name-with-a-leading-space", "two-line-notes", "notes-ending-in-cr",
])
def test_profile_rejects_a_field_a_dataset_file_cannot_give_back(field, value, fault):
    # Each of these would build a profile that dumps_profile cannot write, or
    # that loads_dataset rejects or reads back changed.
    args = {
        "spdx_id": "X-1.0", "full_name": "X License", "terms": make_terms(),
        "copyleft": CopyleftClass.NONE, "notes": "", field: value,
    }
    with pytest.raises(ValidationError) as caught:
        LicenseProfile(**args)
    assert caught.value.message == f"profile {fault}"


_HOSTILE = st.text(st.sampled_from("\t\r\n \x85\u2028\ufeff#:xé") | st.characters(), max_size=6)
_GOOD_IDS = st.from_regex(r"[A-Za-z0-9.+-]{1,8}", fullmatch=True)


@st.composite
def _term_dicts(draw, faulty=st.booleans()):
    """A terms dict in any order: each term takes an attitude its kind allows, or, in
    a faulty dict, any attitude or none at all."""
    faulty = draw(faulty)
    terms = {}
    for term in draw(st.permutations(TERM_ORDER)):
        choices = [None, *Attitude] if faulty else sorted(ALLOWED_ATTITUDES[term.kind], key=str)
        attitude = draw(st.sampled_from(choices))
        if attitude is not None:
            terms[term] = attitude
    return terms


@settings(max_examples=300, deadline=None)
@given(
    _GOOD_IDS | _HOSTILE,
    _HOSTILE,
    _term_dicts(),
    st.sampled_from([*CopyleftClass, "weak", None]),
    _HOSTILE,
)
def test_constructor_raises_exactly_the_oracle_violations(
    spdx_id, full_name, terms, copyleft, notes
):
    violations = oracle_profile_violations(spdx_id, full_name, terms, copyleft, notes)
    try:
        LicenseProfile(spdx_id, full_name, terms, copyleft, notes)
    except ValidationError as exc:
        assert exc.message == f"profile {spdx_id or '<missing id>'}: " + "; ".join(violations)
    else:
        assert violations == []


_ONE_LINE = _HOSTILE.map(lambda text: text.replace("\r", "").replace("\n", "").strip())


@settings(max_examples=300, deadline=None)
@given(
    _GOOD_IDS,
    _HOSTILE | _ONE_LINE,
    _term_dicts(faulty=st.just(False)),
    st.sampled_from(CopyleftClass),
    _HOSTILE | _ONE_LINE,
)
def test_every_profile_that_builds_reads_back_equal(spdx_id, full_name, terms, copyleft, notes):
    try:
        profile = LicenseProfile(spdx_id, full_name, terms, copyleft, notes)
    except ValidationError:
        return
    assert loads_dataset(dumps_profile(profile)).profiles == {spdx_id: profile}


def test_selected_reads_set_bits_lowest_first():
    assert list(selected(range(12), 0)) == []
    assert list(selected(range(12), 0b1011_0000_0001)) == [0, 8, 9, 11]
    assert list(selected("abcdefghijkl", 0b1011_0000_0001)) == ["a", "i", "j", "l"]
    assert list(selected(range(200), 1 << 100)) == [100]
    assert list(selected(range(200), 1 << 100 | 2)) == [1, 100]


def test_make_terms_total_and_rejects_unknown():
    terms = make_terms()
    assert len(terms) == 22
    assert all(a is Attitude.NOT_MENTIONED for a in terms.values())
    with pytest.raises(KeyError):
        make_terms(not_a_term="can")
