import pytest

from licterm.dataset import (
    AliasTable,
    bundled_aliases,
    bundled_known_ids,
    dumps_dataset,
    known_licenses,
    load_dataset,
    loads_aliases,
    loads_dataset,
)
from licterm.errors import FormatError, ValidationError
from licterm.model import Attitude, CopyleftClass, Term

MINIMAL_RECORD = """\
spdx-id: Test-1.0
full-name: Test License 1.0
copyleft: none
distribute: can
modify: can
commercial-use: can
private-use: can
hold-liable: cannot
place-warranty: cannot
use-trademark: not-mentioned
use-patent-claims: not-mentioned
sublicense: not-mentioned
relicense: not-mentioned
statically-link: not-mentioned
include-copyright: must
include-license: must
include-notice: not-mentioned
include-original: not-mentioned
include-install-instructions: not-mentioned
disclose-source: not-mentioned
state-changes: not-mentioned
give-credit: not-mentioned
rename: not-mentioned
contact-author: not-mentioned
compensate-for-damages: not-mentioned
"""


class TestFileFormat:
    def test_empty_file_is_a_valid_empty_dataset(self):
        ds = loads_dataset("")
        assert len(ds) == 0

    def test_single_record(self):
        ds = loads_dataset(MINIMAL_RECORD)
        assert len(ds) == 1
        profile = ds.profiles["Test-1.0"]
        assert profile.terms[Term.DISTRIBUTE] is Attitude.CAN
        assert profile.copyleft is CopyleftClass.NONE

    def test_wrong_kind_attitude_is_validation_error(self):
        bad = MINIMAL_RECORD.replace("distribute: can", "distribute: must")
        with pytest.raises(ValidationError) as exc:
            loads_dataset(bad)
        assert "Test-1.0" in str(exc.value)
        assert "distribute" in str(exc.value)

    def test_unknown_attitude_word_is_format_error(self):
        bad = MINIMAL_RECORD.replace("distribute: can", "distribute: maybe")
        with pytest.raises(FormatError) as exc:
            loads_dataset(bad, source="test.dat")
        assert "test.dat:4" in str(exc.value)

    def test_unknown_key_is_format_error(self):
        bad = MINIMAL_RECORD + "same-license: must\n"
        with pytest.raises(FormatError):
            loads_dataset(bad)

    def test_duplicate_key_is_format_error(self):
        bad = MINIMAL_RECORD + "distribute: can\n"
        with pytest.raises(FormatError):
            loads_dataset(bad)

    def test_missing_term_key_is_validation_error(self):
        bad = MINIMAL_RECORD.replace("statically-link: not-mentioned\n", "")
        with pytest.raises(ValidationError) as exc:
            loads_dataset(bad)
        assert "statically-link" in str(exc.value)

    def test_missing_colon_is_format_error(self):
        with pytest.raises(FormatError):
            loads_dataset("spdx-id MIT\n")

    def test_duplicate_spdx_id_is_validation_error(self):
        with pytest.raises(ValidationError):
            loads_dataset(MINIMAL_RECORD + "\n" + MINIMAL_RECORD)

    def test_validation_errors_name_the_record_line(self):
        bad = MINIMAL_RECORD.replace("distribute: can", "distribute: must")
        with pytest.raises(ValidationError) as exc:
            loads_dataset("dataset-version: 7\n\n" + bad, source="test.dat")
        assert str(exc.value).startswith("test.dat:3: profile Test-1.0: ")
        second = MINIMAL_RECORD.count("\n") + 2  # past the blank separator line
        with pytest.raises(ValidationError) as exc:
            loads_dataset(MINIMAL_RECORD + "\n" + MINIMAL_RECORD, source="test.dat")
        assert str(exc.value) == f"test.dat:{second}: duplicate spdx-id 'Test-1.0'"
        assert (exc.value.source, exc.value.line) == ("test.dat", second)

    @pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
    def test_only_cr_and_lf_end_a_line(self, eol):
        # str.splitlines() would also break at U+2028, U+0085, form feed and others.
        notes = "a\u2028b\x85c\x0cd\x1ee"
        text = (MINIMAL_RECORD + f"notes: {notes}\n").replace("\n", eol)
        ds = loads_dataset(text)
        assert ds.profiles["Test-1.0"].notes == notes
        assert loads_dataset(dumps_dataset(ds)) == ds

    def test_metadata_block(self):
        text = "dataset-version: 7\nprovenance: somewhere\n\n" + MINIMAL_RECORD
        ds = loads_dataset(text)
        assert ds.version == "7"
        assert ds.provenance == "somewhere"
        assert len(ds) == 1

    def test_comments_and_extra_blank_lines_tolerated(self):
        text = "# comment\n\n\n" + MINIMAL_RECORD + "\n\n"
        assert len(loads_dataset(text)) == 1

    def test_round_trip_preserves_content(self):
        ds = loads_dataset(MINIMAL_RECORD)
        again = loads_dataset(dumps_dataset(ds))
        assert again.profiles == ds.profiles

    def test_canonical_round_trip_is_byte_identical(self):
        ds = loads_dataset(MINIMAL_RECORD)
        canonical = dumps_dataset(ds)
        assert dumps_dataset(loads_dataset(canonical)) == canonical


class TestLookup:
    def test_exact_match(self, seed_dataset):
        profile = seed_dataset.profiles.get("MIT")
        assert profile is not None
        assert profile.terms[Term.SUBLICENSE] is Attitude.CAN

    def test_case_sensitive(self, seed_dataset):
        assert seed_dataset.profiles.get("mit") is None

    def test_empty_id(self, seed_dataset):
        assert seed_dataset.profiles.get("") is None


class TestSeedDataset:
    def test_seed_has_25_profiles(self, seed_dataset):
        assert len(seed_dataset) == 25

    def test_every_named_license_present(self, seed_dataset):
        expected = {
            "MIT", "ISC", "Apache-2.0", "BSD-2-Clause", "BSD-3-Clause",
            "CC0-1.0", "CC-BY-3.0", "CC-BY-4.0", "CC-BY-NC-3.0", "CC-BY-ND-4.0",
            "GPL-2.0-only", "GPL-2.0-or-later", "GPL-3.0-only", "GPL-3.0-or-later",
            "LGPL-3.0-only", "AGPL-3.0-only", "MPL-2.0", "EPL-1.0",
            "Unlicense", "WTFPL", "Artistic-2.0", "CECILL-B", "AAL", "Zlib", "0BSD",
        }
        assert set(seed_dataset.profiles) == expected

    def test_seed_byte_identical_round_trip(self):
        import importlib.resources

        raw = (
            importlib.resources.files("licterm")
            .joinpath("data", "licenses.dat")
            .read_text("utf-8")
        )
        assert dumps_dataset(loads_dataset(raw)) == raw

    # Anchor facts the rest of the suite leans on.

    def test_mit_anchor_attitudes(self, seed_dataset):
        mit = seed_dataset.profiles["MIT"]
        assert mit.terms[Term.SUBLICENSE] is Attitude.CAN
        assert mit.terms[Term.INCLUDE_NOTICE] is Attitude.NOT_MENTIONED
        assert mit.terms[Term.STATE_CHANGES] is Attitude.NOT_MENTIONED

    def test_cc_licenses_forbid_sublicense(self, seed_dataset):
        assert seed_dataset.profiles["CC-BY-4.0"].terms[Term.SUBLICENSE] is Attitude.CANNOT
        assert seed_dataset.profiles["CC0-1.0"].terms[Term.SUBLICENSE] is Attitude.CANNOT

    def test_apache_notice_and_state_changes(self, seed_dataset):
        apache = seed_dataset.profiles["Apache-2.0"]
        assert apache.terms[Term.INCLUDE_NOTICE] is Attitude.MUST
        assert apache.terms[Term.STATE_CHANGES] is Attitude.MUST

    def test_weak_copyleft_patent_grants(self, seed_dataset):
        for spdx_id in ("MPL-2.0", "EPL-1.0"):
            profile = seed_dataset.profiles[spdx_id]
            assert profile.copyleft is not CopyleftClass.NONE
            assert profile.terms[Term.USE_PATENT_CLAIMS] is Attitude.CAN

    def test_non_commercial_variant(self, seed_dataset):
        assert (
            seed_dataset.profiles["CC-BY-NC-3.0"].terms[Term.COMMERCIAL_USE]
            is Attitude.CANNOT
        )

    def test_gpl3_is_strong_copyleft(self, seed_dataset):
        assert seed_dataset.profiles["GPL-3.0-only"].copyleft is CopyleftClass.STRONG
        assert seed_dataset.profiles["GPL-3.0-or-later"].copyleft is CopyleftClass.STRONG


class TestAliases:
    def test_bundled_aliases_validate(self, known):
        table = bundled_aliases(known)
        assert table.resolve("Apache2") == "Apache-2.0"
        assert table.resolve("  APACHE   2.0 ") == "Apache-2.0"

    def test_alias_target_must_be_known(self, known):
        with pytest.raises(ValidationError) as exc:
            loads_aliases("something\tNot-A-Real-Id\n", known)
        assert str(exc.value) == "<string>:1: alias target 'Not-A-Real-Id' is not a known SPDX id"

    def test_key_listed_again_with_another_target_is_validation_error(self, known):
        text = "# aliases\nApache2\tApache-2.0\n\n  APACHE2 \tMIT\nother\tISC\n"
        with pytest.raises(ValidationError) as exc:
            loads_aliases(text, known, source="aliases.dat")
        assert str(exc.value) == (
            "aliases.dat:4: alias 'APACHE2' already maps to 'Apache-2.0', not 'MIT'"
        )
        assert (exc.value.source, exc.value.line) == ("aliases.dat", 4)

    def test_key_listed_again_with_the_same_target_is_allowed(self, known):
        table = loads_aliases("Apache2\tApache-2.0\napache  2\tISC\nAPACHE2\tApache-2.0\n", known)
        assert table.entries == {"apache2": "Apache-2.0", "apache 2": "ISC"}

    def test_alias_file_needs_two_columns(self, known):
        with pytest.raises(FormatError):
            loads_aliases("just one column\n", known)

    def test_keys_stored_normalized(self):
        table = AliasTable({"mit license": "MIT"})
        assert table.resolve("MIT   LICENSE") == "MIT"
        assert table.resolve("nope") is None


def test_known_licenses_includes_dataset_and_extra(seed_dataset):
    known = known_licenses(seed_dataset, bundled_known_ids())
    assert "MIT" in known
    assert "EPL-2.0" in known  # extra id without a profile
    assert known.match_id("epl-2.0") == "EPL-2.0"
    assert known.match_name("eclipse public license 2.0") == "EPL-2.0"
    assert "GPL-3.0-only" in known.copyleft
    assert "EPL-2.0" not in known.copyleft


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_dataset(tmp_path / "absent.dat")
