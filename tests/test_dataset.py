import importlib.resources
import random
from collections import Counter

import pytest

from licterm.dataset import (
    AliasTable,
    Dataset,
    bundled_aliases,
    bundled_known_ids,
    dumps_dataset,
    known_licenses,
    load_dataset,
    loads_aliases,
    loads_dataset,
)
from licterm.errors import FormatError, LictermError, ValidationError
from licterm.model import (
    OBLIGATION_TERMS,
    RIGHT_TERMS,
    Attitude,
    CopyleftClass,
    LicenseProfile,
    Term,
)

from conftest import random_profile
from oracles import oracle_loads_dataset

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
        meta = "dataset-version: 7\nprovenance: somewhere\n\n"
        for head in ("", "# comment lines alone are no record\n\n"):
            ds = loads_dataset(head + meta + MINIMAL_RECORD)
            assert ds.version == "7"
            assert ds.provenance == "somewhere"
            assert len(ds) == 1

    @pytest.mark.parametrize(
        "meta, line",
        [
            ("dataset-version: 7\ndataset-version: 8\n", 2),
            ("provenance: a\ndataset-version: 7\nprovenance: b\nprovenance: c\n", 3),
        ],
        ids=["version", "provenance"],
    )
    def test_repeated_metadata_key_is_format_error_at_the_repeat(self, meta, line):
        with pytest.raises(FormatError) as exc:
            loads_dataset(meta + "\n" + MINIMAL_RECORD, source="test.dat")
        key = meta.split("\n")[line - 1].partition(":")[0]
        assert str(exc.value) == f"test.dat:{line}: duplicate key {key!r}"
        assert type(exc.value) is FormatError

    def test_repeated_metadata_key_in_a_profile_record_is_an_unknown_key(self):
        # The record is a profile, so its first line is already at fault.
        text = "dataset-version: 7\ndataset-version: 8\n" + MINIMAL_RECORD
        with pytest.raises(FormatError) as exc:
            loads_dataset(text, source="test.dat")
        assert str(exc.value) == "test.dat:1: unknown key 'dataset-version'"

    @pytest.mark.parametrize(
        "text, where",
        [
            (MINIMAL_RECORD + "\ndataset-version: 8\n", "27: unknown key 'dataset-version'"),
            ("dataset-version: 7\n\nprovenance: x\n\n" + MINIMAL_RECORD,
             "3: unknown key 'provenance'"),
        ],
        ids=["after-a-profile", "after-the-metadata"],
    )
    def test_only_the_first_record_holds_metadata(self, text, where):
        with pytest.raises(FormatError) as exc:
            loads_dataset(text, source="test.dat")
        assert str(exc.value) == f"test.dat:{where}"

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


class TestProfileRules:
    """Each profile rule, broken in a record read from text, fails at the record's first line."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "include-notice: not-mentioned",
                "include-notice: can",
                "profile Test-1.0: include-notice: obligation cannot be 'can'",
            ),
            (
                "distribute: can",
                "distribute: must",
                "profile Test-1.0: distribute: right cannot be 'must'",
            ),
            (
                "statically-link: not-mentioned\n",
                "",
                "profile Test-1.0: statically-link: terms mapping not total (key missing)",
            ),
            ("spdx-id: Test-1.0", "spdx-id:", "profile <missing id>: spdx_id: must be non-empty"),
            (
                "spdx-id: Test-1.0",
                "spdx-id: bad id",
                "profile bad id: spdx_id: 'bad id' contains characters outside letters, "
                "digits, '.', '-', '+'",
            ),
        ],
        ids=["can-obligation", "must-right", "missing-term", "empty-id", "bad-id"],
    )
    def test_violation_at_record_line(self, old, new, message):
        text = "# comment\n\n" + MINIMAL_RECORD.replace(old, new)
        with pytest.raises(ValidationError) as exc:
            loads_dataset(text, source="test.dat")
        assert str(exc.value) == f"test.dat:3: {message}"
        assert (exc.value.source, exc.value.line) == ("test.dat", 3)

    def test_violations_of_one_record_are_joined_in_order(self):
        text = (
            MINIMAL_RECORD.replace("spdx-id: Test-1.0", "spdx-id: a/b")
            .replace("rename: not-mentioned\n", "")
            .replace("include-license: must", "include-license: cannot")
            .replace("distribute: can", "distribute: must")
        )
        with pytest.raises(ValidationError) as exc:
            loads_dataset(text, source="test.dat")
        assert str(exc.value) == (
            "test.dat:1: profile a/b: spdx_id: 'a/b' contains characters outside letters, "
            "digits, '.', '-', '+'; rename: terms mapping not total (key missing); "
            "distribute: right cannot be 'must'; include-license: obligation cannot be 'cannot'"
        )

    def test_id_may_hold_dot_dash_and_plus(self):
        ds = loads_dataset(MINIMAL_RECORD.replace("spdx-id: Test-1.0", "spdx-id: GPL-3.0+"))
        assert list(ds.profiles) == ["GPL-3.0+"]

    def test_a_format_error_later_in_the_record_comes_first(self):
        bad = MINIMAL_RECORD.replace("distribute: can", "distribute: must")
        with pytest.raises(FormatError) as exc:
            loads_dataset(bad.replace("rename: not-mentioned", "rename: maybe"), source="t")
        assert str(exc.value) == "t:23: unknown attitude 'maybe' for rename"
        with pytest.raises(FormatError) as exc:
            loads_dataset(bad.replace("distribute: must", "distribute: maybe") + "no colon\n")
        assert str(exc.value) == "<string>:26: expected 'key: value', got 'no colon'"
        # A fault in an earlier record wins over a line without a colon in a later one.
        first = MINIMAL_RECORD.replace("rename:", "renamed:")
        second = MINIMAL_RECORD.replace("Test-1.0", "Test-2.0") + "no colon\n"
        with pytest.raises(FormatError) as exc:
            loads_dataset(first + "\n" + second, source="t")
        assert str(exc.value) == "t:23: unknown key 'renamed'"


_RIGHT_KEYS = {t.value for t in RIGHT_TERMS}
_OBLIGATION_KEYS = {t.value for t in OBLIGATION_TERMS}
_BAD_KEYS = ("same-license", "Distribute", "", "dataset-version", "note")


def _bundled_text() -> str:
    return importlib.resources.files("licterm").joinpath("data", "licenses.dat").read_text("utf-8")


def _catalog_text(seed: int, size: int = 453) -> str:
    """A canonical catalog of ``size`` random profiles, every seventh with notes."""
    rng = random.Random(seed)
    profiles = {}
    for i in range(size):
        profile = random_profile(rng, f"Gen-{i}.{seed}")
        if i % 7 == 0:
            notes = f"note {i}: {rng.random()}"
            profile = LicenseProfile(
                profile.spdx_id, profile.full_name, profile.terms, profile.copyleft, notes
            )
        profiles[profile.spdx_id] = profile
    return dumps_dataset(Dataset(profiles, version=str(seed), provenance="seeded"))


def _outcome(loads, text):
    """The dataset and its canonical text, or the error's class, text and locator."""
    try:
        ds = loads(text, source="cat.dat")
    except LictermError as exc:
        return type(exc), str(exc), exc.source, exc.line
    return ds, dumps_dataset(ds)


def _mutate(rng, lines, i, ids):
    """Replace ``lines[i]`` by a faulty, harmless or missing line, or swap it with the next."""
    line = lines[i]
    key, _, value = line.partition(":")
    key = key.strip()
    options = [
        [],
        [line, line],
        [line.replace(":", " ", 1)],
        [f"{rng.choice(_BAD_KEYS)}: {value.strip()}"],
        [line, ""],
        ["# " + line],
        [f"  {key} :{value}\t"],
    ]
    if key in _RIGHT_KEYS:
        options += [[f"{key}: {rng.choice(('must', 'maybe', 'Can'))}"]] * 4
    elif key in _OBLIGATION_KEYS:
        options += [[f"{key}: {rng.choice(('can', 'cannot', 'required'))}"]] * 4
    elif key == "spdx-id":
        options += [[f"spdx-id: {rng.choice(('', 'bad id', 'a/b', *ids))}"]] * 4
    elif key == "copyleft":
        options += [[f"copyleft: {rng.choice(('medium', ''))}"]] * 2
    if i + 1 < len(lines) and rng.random() < 0.1:
        lines[i], lines[i + 1] = lines[i + 1], line
    else:
        lines[i:i + 1] = rng.choice(options)


def _oracle_outcome(text, context=None):
    """``loads_dataset``'s outcome, asserted to be ``oracle_loads_dataset``'s.

    A loaded profile holds the masks its term lines were read into: they
    must be the masks of the oracle's profile, built from its term dict,
    and the terms derived from them must be that dict. A fault must have
    the same class, text and locator.
    """
    got, expected = _outcome(loads_dataset, text), _outcome(oracle_loads_dataset, text)
    if isinstance(expected[0], Dataset):
        assert isinstance(got[0], Dataset), (got, context)
        loaded = got[0].profiles
        assert list(loaded) == list(expected[0].profiles), context
        for spdx_id, profile in expected[0].profiles.items():
            assert vars(loaded[spdx_id])["masks"] == profile.masks, (spdx_id, context)
            assert loaded[spdx_id].terms == profile.terms, (spdx_id, context)
    assert got == expected, context
    return got


class TestReaderOracle:
    """``loads_dataset`` agrees with the two-pass ``oracle_loads_dataset``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_files_equal_oracle_and_round_trip(self, seed):
        text = _bundled_text() if seed == 0 else _catalog_text(seed)
        ds, canonical = _oracle_outcome(text)
        assert len(ds) == (25 if seed == 0 else 453)
        assert canonical == text

    @pytest.mark.parametrize("seed, mutants", [(0, 400), (1, 40), (2, 40)])
    def test_mutated_files_equal_oracle(self, seed, mutants):
        text = _bundled_text() if seed == 0 else _catalog_text(seed)
        rng = random.Random(seed)
        lines = text.split("\n")
        heads = [n for n, line in enumerate(lines) if line.startswith("spdx-id: ")]
        ids = [lines[n][len("spdx-id: "):] for n in heads[:3]]
        seen = Counter()
        for _ in range(mutants):
            mutant = list(lines)
            i = rng.choice(heads) if rng.random() < 0.2 else rng.randrange(len(mutant))
            if rng.random() < 0.4:  # a second fault, most often in the same record
                _mutate(rng, mutant, min(i + rng.randint(1, 6), len(mutant) - 1), ids)
            _mutate(rng, mutant, i, ids)
            got = _oracle_outcome("\n".join(mutant), mutant[max(i - 2, 0):i + 8])
            seen[got[0].__name__ if isinstance(got[0], type) else "ok"] += 1
        assert {"ok", "FormatError", "ValidationError"} <= set(seen), seen


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
