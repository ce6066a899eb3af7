import random

import pytest

from licterm.conflicts import (
    ConflictType,
    build_matrix,
    check_expressions,
    check_profiles,
    explain,
)
from licterm.expression import parse_expression
from licterm.model import Attitude, CopyleftClass, Term, TermKind

from conftest import random_profile
from oracles import oracle_check_profiles, oracle_matrix


def _shape(findings):
    return [(f.ctype.value, f.term, f.parent_attitude, f.dep_attitude) for f in findings]


class TestPaperPairs:
    def test_mit_vs_ccby4(self, seed_dataset):
        findings = check_profiles(
            seed_dataset.profiles["MIT"], seed_dataset.profiles["CC-BY-4.0"]
        )
        c1 = [f for f in findings if f.ctype is ConflictType.C1]
        assert [(f.term, f.parent_attitude, f.dep_attitude) for f in c1] == [
            (Term.SUBLICENSE, Attitude.CAN, Attitude.CANNOT)
        ]

    def test_mit_vs_apache(self, seed_dataset):
        findings = check_profiles(
            seed_dataset.profiles["MIT"], seed_dataset.profiles["Apache-2.0"]
        )
        assert {f.ctype for f in findings} == {ConflictType.C2}
        assert {f.term for f in findings} == {Term.INCLUDE_NOTICE, Term.STATE_CHANGES}

    def test_mit_vs_mpl2(self, seed_dataset):
        findings = check_profiles(
            seed_dataset.profiles["MIT"], seed_dataset.profiles["MPL-2.0"]
        )
        c3_terms = {f.term for f in findings if f.ctype is ConflictType.C3}
        assert Term.USE_PATENT_CLAIMS in c3_terms

    def test_identity_is_clean_for_all_seed_profiles(self, seed_dataset):
        for profile in seed_dataset.profiles.values():
            for strict in (False, True):
                assert check_profiles(profile, profile, strict) == []


class TestRuleShape:
    def test_findings_match_oracle_seeded_bulk(self):
        rng = random.Random(0xC0FFEE)
        for i in range(2000):
            parent = random_profile(rng, f"P-{i}")
            dep = random_profile(rng, f"D-{i}")
            strict = rng.random() < 0.5
            assert _shape(check_profiles(parent, dep, strict)) == [
                (c, t, pa, da) for c, t, pa, da in oracle_check_profiles(parent, dep, strict)
            ]

    def test_no_must_cannot_finding_possible(self):
        rng = random.Random(7)
        for i in range(500):
            parent = random_profile(rng, "A")
            dep = random_profile(rng, "B")
            for f in check_profiles(parent, dep, strict_not_mentioned=True):
                pair = {f.parent_attitude, f.dep_attitude}
                assert pair != {Attitude.MUST, Attitude.CANNOT}
                if f.term.kind is TermKind.RIGHT:
                    assert Attitude.MUST not in pair
                else:
                    assert Attitude.CANNOT not in pair

    def test_strict_mode_is_monotone(self):
        rng = random.Random(99)
        for i in range(500):
            parent = random_profile(rng, "A")
            dep = random_profile(rng, "B")
            lax = set(check_profiles(parent, dep, False))
            strict = set(check_profiles(parent, dep, True))
            assert lax <= strict

    def test_c3_requires_copyleft_dep(self):
        rng = random.Random(3)
        for i in range(300):
            parent = random_profile(rng, "A")
            dep = random_profile(rng, "B")
            if dep.copyleft is CopyleftClass.NONE:
                assert not any(
                    f.ctype is ConflictType.C3 for f in check_profiles(parent, dep)
                )

    def test_ordering_by_type_then_catalog(self, seed_dataset):
        findings = check_profiles(
            seed_dataset.profiles["Unlicense"], seed_dataset.profiles["GPL-3.0-only"]
        )
        types = [f.ctype.value for f in findings]
        assert types == sorted(types)
        for ctype in ConflictType:
            terms = [f.term for f in findings if f.ctype is ctype]
            order = list(Term)
            assert terms == sorted(terms, key=order.index)


class TestGnuListProperty:
    def test_permissive_licenses_conflict_with_gpl3(self, seed_dataset):
        gpl3 = seed_dataset.profiles["GPL-3.0-only"]
        gpl3_grants = {
            t for t in Term
            if t.kind is TermKind.RIGHT and gpl3.terms[t] is Attitude.CAN
        }
        for profile in seed_dataset.profiles.values():
            if profile.copyleft is not CopyleftClass.NONE:
                continue
            lacking = {t for t in gpl3_grants if profile.terms[t] is not Attitude.CAN}
            findings = check_profiles(profile, gpl3)
            c3 = [f for f in findings if f.ctype is ConflictType.C3]
            if lacking:
                assert c3, f"{profile.spdx_id} lacks {lacking} but produced no C3"
            else:
                assert not c3


class TestExplain:
    @pytest.mark.parametrize(
        "parent,dep,ctype,term",
        [
            ("MIT", "CC0-1.0", "C1", "sublicense"),
            ("ISC", "Apache-2.0", "C2", "include-notice"),
            ("ISC", "MPL-2.0", "C3", "use-patent-claims"),
        ],
    )
    def test_explain_names_all_parts(self, seed_dataset, parent, dep, ctype, term):
        findings = check_profiles(
            seed_dataset.profiles[parent], seed_dataset.profiles[dep]
        )
        finding = next(
            f for f in findings if f.ctype.value == ctype and f.term.value == term
        )
        text = explain(finding)
        for token in (parent, dep, term, ctype):
            assert token in text
        assert explain(finding) == text  # deterministic


class TestExpressions:
    def test_or_choice_avoids_conflict(self, seed_dataset):
        verdict = check_expressions(
            parse_expression("MIT"),
            parse_expression("CC-BY-4.0 OR MIT"),
            seed_dataset,
        )
        assert verdict.conflict_free
        assert verdict.dep_resolved == "MIT"

    def test_and_accumulates(self, seed_dataset):
        verdict = check_expressions(
            parse_expression("MIT"),
            parse_expression("MIT AND Apache-2.0"),
            seed_dataset,
        )
        assert not verdict.conflict_free
        assert {f.ctype for f in verdict.findings} == {ConflictType.C2}
        assert {f.term for f in verdict.findings} == {
            Term.INCLUDE_NOTICE,
            Term.STATE_CHANGES,
        }
        assert verdict.dep_resolved == "MIT AND Apache-2.0"

    def test_unknown_id_warns_without_findings(self, seed_dataset):
        verdict = check_expressions(
            parse_expression("MIT"),
            parse_expression("Xyz-1.0"),
            seed_dataset,
        )
        assert verdict.conflict_free
        assert verdict.unknown_ids == ("Xyz-1.0",)
        assert any("unknown license Xyz-1.0" in w for w in verdict.warnings)

    def test_parent_or_picks_minimal_branch(self, seed_dataset):
        # Unlicense -> MIT raises C2 findings, so the MIT branch wins.
        verdict = check_expressions(
            parse_expression("Unlicense OR MIT"),
            parse_expression("MIT"),
            seed_dataset,
        )
        assert verdict.conflict_free
        assert verdict.parent_resolved == "MIT"

    def test_or_tie_keeps_left_branch(self, seed_dataset):
        verdict = check_expressions(
            parse_expression("CC-BY-4.0 OR MIT"),
            parse_expression("MIT"),
            seed_dataset,
        )
        assert verdict.conflict_free
        assert verdict.parent_resolved == "CC-BY-4.0"

    def test_exception_carried_as_warning(self, seed_dataset):
        verdict = check_expressions(
            parse_expression("MIT"),
            parse_expression("GPL-3.0-only WITH Classpath-exception-2.0"),
            seed_dataset,
        )
        assert any("Classpath-exception-2.0" in w for w in verdict.warnings)
        assert not verdict.conflict_free  # checked against the base license

    def test_both_copyleft_informational_warning(self, seed_dataset):
        verdict = check_expressions(
            parse_expression("MPL-2.0"),
            parse_expression("GPL-3.0-only"),
            seed_dataset,
        )
        assert any("copyleft" in w and "not assessed" in w for w in verdict.warnings)


class TestMatrix:
    def test_single_license_dataset_has_no_pairs(self, seed_dataset):
        from licterm.dataset import Dataset

        one = Dataset(profiles={"MIT": seed_dataset.profiles["MIT"]})
        matrix = build_matrix(one)
        assert (matrix.c1_pairs, matrix.c2_pairs, matrix.c3_pairs) == (0, 0, 0)

    @pytest.mark.parametrize("strict", [False, True])
    def test_matrix_equals_oracle_on_seed(self, seed_dataset, strict):
        matrix = build_matrix(seed_dataset, strict)
        counts, degrees = oracle_matrix(seed_dataset, strict)
        assert matrix.c1_pairs == counts["C1"]
        assert matrix.c2_pairs == counts["C2"]
        assert matrix.c3_pairs == counts["C3"]
        assert matrix.degrees == degrees

    def test_matrix_equals_oracle_on_random_dataset(self):
        from licterm.dataset import Dataset

        rng = random.Random(1234)
        profiles = {f"L{i}": random_profile(rng, f"L{i}") for i in range(12)}
        ds = Dataset(profiles=profiles)
        for strict in (False, True):
            matrix = build_matrix(ds, strict)
            counts, degrees = oracle_matrix(ds, strict)
            assert (matrix.c1_pairs, matrix.c2_pairs, matrix.c3_pairs) == (
                counts["C1"],
                counts["C2"],
                counts["C3"],
            )
            assert matrix.degrees == degrees

    def test_seed_matrix_frozen_counts(self, seed_dataset):
        # Computed once with the brute-force oracle over the bundled
        # dataset; guards against accidental relabeling.
        matrix = build_matrix(seed_dataset)
        assert (matrix.c1_pairs, matrix.c2_pairs, matrix.c3_pairs) == (115, 361, 101)
