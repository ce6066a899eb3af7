import random

import pytest
from hypothesis import given, settings, strategies as st

from licterm.conflicts import (
    ConflictType,
    ExpressionTooComplex,
    build_matrix,
    check_expressions,
    check_profiles,
    explain,
)
from licterm.dataset import Dataset, bundled_dataset, dumps_dataset, loads_dataset
from licterm.expression import And, LicenseRef, Or, parse_expression, render
from licterm.model import Attitude, CopyleftClass, LicenseProfile, Term, TermKind, TERM_ORDER

from conftest import OBLIGATION_CHOICES, RIGHT_CHOICES, random_profile
from oracles import (
    oracle_best_choice,
    oracle_check_expressions,
    oracle_check_profiles,
    oracle_leaf_warnings,
    oracle_matrix,
)


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
        assert str(verdict.dep_choice) == "MIT"

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
        assert str(verdict.dep_choice) == "MIT AND Apache-2.0"

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
        assert str(verdict.parent_choice) == "MIT"

    def test_or_tie_keeps_left_branch(self, seed_dataset):
        verdict = check_expressions(
            parse_expression("CC-BY-4.0 OR MIT"),
            parse_expression("MIT"),
            seed_dataset,
        )
        assert verdict.conflict_free
        assert str(verdict.parent_choice) == "CC-BY-4.0"

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


_BUNDLED = bundled_dataset()
# Every bundled id plus one the dataset does not profile.
_LEAF_IDS = sorted(_BUNDLED.profiles) + ["Xyz-1.0"]


def _random_expression(rng, depth, ids=_LEAF_IDS):
    if depth == 0 or rng.random() < 0.25:
        return LicenseRef(rng.choice(ids))
    op = And if rng.random() < 0.5 else Or
    return op(_random_expression(rng, depth - 1, ids), _random_expression(rng, depth - 1, ids))


def _leaves(expr):
    if isinstance(expr, LicenseRef):
        return (expr,)
    return _leaves(expr.left) + _leaves(expr.right)


def _assert_matches_oracle(parent, dep, strict, ds=_BUNDLED):
    verdict = check_expressions(parent, dep, ds, strict)
    context = (render(parent), render(dep), strict)
    # The chosen pair is the oracle's: the first with the fewest findings,
    # parent choices outer, so ties go to the first choice of each side ...
    p_leaves, d_leaves, findings = oracle_best_choice(parent, dep, ds, strict)
    assert _leaves(verdict.parent_choice) == p_leaves, context
    assert _leaves(verdict.dep_choice) == d_leaves, context
    assert render(verdict.parent_choice) == str(verdict.parent_choice), context
    assert render(verdict.dep_choice) == str(verdict.dep_choice), context
    assert _leaves(parse_expression(str(verdict.parent_choice))) == p_leaves, context
    assert _leaves(parse_expression(str(verdict.dep_choice))) == d_leaves, context
    # ... whose findings and warnings are exactly the reported ones.
    assert _shape(verdict.findings) == findings, context
    assert list(verdict.warnings) == oracle_leaf_warnings(p_leaves, d_leaves, ds), context
    assert len(verdict.findings) == oracle_check_expressions(parent, dep, ds, strict), context
    unknown = sorted({ref.id for ref in p_leaves + d_leaves} - set(ds.profiles))
    assert list(verdict.unknown_ids) == unknown, context
    # The counted types agree with the findings built from them.
    fired = {f.ctype for f in verdict.findings}
    assert verdict.conflict_types == tuple(t for t in ConflictType if t in fired), context
    assert verdict.conflict_free == (not verdict.findings), context


def _trees(leaves):
    return st.recursive(
        leaves, lambda kids: st.builds(And, kids, kids) | st.builds(Or, kids, kids), max_leaves=6
    )


def _with_exceptions(ids):
    """Leaves over ``ids``; one in four carries an exception, which adds a warning."""
    return st.builds(
        LicenseRef,
        st.sampled_from(ids),
        exception=st.sampled_from([None, None, None, "Classpath-exception-2.0"]),
    )


_expressions = _trees(st.sampled_from(_LEAF_IDS).map(LicenseRef))


class TestExpressionOracle:
    @pytest.mark.parametrize("strict", [False, True])
    def test_seeded_pairs_equal_oracle(self, strict):
        rng = random.Random(7)
        for _ in range(3000):
            parent = _random_expression(rng, 3)
            dep = _random_expression(rng, 3)
            _assert_matches_oracle(parent, dep, strict)

    @settings(max_examples=200, deadline=None)
    @given(_expressions, _expressions, st.booleans())
    def test_small_expressions_equal_oracle_hypothesis(self, parent, dep, strict):
        _assert_matches_oracle(parent, dep, strict)

    def test_one_or_branch_serves_every_parent_conjunct(self, seed_dataset):
        # Resolving the dependency OR separately under each parent
        # conjunct found 2: WTFPL for AAL, LGPL-3.0-only for AGPL-3.0-only.
        verdict = check_expressions(
            parse_expression("AGPL-3.0-only AND AAL"),
            parse_expression(
                "(WTFPL OR LGPL-3.0-only) AND (BSD-2-Clause AND Artistic-2.0) AND BSD-2-Clause"
            ),
            seed_dataset,
        )
        assert len(verdict.findings) == 3
        assert str(verdict.dep_choice).startswith("WTFPL AND ")

    def test_tie_goes_to_first_parent_then_first_dep_choice(self, seed_dataset):
        # MIT -> MIT and Apache-2.0 -> Apache-2.0 both have no findings.
        verdict = check_expressions(
            parse_expression("MIT OR Apache-2.0"),
            parse_expression("Apache-2.0 OR MIT"),
            seed_dataset,
        )
        assert verdict.conflict_free
        assert (str(verdict.parent_choice), str(verdict.dep_choice)) == ("MIT", "MIT")

    def test_too_many_choices_raise_before_enumerating(self, seed_dataset):
        # 2**40 choices: building them would not finish. The first subtree
        # past the cap is the one with 13 ORs.
        dep = parse_expression(" AND ".join(["(MIT OR ISC)"] * 40))
        with pytest.raises(ExpressionTooComplex, match="has 8192, the limit is 4096"):
            check_expressions(parse_expression("MIT AND ISC"), dep, seed_dataset)
        # The cap is on pairs: 2 parent choices halve what the dependency may have.
        dep = parse_expression(" AND ".join(["(MIT OR ISC)"] * 12))
        assert check_expressions(parse_expression("MIT"), dep, seed_dataset).findings == ()
        with pytest.raises(ExpressionTooComplex, match="has 4096, the limit is 2048"):
            check_expressions(parse_expression("MIT OR ISC"), dep, seed_dataset)


# Bare refs for the single-license branch: every bundled id, ids with no
# profile, and ids with an exception or "+", which are checked as the base id.
_SINGLE_REFS = [LicenseRef(i) for i in _LEAF_IDS] + [
    LicenseRef("EPL-2.0"),
    LicenseRef("GPL-2.0-only", exception="Classpath-exception-2.0"),
    LicenseRef("Apache-2.0", True, "LLVM-exception"),
    LicenseRef("GPL-2.0", or_later=True),
    LicenseRef("MIT", or_later=True),
]


def _assert_single_pair_matches_oracle(parent, dep, strict, ds):
    _assert_matches_oracle(parent, dep, strict, ds)
    verdict = check_expressions(parent, dep, ds, strict)
    fired = {f[0] for f in oracle_best_choice(parent, dep, ds, strict)[2]}
    assert verdict.conflict_types == tuple(t for t in ConflictType if t.value in fired)
    assert (verdict.parent_choice, verdict.dep_choice) == (parent, dep)
    profiles = ds.profiles
    assert verdict.parent_leaves == ((parent, profiles.get(parent.id)),)
    assert verdict.dep_leaves == ((dep, profiles.get(dep.id)),)
    return verdict


class TestSingleLicensePairs:
    """Two bare license refs are scored without expanding OR choices."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_every_bundled_pair_equals_oracle(self, strict):
        for parent in _SINGLE_REFS:
            for dep in _SINGLE_REFS:
                _assert_single_pair_matches_oracle(parent, dep, strict, _BUNDLED)

    @pytest.mark.parametrize("strict", [False, True])
    def test_loaded_family_catalog_sample_equals_oracle(self, strict):
        # Loaded from its file, so each profile holds the masks it was read into.
        ds = loads_dataset(dumps_dataset(_family_dataset(random.Random(453), 453)))
        refs = [LicenseRef(i) for i in ds.profiles] + [LicenseRef("Xyz-1.0")]
        rng = random.Random(strict)
        fired = set()
        for _ in range(1500):
            parent, dep = rng.choice(refs), rng.choice(refs)
            fired.add(_assert_single_pair_matches_oracle(parent, dep, strict, ds).conflict_types)
        assert {(), (ConflictType.C1,), (ConflictType.C3,)} < fired, fired


_SILENT = dict.fromkeys(TERM_ORDER, Attitude.NOT_MENTIONED)
_CHOICES = {TermKind.RIGHT: RIGHT_CHOICES, TermKind.OBLIGATION: OBLIGATION_CHOICES}


def _family_member(spdx_id, base, mutations, copyleft):
    terms = {**base, **dict(mutations)}
    return LicenseProfile(spdx_id, f"Test License {spdx_id}", terms, copyleft)


def _family_dataset(rng, n):
    """n profiles from a silent base and three random ones, each with 0-2
    mutated terms, so that many licenses share masks and some are equal."""
    bases = [_SILENT] + [random_profile(rng, "base").terms for _ in range(3)]
    profiles = {}
    for i in range(n):
        terms = rng.sample(TERM_ORDER, rng.choice((0, 0, 1, 2)))
        mutations = [(t, rng.choice(_CHOICES[t.kind])) for t in terms]
        copyleft = rng.choice(tuple(CopyleftClass))
        profiles[f"L{i}"] = _family_member(f"L{i}", rng.choice(bases), mutations, copyleft)
    return Dataset(profiles=profiles)


_mutations = st.lists(
    st.sampled_from(TERM_ORDER).flatmap(
        lambda t: st.tuples(st.just(t), st.sampled_from(_CHOICES[t.kind]))
    ),
    max_size=2,
)

# A whole random base from one draw: drawing 22 attitudes each costs more than the checks.
_term_maps = st.integers(0, 2**16).map(lambda seed: random_profile(random.Random(seed), "b").terms)


@st.composite
def _family_datasets(draw):
    bases = [_SILENT, draw(_term_maps), draw(_term_maps)]
    members = draw(
        st.lists(
            st.tuples(st.sampled_from(bases), _mutations, st.sampled_from(CopyleftClass)),
            max_size=8,
        )
    )
    return Dataset(
        profiles={f"L{i}": _family_member(f"L{i}", *member) for i, member in enumerate(members)}
    )


def _assert_matrix_matches_oracle(ds, strict):
    matrix = build_matrix(ds, strict)
    counts, degrees = oracle_matrix(ds, strict)
    assert matrix.pairs == {ctype: counts[ctype.value] for ctype in ConflictType}
    assert matrix.degrees == degrees


class TestMatrix:
    @pytest.mark.parametrize("strict", [False, True])
    def test_matrix_equals_oracle_on_family_catalog(self, strict):
        ds = _family_dataset(random.Random(60), 60)
        profiles = list(ds.profiles.values())
        # The catalog has what it is meant to exercise.
        assert any(p.terms == _SILENT for p in profiles)
        assert {p.copyleft for p in profiles} == set(CopyleftClass)
        assert len({(p.masks, p.copyleft) for p in profiles}) < len(profiles)
        _assert_matrix_matches_oracle(ds, strict)

    @settings(max_examples=100, deadline=None)
    @given(_family_datasets(), st.booleans())
    def test_matrix_equals_oracle_on_small_families_hypothesis(self, ds, strict):
        _assert_matrix_matches_oracle(ds, strict)

    def test_single_license_dataset_has_no_pairs(self, seed_dataset):
        from licterm.dataset import Dataset

        one = Dataset(profiles={"MIT": seed_dataset.profiles["MIT"]})
        matrix = build_matrix(one)
        assert matrix.pairs == dict.fromkeys(ConflictType, 0)

    @pytest.mark.parametrize("strict", [False, True])
    def test_matrix_equals_oracle_on_seed(self, seed_dataset, strict):
        matrix = build_matrix(seed_dataset, strict)
        counts, degrees = oracle_matrix(seed_dataset, strict)
        assert matrix.pairs[ConflictType.C1] == counts["C1"]
        assert matrix.pairs[ConflictType.C2] == counts["C2"]
        assert matrix.pairs[ConflictType.C3] == counts["C3"]
        assert len(matrix.pairs) == 3
        assert matrix.degrees == degrees

    def test_matrix_equals_oracle_on_random_dataset(self):
        from licterm.dataset import Dataset

        rng = random.Random(1234)
        profiles = {f"L{i}": random_profile(rng, f"L{i}") for i in range(12)}
        ds = Dataset(profiles=profiles)
        for strict in (False, True):
            matrix = build_matrix(ds, strict)
            counts, degrees = oracle_matrix(ds, strict)
            assert matrix.pairs == {ctype: counts[ctype.value] for ctype in ConflictType}
            assert matrix.degrees == degrees

    def test_seed_matrix_frozen_counts(self, seed_dataset):
        # Computed once with the brute-force oracle over the bundled
        # dataset; guards against accidental relabeling.
        matrix = build_matrix(seed_dataset)
        assert matrix.pairs == dict(zip(ConflictType, (115, 361, 101)))


@st.composite
def _family_pairs(draw):
    ds = draw(_family_datasets())
    expressions = _trees(_with_exceptions(sorted(ds.profiles) + ["Xyz-1.0"]))
    return ds, draw(expressions), draw(expressions)


_excepted = _trees(_with_exceptions(_LEAF_IDS))


class TestVerdict:
    """The verdict chosen from rule-mask counts, against the findings built from it."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_seeded_family_catalog_pairs(self, strict):
        # Family members share masks, so equal scores, and with them the
        # tie rule, come up often.
        rng = random.Random(17)
        ds = _family_dataset(rng, 24)
        ids = sorted(ds.profiles) + ["Xyz-1.0"]
        for _ in range(1500):
            parent, dep = (_random_expression(rng, 3, ids) for _ in range(2))
            _assert_matches_oracle(parent, dep, strict, ds)

    @settings(max_examples=150, deadline=None)
    @given(_family_pairs(), st.booleans())
    def test_family_pairs_hypothesis(self, pair, strict):
        ds, parent, dep = pair
        _assert_matches_oracle(parent, dep, strict, ds)

    @settings(max_examples=150, deadline=None)
    @given(_excepted, _excepted, st.booleans())
    def test_bundled_pairs_with_exceptions_hypothesis(self, parent, dep, strict):
        _assert_matches_oracle(parent, dep, strict)

    def test_tie_between_conflicted_choices_goes_to_the_first(self, seed_dataset):
        # MIT and ISC require the same obligations, so each scores the same
        # C2 count against Apache-2.0, and neither has C1 or C3: the first is kept.
        for parent, resolved in (("MIT OR ISC", "MIT"), ("ISC OR MIT", "ISC")):
            verdict = check_expressions(
                parse_expression(parent), parse_expression("Apache-2.0"), seed_dataset
            )
            assert verdict.conflict_types == (ConflictType.C2,)
            assert str(verdict.parent_choice) == resolved

    def test_findings_are_built_on_first_read_only(self, seed_dataset, monkeypatch):
        import licterm.conflicts as conflicts

        calls = []
        real = conflicts.check_profiles
        monkeypatch.setattr(
            conflicts, "check_profiles", lambda *args: calls.append(args) or real(*args)
        )
        verdict = check_expressions(
            parse_expression("MIT AND ISC"), parse_expression("GPL-3.0-only"), seed_dataset
        )
        assert verdict.conflict_types == tuple(ConflictType) and calls == []
        findings = verdict.findings
        assert len(calls) == 2 and verdict.findings is findings

    def test_each_leaf_derives_only_its_own_side(self, seed_dataset, monkeypatch):
        import licterm.conflicts as conflicts

        parent_calls, dep_calls = [], []
        parent_side, dep_side = conflicts._parent_side, conflicts._dep_side
        monkeypatch.setattr(
            conflicts,
            "_parent_side",
            lambda profile: parent_calls.append(profile.spdx_id) or parent_side(profile),
        )
        monkeypatch.setattr(
            conflicts,
            "_dep_side",
            lambda profile, strict: dep_calls.append((profile.spdx_id, strict))
            or dep_side(profile, strict),
        )
        # MIT and ISC sit on both sides and in several choices each;
        # Xyz-1.0 has no profile, so it has no masks.
        parent = parse_expression("(MIT OR GPL-3.0-only) AND ISC")
        dep = parse_expression("(ISC OR Apache-2.0) AND MIT AND Xyz-1.0")
        for strict in (False, True):
            parent_calls.clear()
            dep_calls.clear()
            check_expressions(parent, dep, seed_dataset, strict)
            assert sorted(set(parent_calls)) == ["GPL-3.0-only", "ISC", "MIT"]
            assert sorted(set(dep_calls)) == [(i, strict) for i in ("Apache-2.0", "ISC", "MIT")]
        # Two single licenses: one call per side.
        parent_calls.clear()
        dep_calls.clear()
        check_expressions(LicenseRef("MIT"), LicenseRef("GPL-3.0-only"), seed_dataset, True)
        assert (parent_calls, dep_calls) == (["MIT"], [("GPL-3.0-only", True)])
        monkeypatch.undo()
        _assert_matches_oracle(parent, dep, False)
        _assert_matches_oracle(parent, dep, True)
