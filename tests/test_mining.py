import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from licterm import mining
from licterm.dataset import Dataset, loads_dataset
from licterm.mining import (
    FrequentPattern,
    InvalidThreshold,
    common_term_report,
    dedup_similar,
    mine,
    profile_items,
)
from licterm.model import Attitude, CopyleftClass, LicenseProfile, TERM_ORDER

from conftest import make_terms
from oracles import (
    oracle_check_closed,
    oracle_check_mined,
    oracle_dedup_one_item,
    oracle_dedup_similar,
    oracle_mine,
    oracle_mined_patterns,
    oracle_supporters,
)
from test_conflicts import _family_dataset
from test_dataset import _catalog_text


def _profile(spdx_id, **attitudes):
    return LicenseProfile(
        spdx_id, spdx_id, make_terms(**attitudes), CopyleftClass.NONE
    )


def _ds(*profiles):
    return Dataset(profiles={p.spdx_id: p for p in profiles})


def _as_oracle_input(ds):
    return {i: set(profile_items(p)) for i, p in ds.profiles.items()}


THREE_PROFILE_FIXTURE = _ds(
    _profile("A", distribute="can", sublicense="can"),
    _profile("B", distribute="can", sublicense="can"),
    _profile("C", distribute="can"),
)

D_CAN = "distribute=can"
SUB_CAN = "sublicense=can"


class TestMine:
    def test_three_profile_fixture_frozen(self):
        # Expected values enumerated by hand over the fixture.
        patterns = mine(THREE_PROFILE_FIXTURE, min_support=2)
        assert [
            (p.sorted_items(), p.support_count, oracle_supporters(p)) for p in patterns
        ] == [
            ((D_CAN,), 3, {"A", "B", "C"}),
            ((SUB_CAN,), 2, {"A", "B"}),
            ((D_CAN, SUB_CAN), 2, {"A", "B"}),
        ]

    def test_min_support_one_equals_exhaustive_oracle(self):
        patterns = mine(THREE_PROFILE_FIXTURE, min_support=1)
        expected = oracle_mine(_as_oracle_input(THREE_PROFILE_FIXTURE), 1)
        assert {p.items: oracle_supporters(p) for p in patterns} == expected

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            mine(THREE_PROFILE_FIXTURE, min_support=0)

    def test_no_shared_items(self):
        ds = _ds(
            _profile("A", distribute="can"),
            _profile("B", modify="can"),
        )
        assert mine(ds, min_support=2) == []
        singles = mine(ds, min_support=1)
        assert {p.sorted_items() for p in singles} == {
            ("distribute=can",),
            ("modify=can",),
        }

    def test_attitude_distinguishes_items(self):
        ds = _ds(
            _profile("A", place_warranty="can"),
            _profile("B", place_warranty="cannot"),
        )
        patterns = mine(ds, min_support=1)
        assert {p.sorted_items()[0] for p in patterns} == {
            "place-warranty=can",
            "place-warranty=cannot",
        }
        assert mine(ds, min_support=2) == []

    def test_item_spelling_sorts_like_term_attitude_pairs(self):
        # Output order relies on it: it fails if one term id is a prefix of another.
        pairs = [
            (term.value, attitude.value)
            for term in TERM_ORDER
            for attitude in (Attitude.CAN, Attitude.CANNOT, Attitude.MUST)
        ]
        assert sorted(f"{t}={a}" for t, a in pairs) == [f"{t}={a}" for t, a in sorted(pairs)]

    def test_result_is_freed_without_the_collector(self, seed_dataset):
        # cli.main turns the cyclic collector off: mine must leave no
        # reference cycle that keeps its result alive once it is dropped.
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            closed = mine(seed_dataset, 2, 0.9)
            assert closed
            del closed
            assert gc.collect() == 0
            patterns = mine(seed_dataset, 2)
            assert patterns
            del patterns
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_order_independent(self):
        profiles = list(THREE_PROFILE_FIXTURE.profiles.values())
        shuffled = Dataset(profiles={p.spdx_id: p for p in reversed(profiles)})
        assert mine(THREE_PROFILE_FIXTURE, 1) == mine(shuffled, 1)

    def test_sorted_output_contract(self, seed_dataset):
        patterns = mine(seed_dataset, min_support=10)
        keys = [(-p.support_count, len(p.items), p.sorted_items()) for p in patterns]
        assert keys == sorted(keys)

    def test_anti_monotonicity_on_seed(self, seed_dataset):
        patterns = mine(seed_dataset, min_support=12)
        by_items = {p.items: p.support_count for p in patterns}
        for pattern in patterns:
            for item in pattern.items:
                if len(pattern.items) == 1:
                    continue
                subset = pattern.items - {item}
                assert subset in by_items
                assert by_items[subset] >= pattern.support_count

    def test_random_datasets_equal_oracle_seeded(self):
        rng = random.Random(2718)
        for round_no in range(15):
            n = rng.randint(1, 8)
            ds = Dataset(
                profiles={
                    f"L{i}": _restricted_random_profile(rng, f"L{i}") for i in range(n)
                }
            )
            min_support = rng.randint(1, max(1, n))
            got = {p.items: oracle_supporters(p) for p in mine(ds, min_support)}
            assert got == oracle_mine(_as_oracle_input(ds), min_support)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_datasets_equal_oracle_hypothesis(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        ds = Dataset(
            profiles={f"L{i}": _restricted_random_profile(rng, f"L{i}") for i in range(n)}
        )
        min_support = rng.randint(1, n)
        got = {p.items: oracle_supporters(p) for p in mine(ds, min_support)}
        assert got == oracle_mine(_as_oracle_input(ds), min_support)

    @pytest.mark.parametrize("min_support", [5, 10, 17])
    def test_bundled_dataset_passes_closure_oracle(self, seed_dataset, min_support):
        patterns = mine(seed_dataset, min_support)
        oracle_check_mined(_as_oracle_input(seed_dataset), min_support, patterns)

    def test_closure_oracle_catches_wrong_output(self, seed_dataset):
        transactions = _as_oracle_input(seed_dataset)
        patterns = mine(seed_dataset, 10)
        longest = max(patterns, key=lambda p: len(p.items))
        first = longest.support & -longest.support  # the lowest supporting id
        wrong_ids = FrequentPattern(longest.items, longest.support ^ first, longest.licenses)
        for broken in (
            [p for p in patterns if p is not longest],
            [p for p in patterns if p is not patterns[-1]],
            [wrong_ids if p is longest else p for p in patterns],
        ):
            with pytest.raises(AssertionError):
                oracle_check_mined(transactions, 10, broken)


def _restricted_random_profile(rng, spdx_id, **held):
    """Random profile over a 6-term sub-vocabulary, so the itemset
    universe stays within exhaustive-oracle reach (<= 12 items); ``held``
    sets some of its attitudes."""
    kwargs = {}
    for key, choices in (
        ("distribute", ("can", "cannot")),
        ("modify", ("can", "cannot")),
        ("sublicense", ("can", "cannot")),
        ("include_copyright", ("must",)),
        ("include_license", ("must",)),
        ("state_changes", ("must",)),
    ):
        if rng.random() < 0.6:
            kwargs[key] = rng.choice(choices)
    return _profile(spdx_id, **{**kwargs, **held})


# Jaccard thresholds for the closed search: 0.5 and 0.9 sit exactly on
# many count ratios, and at 0.1 most ``j * |s|`` fall below min_support.
CLOSED_JACCARDS = (1.0, 0.9, 0.5, 2 / 3, 0.1)


def _assert_closed_search_matches(ds, min_support, expected_full=None):
    """mine(ds, s, j) against the linear-scan dedup of the whole frequent
    listing, pattern for pattern and in order, for each j. The listing is
    the exhaustive oracle's, or ``expected_full`` checked by brute force."""
    transactions = _as_oracle_input(ds)
    if expected_full is None:
        expected_full = oracle_mined_patterns(transactions, min_support)
    else:
        oracle_check_mined(transactions, min_support, expected_full)
    for jaccard in CLOSED_JACCARDS:
        got = mine(ds, min_support, jaccard)
        expected = oracle_dedup_similar(expected_full, jaccard)
        assert [(p.items, p.support) for p in got] == [(p.items, p.support) for p in expected]
        assert all(p.licenses == tuple(sorted(ds.profiles)) for p in got)
        oracle_check_closed(transactions, got)
        # Any P + x of the list is frequent, so each listed P passed its own
        # test against it already: dedup drops nothing.
        assert list(map(id, dedup_similar(got, jaccard))) == list(map(id, got))


@st.composite
def _small_catalogs(draw):
    """Up to 8 profiles over the 6-term sub-vocabulary, some items held by
    every profile, and up to 3 copies of drawn profiles under new ids."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    held = draw(st.sampled_from([{}, {"include_copyright": "must"},
                                 {"distribute": "can", "state_changes": "must"}]))
    n = draw(st.integers(1, 8))
    profiles = [_restricted_random_profile(rng, f"L{i}", **held) for i in range(n)]
    for k, i in enumerate(draw(st.lists(st.integers(0, n - 1), max_size=3))):
        profiles.append(LicenseProfile(f"D{k}", f"D{k}", profiles[i].terms, CopyleftClass.NONE))
    return Dataset(profiles={p.spdx_id: p for p in profiles})


class TestClosedMine:
    """``mine(ds, s, j)``: the closed itemsets that dedup at ``j`` keeps."""

    def test_three_profile_fixture(self):
        # Both closed sets: {distribute} (A, B, C) and {distribute, sublicense}
        # (A, B), at Jaccard 2/3 to it, so only j <= 2/3 drops the smaller.
        expected = [((D_CAN,), 3), ((D_CAN, SUB_CAN), 2)]
        for jaccard in (1.0, 0.9):
            got = mine(THREE_PROFILE_FIXTURE, 2, jaccard)
            assert [(p.sorted_items(), p.support_count) for p in got] == expected
        got = mine(THREE_PROFILE_FIXTURE, 2, 0.5)
        assert [(p.sorted_items(), p.support_count) for p in got] == [((D_CAN, SUB_CAN), 2)]

    def test_random_datasets_equal_dedup_of_exhaustive_oracle_seeded(self):
        rng = random.Random(1618)
        for _ in range(25):
            n = rng.randint(1, 9)
            ds = Dataset(
                profiles={f"L{i}": _restricted_random_profile(rng, f"L{i}") for i in range(n)}
            )
            _assert_closed_search_matches(ds, rng.randint(1, n))

    @settings(max_examples=60, deadline=None)
    @given(_small_catalogs(), st.integers(1, 4))
    def test_small_catalogs_equal_dedup_of_exhaustive_oracle_hypothesis(self, ds, min_support):
        _assert_closed_search_matches(ds, min_support)

    @pytest.mark.parametrize(
        "seed, size, min_support", [(60, 60, 20), (60, 60, 30), (62, 200, 50)]
    )
    def test_family_catalogs_equal_dedup_of_full_listing(self, seed, size, min_support):
        # Family catalogs hold equal profiles and items that most profiles share.
        ds = _family_dataset(random.Random(seed), size)
        _assert_closed_search_matches(ds, min_support, mine(ds, min_support))

    @pytest.mark.parametrize(
        "seed, size, min_support", [(1, 40, 6), (1, 40, 8), (2, 60, 8), (2, 60, 10)]
    )
    def test_random_catalogs_equal_dedup_of_full_listing(self, seed, size, min_support):
        # Random profiles over all 22 terms: nearly every frequent set is closed.
        ds = loads_dataset(_catalog_text(seed, size))
        _assert_closed_search_matches(ds, min_support, mine(ds, min_support))

    @pytest.mark.parametrize("min_support", [5, 10, 17, 25])
    def test_bundled_dataset_equals_dedup_of_full_listing(self, seed_dataset, min_support):
        # Every bundled license grants distribution: the closure of the
        # empty itemset is not empty.
        assert mine(seed_dataset, len(seed_dataset))[0].sorted_items() == ("distribute=can",)
        _assert_closed_search_matches(seed_dataset, min_support, mine(seed_dataset, min_support))

    def test_support_above_the_profile_count_finds_nothing(self, seed_dataset):
        for jaccard in CLOSED_JACCARDS:
            assert mine(seed_dataset, len(seed_dataset) + 1, jaccard) == []
            assert mine(_ds(), 1, jaccard) == []

    def test_order_independent(self, seed_dataset):
        shuffled = Dataset(profiles=dict(reversed(seed_dataset.profiles.items())))
        for jaccard in CLOSED_JACCARDS:
            assert mine(shuffled, 3, jaccard) == mine(seed_dataset, 3, jaccard)

    @pytest.mark.parametrize("jaccard", [0.0, -0.5, 1.5, float("nan")])
    def test_invalid_jaccard(self, jaccard):
        with pytest.raises(InvalidThreshold, match="jaccard_min"):
            mine(THREE_PROFILE_FIXTURE, 2, jaccard)


# The id universe of hand-built patterns: dedup_similar compares bitsets
# only over one shared licenses tuple, as mine() gives its patterns. The
# T ids cover TestDedupWork's 63,808 disjoint supporters.
TEST_LICENSES = tuple(
    sorted(
        {
            *"ABCDEFGHX",
            *(f"L{i}" for i in range(9)),
            *(f"X{i}" for i in range(93)),
            *(f"T{i:05d}" for i in range(64_000)),
        }
    )
)
_TEST_BITS = {spdx_id: i for i, spdx_id in enumerate(TEST_LICENSES)}


def _pattern(items, ids):
    """A hand-built pattern over TEST_LICENSES, supported by ``ids``."""
    support = sum(1 << _TEST_BITS[i] for i in set(ids))
    return FrequentPattern(frozenset(items), support, TEST_LICENSES)


class TestDedup:
    def test_identical_support_nested_items_keeps_larger(self):
        small = _pattern([D_CAN], {"A", "B"})
        large = _pattern([D_CAN, SUB_CAN], {"A", "B"})
        survivors = dedup_similar([small, large], jaccard_min=0.9)
        assert survivors == [large]

    def test_disjoint_supports_both_kept(self):
        one = _pattern([D_CAN], {"A", "B"})
        other = _pattern([D_CAN, SUB_CAN], {"C", "D"})
        assert dedup_similar([one, other], 0.9) == [one, other]

    def test_unrelated_itemsets_not_merged_even_if_supports_match(self):
        one = _pattern([D_CAN], {"A", "B"})
        other = _pattern([SUB_CAN], {"A", "B"})
        assert dedup_similar([one, other], 0.9) == [one, other]

    def test_boundary_is_inclusive(self):
        # Jaccard exactly 0.9: the larger pattern's 9 supporters sit
        # inside the smaller pattern's 10.
        base = frozenset(f"L{i}" for i in range(9))
        small = _pattern([D_CAN], base | {"X"})
        large = _pattern([D_CAN, SUB_CAN], base)
        survivors = dedup_similar([small, large], jaccard_min=0.9)
        assert survivors == [large]
        kept_both = dedup_similar([small, large], jaccard_min=0.95)
        assert kept_both == [small, large]

    def test_invalid_jaccard(self):
        with pytest.raises(InvalidThreshold):
            dedup_similar([], 0.0)
        with pytest.raises(InvalidThreshold):
            dedup_similar([], 1.5)

    def test_size_window_edges_survive_rounding(self):
        # 7/100 is 0.07 as a float, yet 0.07 * 100 is 7.000000000000001 and
        # 7 / 0.07 is 99.99999999999999: a test on the two supporting-set
        # sizes alone would miss this pair, whose Jaccard is exactly 0.07.
        assert 0.07 * 100 > 7 and 7 / 0.07 < 100
        base = frozenset(f"L{i}" for i in range(7))
        small = _pattern([D_CAN], base | {f"X{i}" for i in range(93)})
        large = _pattern([D_CAN, SUB_CAN], base)
        assert dedup_similar([small, large], 0.07) == [large]
        assert dedup_similar([large, small], 0.07) == [large]

    @pytest.mark.parametrize("jaccard_min", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize(
        "seed, size, min_support", [(60, 60, 20), (60, 60, 25), (60, 60, 30), (62, 200, 50)]
    )
    def test_equals_linear_scan_on_family_catalogs(self, seed, size, min_support, jaccard_min):
        patterns = mine(_family_dataset(random.Random(seed), size), min_support)
        assert len(patterns) > 50
        _assert_dedup_matches_oracles(patterns, jaccard_min)

    @pytest.mark.parametrize("jaccard_min", [0.3, 0.5, 0.9, 1.0])
    def test_equals_linear_scan_in_reverse_order(self, seed_dataset, jaccard_min):
        # The mine()-order scan's patterns, reversed.
        patterns = mine(seed_dataset, 5)
        _assert_dedup_matches_oracles(patterns, jaccard_min, patterns[::-1])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mined_patterns_equal_linear_scan_hypothesis(self, data):
        # Low support over a 6-term vocabulary: itemsets overlap heavily, so
        # many patterns have a similar pattern one item larger. In mine()
        # order, reversed and shuffled.
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 8))
        ds = Dataset(
            profiles={f"L{i}": _restricted_random_profile(rng, f"L{i}") for i in range(n)}
        )
        patterns = mine(ds, data.draw(st.integers(1, 3)))
        shuffled = patterns[:]
        rng.shuffle(shuffled)
        for jaccard_min in (0.3, 0.5, 2 / 3, 0.9, 1.0):
            for order in (patterns, patterns[::-1], shuffled):
                _assert_dedup_matches_oracles(patterns, jaccard_min, order)

    def test_patterns_over_different_licenses_raise(self):
        one = mine(THREE_PROFILE_FIXTURE, 1)
        other = mine(_ds(_profile("A", distribute="can"), _profile("D", distribute="can")), 1)
        with pytest.raises(ValueError, match="different licenses"):
            dedup_similar(one + other, 0.9)
        # Equal tuples from two mine() calls are one universe.
        again = mine(THREE_PROFILE_FIXTURE, 1)
        assert again[0].licenses == one[0].licenses and again[0].licenses is not one[0].licenses
        mixed = [p if k % 2 else q for k, (p, q) in enumerate(zip(one, again))]
        got = dedup_similar(mixed, 0.9)
        kept = {p.items for p in dedup_similar(one, 0.9)}
        assert list(map(id, got)) == [id(p) for p in mixed if p.items in kept]

    def test_repeated_itemset_raises(self):
        one = _pattern([D_CAN], {"A", "B"})
        same_items = _pattern([D_CAN], {"C"})
        for patterns in ([one, one], [one, same_items]):
            with pytest.raises(ValueError, match="repeat an itemset"):
                dedup_similar(patterns, 0.9)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_one_item_oracle_hypothesis(self, data):
        # Any list, in any order, of patterns with distinct itemsets.
        pool = data.draw(
            st.lists(_hand_built_patterns, min_size=1, max_size=8, unique_by=lambda p: p.items)
        )
        order = data.draw(st.permutations(pool))
        jaccard_min = data.draw(
            st.sampled_from([0.3, 0.5, 0.9, 1.0, 0.07, 2 / 3])
            | st.floats(0, 1, exclude_min=True)
        )
        got = dedup_similar(order, jaccard_min)
        assert list(map(id, got)) == list(map(id, oracle_dedup_one_item(order, jaccard_min)))


_hand_built_patterns = st.builds(
    _pattern,
    st.frozensets(st.sampled_from([D_CAN, SUB_CAN, "modify=can"])),
    st.frozensets(st.sampled_from("ABCDEFGH"), max_size=8)
    | st.frozensets(st.sampled_from("ABCD"), max_size=3),
)


def _assert_dedup_matches_oracles(patterns, jaccard_min, order=None):
    """On a whole mine() result, dedup equals the linear scan in mine()
    order; any permutation ``order`` keeps the same patterns, in its own
    order, and equals the one-item oracle."""
    kept = dedup_similar(patterns, jaccard_min)
    assert list(map(id, kept)) == list(map(id, oracle_dedup_similar(patterns, jaccard_min)))
    order = patterns if order is None else order
    got = dedup_similar(order, jaccard_min)
    kept_ids = set(map(id, kept))
    assert list(map(id, got)) == [id(p) for p in order if id(p) in kept_ids]
    assert list(map(id, got)) == list(map(id, oracle_dedup_one_item(order, jaccard_min)))


class TestDedupWork:
    @pytest.mark.parametrize("jaccard_min", [0.9, 1.0])
    def test_one_jaccard_per_pattern_item(self, monkeypatch, jaccard_min):
        # A count, not a timing: at most one _jaccard per (pattern, item),
        # against the pattern without that item. The 1,322 patterns of this
        # catalog have 5,411 (pattern, item) pairs, and 165 to 724 of them
        # are kept: comparing each pattern with every kept one would cost
        # tens of times more.
        patterns = mine(_family_dataset(random.Random(3), 300), 70)
        calls = 0
        jaccard = mining._jaccard

        def counted(a, b):
            nonlocal calls
            calls += 1
            return jaccard(a, b)

        monkeypatch.setattr(mining, "_jaccard", counted)
        got = dedup_similar(patterns, jaccard_min)
        monkeypatch.undo()
        assert got == oracle_dedup_similar(patterns, jaccard_min)
        assert calls <= sum(len(p.items) for p in patterns)


_WIDE = 4_000  # bits: wider than any catalog's license count


class TestBits:
    """``sorted_ids`` reads the set bits of ``support`` off its binary digits."""

    @given(
        st.one_of(
            st.integers(0, (1 << _WIDE) - 1),
            st.sets(st.integers(0, _WIDE), max_size=64).map(lambda s: sum(1 << i for i in s)),
        )
    )
    @example(0)
    @example(1 << _WIDE | 2)
    def test_equals_brute_force_scan(self, mask):
        pattern = FrequentPattern(frozenset(), mask, TEST_LICENSES)
        assert list(pattern.sorted_ids()) == [
            TEST_LICENSES[i] for i in range(mask.bit_length()) if mask >> i & 1
        ]

    @pytest.mark.parametrize("min_support", [5, 10])
    def test_sorted_ids_are_the_sorted_supporting_ids(self, seed_dataset, min_support):
        patterns = mine(seed_dataset, min_support)
        patterns += mine(_family_dataset(random.Random(62), 200), 50)
        for p in patterns:
            assert list(p.sorted_ids()) == sorted(oracle_supporters(p))
            assert len(oracle_supporters(p)) == p.support_count


class TestCommonTermReport:
    def test_rows_sum_to_dataset_size(self, seed_dataset):
        report = common_term_report(seed_dataset)
        assert set(report) == set(TERM_ORDER)
        for term, row in report.items():
            assert sum(row.values()) == len(seed_dataset)

    def test_single_license_dataset(self, seed_dataset):
        ds = _ds(seed_dataset.profiles["MIT"])
        report = common_term_report(ds)
        for term, row in report.items():
            nonzero = [a for a, n in row.items() if n]
            assert len(nonzero) == 1

    def test_matches_manual_count(self, seed_dataset):
        from licterm.model import Term

        report = common_term_report(seed_dataset)
        manual = sum(
            1
            for p in seed_dataset.profiles.values()
            if p.terms[Term.DISTRIBUTE] is Attitude.CAN
        )
        assert report[Term.DISTRIBUTE][Attitude.CAN] == manual
        assert manual == 25  # every seed license grants distribution
