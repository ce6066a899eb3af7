import random
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from licterm.errors import FormatError
from licterm.semver import (
    RangeSyntaxError,
    Semver,
    _span,
    parse_range,
    resolve_range,
)

from oracles import oracle_resolve, oracle_satisfies


def v(text):
    return Semver.parse(text)


def by_key(versions):
    """``versions`` in precedence order, as resolve_range requires; ties keep their order."""
    return sorted(versions, key=attrgetter("key"))


class TestSemverParse:
    def test_basic(self):
        version = v("1.2.3")
        assert version.triple == (1, 2, 3)
        assert version.prerelease == ()

    def test_prerelease_and_build(self):
        version = v("1.2.3-beta.1+build.5")
        assert version.prerelease == ("beta", "1")
        assert version.build == "build.5"
        assert str(version) == "1.2.3-beta.1+build.5"

    @pytest.mark.parametrize(
        "bad",
        ["1.2", "1", "v1.2.3", "1.2.3.4", "01.2.3", "", "x", "1.0.0-a..b", "1.0.0+a..b"]
        # "\u0661" is ARABIC-INDIC DIGIT ONE; numeric parts are ASCII digits only.
        + ["1\u0661.0.0", "1.2.1\u0661"],
    )
    def test_rejects_non_semver(self, bad):
        with pytest.raises(FormatError):
            Semver.parse(bad)

    def test_precedence_ordering(self):
        ordering = [
            "1.0.0-alpha",
            "1.0.0-alpha.1",
            "1.0.0-alpha.beta",
            "1.0.0-beta",
            "1.0.0-beta.2",
            "1.0.0-beta.11",
            "1.0.0-rc.1",
            "1.0.0",
            "2.0.0",
            "2.1.0",
            "2.1.1",
        ]
        parsed = [v(t) for t in ordering]
        assert parsed == sorted(parsed)

    def test_build_ignored_in_precedence(self):
        assert v("1.2.3+a") == v("1.2.3+b")
        assert not v("1.2.3+a") < v("1.2.3+b")


class TestRangeExamples:
    def test_caret_picks_highest_in_major(self):
        rng = parse_range("^1.2.3")
        available = [v("1.2.2"), v("1.2.4"), v("1.3.0"), v("2.0.0")]
        assert resolve_range(rng, by_key(available)) == v("1.3.0")

    def test_tilde_bounds_to_minor(self):
        rng = parse_range("~1.2.3")
        assert resolve_range(rng, by_key([v("1.2.4"), v("1.3.0")])) == v("1.2.4")

    def test_star_over_empty_domain(self):
        assert resolve_range(parse_range("*"), []) is None

    @pytest.mark.parametrize(
        "range_str,versions,expected",
        [
            ("1.2.3", ["1.2.3", "1.2.4"], "1.2.3"),
            ("=1.2.3", ["1.2.3"], "1.2.3"),
            (">=1.2.0 <2.0.0", ["1.1.0", "1.9.9", "2.0.0"], "1.9.9"),
            (">1.0.0", ["1.0.0", "1.0.1"], "1.0.1"),
            ("<=2.0.0", ["2.0.0", "2.0.1"], "2.0.0"),
            ("1.2.x", ["1.2.0", "1.2.9", "1.3.0"], "1.2.9"),
            ("1.x", ["1.9.9", "2.0.0"], "1.9.9"),
            ("1.2", ["1.2.5", "1.3.0"], "1.2.5"),
            ("^0.2.3", ["0.2.4", "0.3.0"], "0.2.4"),
            ("^0.0.3", ["0.0.3", "0.0.4"], "0.0.3"),
            ("^0", ["0.9.1", "1.0.0"], "0.9.1"),
            ("~1", ["1.4.5", "2.0.0"], "1.4.5"),
            ("~1.2", ["1.2.9", "1.3.0"], "1.2.9"),
            ("1.2.3 - 2.3.4", ["1.2.2", "2.3.4", "2.3.5"], "2.3.4"),
            ("1.2.3 || 2.0.0", ["1.2.3", "2.0.0", "3.0.0"], "2.0.0"),
            ("*", ["0.0.1", "4.5.6"], "4.5.6"),
            ("x", ["0.0.1"], "0.0.1"),
            ("", ["1.0.0"], "1.0.0"),
        ],
    )
    def test_examples(self, range_str, versions, expected):
        rng = parse_range(range_str)
        got = resolve_range(rng, by_key([v(t) for t in versions]))
        assert got == v(expected)

    def test_no_match(self):
        assert resolve_range(parse_range("^3.0.0"), by_key([v("1.0.0"), v("2.0.0")])) is None

    @pytest.mark.parametrize(
        "bad",
        [
            "latest",
            "git+https://example.com/repo.git",
            "1.2.3 -",
            "- 1.2.3",
            "1.0.0 ||",
            ">*",
            "<*",
            "=*",
            "1.2-beta",
            "^1-rc.1",
            "^1.2.3 - 2.0.0",
            ">=",
            "~>",
            "1.2.3 ^",
            "file:../local",
            ">=1.0.0-a..b",
            "1.0.0+a..b",
            "^\u0661.2.3",  # ARABIC-INDIC DIGIT ONE, not an ASCII digit
            "1.\u0661",
        ],
    )
    def test_unsupported_forms_raise(self, bad):
        with pytest.raises(RangeSyntaxError):
            parse_range(bad)


# The desugaring spec: every operator (none, =, ^, ~, >, >=, <, <=) against
# "*", "M", "M.m", "M.x.p", "M.m.p" and "M.m.p-pre", with zero and non-zero
# leading parts, each mapped to the text of its comparators, then hyphen,
# spaced and "~>" forms. A conjunction's comparators are joined by spaces
# and alternatives by " || ". The forms that raise (">*", "<*", "=*",
# "1.2-beta") are in test_unsupported_forms_raise.
DESUGARED = [
    ("*", ""),
    ("0", ">=0.0.0 <1.0.0"),
    ("1", ">=1.0.0 <2.0.0"),
    ("0.0", ">=0.0.0 <0.1.0"),
    ("0.2", ">=0.2.0 <0.3.0"),
    ("1.2", ">=1.2.0 <1.3.0"),
    ("0.x.3", ">=0.0.0 <1.0.0"),
    ("1.x.3", ">=1.0.0 <2.0.0"),
    ("0.0.0", "=0.0.0"),
    ("0.0.3", "=0.0.3"),
    ("0.2.3", "=0.2.3"),
    ("1.2.3", "=1.2.3"),
    ("0.0.3-beta", "=0.0.3-beta"),
    ("0.2.3-beta", "=0.2.3-beta"),
    ("1.2.3-beta", "=1.2.3-beta"),
    ("=0", ">=0.0.0 <1.0.0"),
    ("=1", ">=1.0.0 <2.0.0"),
    ("=0.0", ">=0.0.0 <0.1.0"),
    ("=0.2", ">=0.2.0 <0.3.0"),
    ("=1.2", ">=1.2.0 <1.3.0"),
    ("=0.x.3", ">=0.0.0 <1.0.0"),
    ("=1.x.3", ">=1.0.0 <2.0.0"),
    ("=0.0.0", "=0.0.0"),
    ("=0.0.3", "=0.0.3"),
    ("=0.2.3", "=0.2.3"),
    ("=1.2.3", "=1.2.3"),
    ("=0.0.3-beta", "=0.0.3-beta"),
    ("=0.2.3-beta", "=0.2.3-beta"),
    ("=1.2.3-beta", "=1.2.3-beta"),
    ("^*", ""),
    ("^0", ">=0.0.0 <1.0.0"),
    ("^1", ">=1.0.0 <2.0.0"),
    ("^0.0", ">=0.0.0 <0.1.0"),
    ("^0.2", ">=0.2.0 <0.3.0"),
    ("^1.2", ">=1.2.0 <2.0.0"),
    ("^0.x.3", ">=0.0.0 <1.0.0"),
    ("^1.x.3", ">=1.0.0 <2.0.0"),
    ("^0.0.0", ">=0.0.0 <0.0.1"),
    ("^0.0.3", ">=0.0.3 <0.0.4"),
    ("^0.2.3", ">=0.2.3 <0.3.0"),
    ("^1.2.3", ">=1.2.3 <2.0.0"),
    ("^0.0.3-beta", ">=0.0.3-beta <0.0.4"),
    ("^0.2.3-beta", ">=0.2.3-beta <0.3.0"),
    ("^1.2.3-beta", ">=1.2.3-beta <2.0.0"),
    ("~*", ""),
    ("~0", ">=0.0.0 <1.0.0"),
    ("~1", ">=1.0.0 <2.0.0"),
    ("~0.0", ">=0.0.0 <0.1.0"),
    ("~0.2", ">=0.2.0 <0.3.0"),
    ("~1.2", ">=1.2.0 <1.3.0"),
    ("~0.x.3", ">=0.0.0 <1.0.0"),
    ("~1.x.3", ">=1.0.0 <2.0.0"),
    ("~0.0.0", ">=0.0.0 <0.1.0"),
    ("~0.0.3", ">=0.0.3 <0.1.0"),
    ("~0.2.3", ">=0.2.3 <0.3.0"),
    ("~1.2.3", ">=1.2.3 <1.3.0"),
    ("~0.0.3-beta", ">=0.0.3-beta <0.1.0"),
    ("~0.2.3-beta", ">=0.2.3-beta <0.3.0"),
    ("~1.2.3-beta", ">=1.2.3-beta <1.3.0"),
    (">0", ">=1.0.0"),
    (">1", ">=2.0.0"),
    (">0.0", ">=0.1.0"),
    (">0.2", ">=0.3.0"),
    (">1.2", ">=1.3.0"),
    (">0.x.3", ">=1.0.0"),
    (">1.x.3", ">=2.0.0"),
    (">0.0.0", ">0.0.0"),
    (">0.0.3", ">0.0.3"),
    (">0.2.3", ">0.2.3"),
    (">1.2.3", ">1.2.3"),
    (">0.0.3-beta", ">0.0.3-beta"),
    (">0.2.3-beta", ">0.2.3-beta"),
    (">1.2.3-beta", ">1.2.3-beta"),
    (">=*", ""),
    (">=0", ">=0.0.0"),
    (">=1", ">=1.0.0"),
    (">=0.0", ">=0.0.0"),
    (">=0.2", ">=0.2.0"),
    (">=1.2", ">=1.2.0"),
    (">=0.x.3", ">=0.0.0"),
    (">=1.x.3", ">=1.0.0"),
    (">=0.0.0", ">=0.0.0"),
    (">=0.0.3", ">=0.0.3"),
    (">=0.2.3", ">=0.2.3"),
    (">=1.2.3", ">=1.2.3"),
    (">=0.0.3-beta", ">=0.0.3-beta"),
    (">=0.2.3-beta", ">=0.2.3-beta"),
    (">=1.2.3-beta", ">=1.2.3-beta"),
    ("<0", "<0.0.0"),
    ("<1", "<1.0.0"),
    ("<0.0", "<0.0.0"),
    ("<0.2", "<0.2.0"),
    ("<1.2", "<1.2.0"),
    ("<0.x.3", "<0.0.0"),
    ("<1.x.3", "<1.0.0"),
    ("<0.0.0", "<0.0.0"),
    ("<0.0.3", "<0.0.3"),
    ("<0.2.3", "<0.2.3"),
    ("<1.2.3", "<1.2.3"),
    ("<0.0.3-beta", "<0.0.3-beta"),
    ("<0.2.3-beta", "<0.2.3-beta"),
    ("<1.2.3-beta", "<1.2.3-beta"),
    ("<=*", ""),
    ("<=0", "<1.0.0"),
    ("<=1", "<2.0.0"),
    ("<=0.0", "<0.1.0"),
    ("<=0.2", "<0.3.0"),
    ("<=1.2", "<1.3.0"),
    ("<=0.x.3", "<1.0.0"),
    ("<=1.x.3", "<2.0.0"),
    ("<=0.0.0", "<=0.0.0"),
    ("<=0.0.3", "<=0.0.3"),
    ("<=0.2.3", "<=0.2.3"),
    ("<=1.2.3", "<=1.2.3"),
    ("<=0.0.3-beta", "<=0.0.3-beta"),
    ("<=0.2.3-beta", "<=0.2.3-beta"),
    ("<=1.2.3-beta", "<=1.2.3-beta"),
    ("x", ""),
    ("1.X", ">=1.0.0 <2.0.0"),
    ("x.2.3", ""),
    ("v1.2.3", "=1.2.3"),
    ("=v1.2", ">=1.2.0 <1.3.0"),
    ("1.2.3+build", "=1.2.3"),
    ("^1.2.3-rc.1+build", ">=1.2.3-rc.1 <2.0.0"),
    ("1.2.3 - 2.3.4-rc.1", ">=1.2.3 <=2.3.4-rc.1"),
    # node-semver's "Advanced Range Syntax" hyphen examples: each end is a
    # token, ">=" on the low end and "<=" on the high end.
    ("1.2 - 2.3.4", ">=1.2.0 <=2.3.4"),
    ("1.2.3 - 2.3", ">=1.2.3 <2.4.0"),
    ("1.2.3 - 2", ">=1.2.3 <3.0.0"),
    ("1.2 - 2.0.0", ">=1.2.0 <=2.0.0"),
    ("* - 2", "<3.0.0"),
    ("1.2.3 - *", ">=1.2.3"),
    # An operator may be followed by spaces, and "~>" is "~".
    (">= 1.2.3", ">=1.2.3"),
    ("^ 1.2.3", ">=1.2.3 <2.0.0"),
    ("<  2", "<2.0.0"),
    ("~>1.2", ">=1.2.0 <1.3.0"),
    ("~> 1.2.3", ">=1.2.3 <1.3.0"),
    (">= 1.2 < 2", ">=1.2.0 <2.0.0"),
    (">=1.2 <2", ">=1.2.0 <2.0.0"),
    ("^1.2 || ~0.1", ">=1.2.0 <2.0.0 || >=0.1.0 <0.2.0"),
]


class TestDesugaring:
    @pytest.mark.parametrize("range_str,expected", DESUGARED)
    def test_comparators(self, range_str, expected):
        rng = parse_range(range_str)
        got = " || ".join(
            " ".join(f"{c.op}{c.version}" for c in conjunction) for conjunction in rng.alternatives
        )
        assert got == expected


class TestPrereleaseRule:
    def test_excluded_by_default(self):
        rng = parse_range("^1.0.0")
        assert resolve_range(rng, by_key([v("1.1.0-beta.1"), v("1.0.5")])) == v("1.0.5")

    def test_allowed_when_range_names_same_triple(self):
        rng = parse_range(">=1.1.0-alpha <2.0.0")
        assert resolve_range(rng, by_key([v("1.1.0-beta.1"), v("1.0.5")])) == v("1.1.0-beta.1")

    def test_not_allowed_for_different_triple(self):
        rng = parse_range(">=1.1.0-alpha")
        # 1.2.0-beta has a different triple than the anchored 1.1.0.
        assert resolve_range(rng, by_key([v("1.2.0-beta")])) is None

    def test_exact_prerelease(self):
        rng = parse_range("1.2.3-beta.1")
        assert resolve_range(rng, by_key([v("1.2.3-beta.1"), v("1.2.3-beta.2")])) == v("1.2.3-beta.1")


class TestWindowBoundaries:
    """Each operator, a hyphen range and a disjunction at a prerelease edge."""

    @pytest.mark.parametrize(
        "range_str,versions,expected",
        [
            (">1.2.3-alpha", ["1.2.3-beta", "1.2.3"], "1.2.3"),
            (">1.2.3-alpha", ["1.2.3-beta", "1.2.2"], "1.2.3-beta"),
            (">1.2.3-beta", ["1.2.3-beta", "1.2.3-alpha"], None),
            (">=1.2.3-rc.1", ["1.2.3-rc.1", "1.2.4-beta"], "1.2.3-rc.1"),
            (">=1.2.3", ["1.2.3-rc.1", "1.2.2"], None),
            ("<1.2.3", ["1.2.3-rc.1", "1.2.2"], "1.2.2"),
            ("<1.2.3-rc.2", ["1.2.3-rc.1", "1.2.3-rc.2", "1.2.2", "1.2.3"], "1.2.3-rc.1"),
            ("<=1.2.3-rc.1", ["1.2.3-rc.2", "1.2.3-rc.1", "1.2.2"], "1.2.3-rc.1"),
            ("<=1.2.3", ["1.2.3-rc.1", "1.2.3", "1.2.4"], "1.2.3"),
            ("=1.2.3-rc.1", ["1.2.3", "1.2.3-rc.1+a", "1.2.3-rc.1+b"], "1.2.3-rc.1+a"),
            ("=1.2.3", ["1.2.3-rc.1", "1.2.3+b", "1.2.3+a", "1.2.4"], "1.2.3+b"),
            ("1.2.3-alpha - 1.2.3", ["1.2.3-beta", "1.2.3", "1.2.4"], "1.2.3"),
            ("1.2.3-alpha - 1.2.3", ["1.2.3-beta", "1.2.2", "1.2.4-rc.1"], "1.2.3-beta"),
            ("1.2.0 - 1.2.3-rc.1", ["1.2.3-rc.2", "1.2.3-rc.1", "1.2.2"], "1.2.3-rc.1"),
            ("<1.2.3 || >=2.0.0-beta <2.0.0", ["1.2.3-rc.1", "1.2.2", "2.0.0-rc.1", "2.0.0"], "2.0.0-rc.1"),
            ("1.2.3-rc.1 || <1.0.0", ["0.9.0", "1.2.3-rc.2", "1.2.3-rc.1"], "1.2.3-rc.1"),
            # A prerelease comparator in one alternative admits that triple's
            # prereleases through the other alternative too.
            (">=1.0.0 <2.0.0 || =1.2.3-rc.5", ["1.2.3-rc.9", "1.2.2"], "1.2.3-rc.9"),
            # Several bounds on one side: the tightest holds, ">" over ">=" and "<" over "<=".
            (">=1.2.3 >1.2.3 <=1.3.0 <1.3.0", ["1.2.3", "1.2.4", "1.3.0"], "1.2.4"),
            (">1.2.3 >=1.2.3 <1.3.0 <=1.3.0", ["1.2.3", "1.2.9", "1.3.0"], "1.2.9"),
            ("=1.2.3 >=1.0.0 <2.0.0", ["1.2.3", "1.5.0"], "1.2.3"),
            (">=1.2.3 <2.0.0 >=1.5.0 <1.9.0", ["1.4.0", "1.8.0", "1.9.0"], "1.8.0"),
            ("^1.2.3 <1.0.0", ["0.9.0", "1.2.3"], None),
        ],
    )
    def test_against_oracle(self, range_str, versions, expected):
        rng = parse_range(range_str)
        for order in (versions, versions[::-1]):
            available = [v(t) for t in order]
            assert str(resolve_range(rng, by_key(available))) == str(oracle_resolve(rng, available))
        assert str(resolve_range(rng, by_key([v(t) for t in versions]))) == str(expected)


def _random_version(rng: random.Random) -> Semver:
    pre = ()
    if rng.random() < 0.25:
        pool = ("alpha", "beta", "rc", "0", "1", "2", "11")
        pre = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
    return Semver(rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 6), pre)


def _random_range(rng: random.Random) -> str:
    def partial():
        forms = [
            f"{rng.randint(0, 3)}.{rng.randint(0, 4)}.{rng.randint(0, 6)}",
            f"{rng.randint(0, 3)}.{rng.randint(0, 4)}",
            f"{rng.randint(0, 3)}",
            f"{rng.randint(0, 3)}.x",
            f"{rng.randint(0, 3)}.{rng.randint(0, 4)}.x",
            "*",
        ]
        text = rng.choice(forms)
        if rng.random() < 0.2 and text.count(".") == 2 and "x" not in text:
            text += "-" + rng.choice(("alpha", "beta.1", "rc.2"))
        return text

    def simple():
        kind = rng.random()
        space = rng.choice(("", "", " ", "  "))
        if kind < 0.25:
            return rng.choice(("^", "~", "~>")) + space + partial()
        if kind < 0.5:
            return rng.choice((">", ">=", "<", "<=", "=")) + space + partial()
        if kind < 0.6:
            return f"{partial()} - {partial()}"
        return partial()

    conj = " ".join(simple() for _ in range(rng.randint(1, 2)))
    if rng.random() < 0.25:
        return f"{conj} || {simple()}"
    return conj


def _with_build_twins(rng: random.Random, versions: list[Semver]) -> list[Semver]:
    """Add precedence-equal twins (``+a``, ``+b``) of some versions, shuffled in."""
    out = list(versions)
    for version in versions:
        if rng.random() < 0.3:
            for build in ("a", "b"):
                out.append(Semver(version.major, version.minor, version.patch, version.prerelease, build))
    rng.shuffle(out)
    return out


class TestOracleEquivalence:
    def test_resolve_matches_oracle_seeded_bulk(self):
        # Precedence ties are resolved to the first in input order (the
        # stable sort keeps it), so the text (build metadata included) must
        # match too, not just `==`.
        rng = random.Random(0x5EED)
        checked = 0
        for _ in range(2000):
            range_str = _random_range(rng)
            try:
                parsed = parse_range(range_str)
            except RangeSyntaxError:
                continue
            available = _with_build_twins(
                rng, [_random_version(rng) for _ in range(rng.randint(0, 12))]
            )
            got, expected = resolve_range(parsed, by_key(available)), oracle_resolve(parsed, available)
            context = (range_str, [str(a) for a in available])
            assert got == expected, context
            assert str(got) == str(expected), context
            checked += 1
        assert checked > 1500

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_satisfies_matches_oracle_hypothesis(self, seed):
        rng = random.Random(seed)
        range_str = _random_range(rng)
        try:
            parsed = parse_range(range_str)
        except RangeSyntaxError:
            return
        for _ in range(10):
            version = _random_version(rng)
            assert parsed.satisfies(version) == oracle_satisfies(parsed, version)


class TestSpanCache:
    def test_cold_and_warm_cache_give_equal_ranges(self):
        rng = random.Random(0xCAC4E)
        texts = [range_str for range_str, _ in DESUGARED] + [_random_range(rng) for _ in range(500)]

        def parse_all():
            out = []
            for text in texts:
                try:
                    parsed = parse_range(text)
                except RangeSyntaxError as exc:
                    out.append(str(exc))
                else:
                    out.append((parsed, parsed.bounds))
            return out

        _span.cache_clear()
        cold = parse_all()
        assert _span.cache_info().currsize > 0
        warm = parse_all()
        assert _span.cache_info().hits > 0
        assert warm == cold

    @pytest.mark.parametrize("bad", [">*", "^1.2.x-rc.1", "1.2.3 - >2"])
    def test_bad_token_raises_every_time(self, bad):
        _span.cache_clear()
        for _ in range(3):
            with pytest.raises(RangeSyntaxError):
                parse_range(bad)
        assert parse_range("^1.2.3") == parse_range("^1.2.3")
