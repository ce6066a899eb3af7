import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from licterm.conflicts import check_expressions
from licterm.dataset import AliasTable
from licterm.expression import (
    _FILE_REF_RE,
    MAX_TOKENS,
    And,
    ExpressionSyntaxError,
    KnownLicenses,
    LicenseRef,
    Or,
    Unresolvable,
    UnresolvableReason,
    expression_ids,
    fold_key,
    normalize,
    parse_expression,
    render,
)

from conftest import random_expression
from oracles import (
    ORACLE_FILE_REF_RE,
    oracle_check_expressions,
    oracle_normalize,
    oracle_parse,
)


class TestParse:
    def test_single_id(self):
        assert parse_expression("MIT") == LicenseRef("MIT")

    def test_or(self):
        assert parse_expression("MIT OR Apache-2.0") == Or(
            LicenseRef("MIT"), LicenseRef("Apache-2.0")
        )

    def test_with_exception(self):
        expr = parse_expression("GPL-2.0-only WITH Classpath-exception-2.0")
        assert expr == LicenseRef("GPL-2.0-only", exception="Classpath-exception-2.0")

    def test_or_later_suffix(self):
        assert parse_expression("GPL-2.0+") == LicenseRef("GPL-2.0", or_later=True)

    def test_precedence_and_binds_tighter_than_or(self):
        assert parse_expression("A AND B OR C") == parse_expression("(A AND B) OR C")
        assert parse_expression("A OR B AND C") == parse_expression("A OR (B AND C)")

    def test_with_binds_tighter_than_and(self):
        expr = parse_expression("MIT AND GPL-2.0-only WITH Classpath-exception-2.0")
        assert expr == And(
            LicenseRef("MIT"),
            LicenseRef("GPL-2.0-only", exception="Classpath-exception-2.0"),
        )

    def test_nary_inputs_left_fold(self):
        assert parse_expression("A AND B AND C") == And(
            And(LicenseRef("A"), LicenseRef("B")), LicenseRef("C")
        )

    def test_dangling_operator_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("MIT OR")
        assert exc.value.offset == 6
        assert "license-id" in exc.value.expected

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(MIT OR ISC")

    def test_lowercase_operator_is_not_an_operator(self):
        # "and" tokenizes as an id, so two adjacent ids fail to parse.
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("MIT and ISC")

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_document_ref_is_one_id(self):
        # SPDX 2.3 Annex D: license-ref = ["DocumentRef-" idstring ":"] "LicenseRef-" idstring
        ref = "DocumentRef-spdx-tool-1.2:LicenseRef-MIT-Style-2"
        assert parse_expression(ref) == LicenseRef(ref)
        assert parse_expression(f"{ref} OR MIT") == Or(LicenseRef(ref), LicenseRef("MIT"))
        assert render(parse_expression(f"({ref}) AND MIT")) == f"{ref} AND MIT"

    @pytest.mark.parametrize(
        "raw, offset",
        [
            ("DocumentRef-x:MIT", 13),  # the ":" joins only a LicenseRef-
            ("DocumentRef-x:", 13),
            ("DocumentRef-x :LicenseRef-y", 14),
            ("DocumentRef-x: LicenseRef-y", 13),
            ("LicenseRef-y:DocumentRef-x", 12),
            ("DocumentRef-x:LicenseRef-y:LicenseRef-z", 26),
        ],
    )
    def test_malformed_document_ref_fails_at_the_colon(self, raw, offset):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(raw)
        assert exc.value.offset == offset

    def test_expression_ids(self):
        expr = parse_expression("MIT AND (ISC OR Zlib)")
        assert expression_ids(expr) == {"MIT", "ISC", "Zlib"}


class TestRenderRoundTrip:
    def test_render_minimal_parens(self):
        assert render(parse_expression("(MIT AND ISC) OR Zlib")) == "MIT AND ISC OR Zlib"
        assert render(parse_expression("MIT AND (ISC OR Zlib)")) == "MIT AND (ISC OR Zlib)"

    def test_round_trip_seeded_trees(self):
        rng = random.Random(20240817)
        for _ in range(500):
            tree = random_expression(rng)
            assert parse_expression(render(tree)) == tree
            assert str(tree) == render(tree)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_property(self, seed):
        tree = random_expression(random.Random(seed))
        assert parse_expression(render(tree)) == tree


def _nested(levels: int) -> str:
    return "(" * levels + "MIT" + ")" * levels


def _chain(op: str, operands: int) -> str:
    return f" {op} ".join(["MIT"] * operands)


def _with_frames(frames: int, work):
    """Run ``work`` with ``frames`` more Python frames on the stack."""
    return _with_frames(frames - 1, work) if frames else work()


# The longest expressions under the bound: 255 tokens each.
_AT_BOUND = [_nested(127), _chain("AND", 128), _chain("OR", 128)]
# One token past it, then far past it, nested and chained.
_PAST_BOUND = [_nested(128), _chain("AND", 129), _nested(300), _chain("AND", 1200)]


class TestTokenBound:
    def test_longest_cases_sit_one_token_under_the_bound(self):
        # Ids and operators alternate, and parentheses and WITH add tokens
        # in pairs, so a valid expression has an odd token count: 255 is
        # the longest one under the bound.
        assert MAX_TOKENS == 256
        assert len(_AT_BOUND[0].replace("(", " ( ").replace(")", " ) ").split()) == 255
        assert len(_AT_BOUND[1].split()) == len(_AT_BOUND[2].split()) == 255

    @pytest.mark.parametrize("text", _AT_BOUND, ids=["nested", "and-chain", "or-chain"])
    def test_longest_expressions_work_with_400_frames_in_use(
        self, text, seed_dataset, aliases, known
    ):
        def work():
            tree = parse_expression(text)
            assert parse_expression(render(tree)) == tree
            assert hash(tree) == hash(parse_expression(text))
            outcome = normalize(text, aliases, known)
            assert outcome == tree
            gpl = LicenseRef("GPL-3.0-only")
            for parent, dep in ((tree, gpl), (gpl, tree)):
                got = check_expressions(parent, dep, seed_dataset).findings
                if isinstance(tree, Or):  # the oracle tries all 2**127 choices
                    one = LicenseRef("MIT")
                    parent, dep = (one, dep) if parent is tree else (parent, one)
                assert len(got) == oracle_check_expressions(parent, dep, seed_dataset)

        _with_frames(400, work)

    @pytest.mark.parametrize("text", _PAST_BOUND, ids=["nested", "and-chain", "deep", "long"])
    def test_past_the_bound_is_a_syntax_error_naming_it(self, text, aliases, known):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(text)
        assert exc.value.expected == ("at most 256 tokens",)
        assert str(exc.value).endswith("expected at most 256 tokens")
        assert normalize(text, aliases, known) == Unresolvable(
            UnresolvableReason.UNKNOWN_NAME, text
        )

    def test_error_points_at_the_first_token_past_the_bound(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(_chain("AND", 129))
        # Token 256 is the 128th AND; token 257 is the MIT after it.
        assert exc.value.offset == len(_chain("AND", 128) + " AND ")

    def test_256_tokens_fail_on_grammar_not_on_the_bound(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(_chain("AND", 128) + " AND")
        assert "license-id" in exc.value.expected


@pytest.fixture(scope="module")
def tiny_known():
    known = KnownLicenses(
        [
            ("MIT", "MIT License"),
            ("Apache-2.0", "Apache License 2.0"),
            ("GPL-3.0-only", "GNU General Public License v3.0 only"),
            ("GPL-3.0-or-later", "GNU General Public License v3.0 or later"),
        ]
    )
    return known


class TestNormalize:
    def test_file_reference(self, aliases, known):
        outcome = normalize("SEE LICENSE IN LICENSE.TXT", aliases, known)
        assert outcome == Unresolvable(
            UnresolvableReason.FILE_REFERENCE, "SEE LICENSE IN LICENSE.TXT"
        )

    def test_case_fold_to_known_id(self, aliases, known):
        assert normalize("mit", aliases, known) == LicenseRef("MIT")

    def test_full_name_lookup(self, aliases, known):
        assert normalize("Apache License 2.0", aliases, known) == LicenseRef("Apache-2.0")

    def test_no_license_markers(self, aliases, known):
        for raw in ("", "   ", "UNLICENSED", "none", "None"):
            outcome = normalize(raw, aliases, known)
            assert isinstance(outcome, Unresolvable)
            assert outcome.reason is UnresolvableReason.NO_LICENSE
            assert outcome.raw == raw

    def test_unlicense_is_not_no_license(self, aliases, known):
        assert normalize("Unlicense", aliases, known) == LicenseRef("Unlicense")

    def test_url_and_hash(self, aliases, known):
        assert normalize("https://example.com/l", aliases, known).reason is UnresolvableReason.URL
        assert (
            normalize("0123456789abcdef0123456789abcdef", aliases, known).reason
            is UnresolvableReason.HASH_LIKE
        )

    def test_unknown_name(self, aliases, known):
        outcome = normalize("My Cool License", aliases, known)
        assert outcome == Unresolvable(UnresolvableReason.UNKNOWN_NAME, "My Cool License")

    def test_alias_expansion(self, aliases, known):
        assert normalize("Apache2", aliases, known) == LicenseRef("Apache-2.0")
        assert normalize("BSD", aliases, known) == LicenseRef("BSD-3-Clause")

    def test_plus_folds_into_or_later_pair(self, aliases, known):
        assert normalize("GPL-3.0+", aliases, known) == LicenseRef("GPL-3.0-or-later")
        assert normalize("gplv2+", aliases, known) == LicenseRef("GPL-2.0-or-later")

    def test_plus_kept_when_no_pair_exists(self, aliases, known):
        outcome = normalize("Apache-2.0+", aliases, known)
        assert outcome == LicenseRef("Apache-2.0", or_later=True)

    def test_expression_with_irregular_ids(self, aliases, known):
        outcome = normalize("(mit or apache2)", aliases, known)
        assert isinstance(outcome, Or)
        assert render(outcome) == "MIT OR Apache-2.0"

    def test_expression_with_unknown_leaf_is_unknown(self, aliases, known):
        outcome = normalize("MIT OR Foo-1.0", aliases, known)
        assert outcome == Unresolvable(UnresolvableReason.UNKNOWN_NAME, "MIT OR Foo-1.0")

    def test_custom_license_ref_is_unknown(self, aliases, known):
        outcome = normalize("LicenseRef-my-custom", aliases, known)
        assert outcome.reason is UnresolvableReason.UNKNOWN_NAME

    @pytest.mark.parametrize(
        "raw", ["DocumentRef-x:LicenseRef-y", "MIT OR DocumentRef-x:LicenseRef-y"]
    )
    def test_document_ref_is_unknown(self, raw, aliases, known):
        # It parses now, but no known id names it, as with a bare LicenseRef-.
        assert normalize(raw, aliases, known) == Unresolvable(UnresolvableReason.UNKNOWN_NAME, raw)
        assert oracle_normalize(raw, aliases, known) == normalize(raw, aliases, known)

    def test_idempotent_on_resolved(self, aliases, known):
        first = normalize("mit OR apache2 AND gpl-3.0+", aliases, known)
        assert not isinstance(first, Unresolvable)
        second = normalize(render(first), aliases, known)
        assert second == first

    def test_deterministic(self, aliases, known):
        raws = ["mit", "SEE LICENSE IN x.txt", "Apache2 OR gplv3"]
        first = [normalize(r, aliases, known) for r in raws]
        second = [normalize(r, aliases, known) for r in raws]
        assert first == second

    def test_without_alias_table(self, tiny_known):
        assert normalize("MIT", AliasTable(), tiny_known) == LicenseRef("MIT")
        assert isinstance(normalize("apache2", AliasTable(), tiny_known), Unresolvable)


# Pieces of raw license strings: ids in several cases, alias spellings and
# full names, ids with and without -only/-or-later twins, an exception, an
# unknown id, operators in every case, "+", parentheses, and the markers of
# each unresolvable form.
_RAW_IDS = [
    "MIT", "mit", "Apache-2.0", "apache2", "Apache License 2.0", "GPL-2.0-only",
    "gpl-2.0", "GPL-2.0-or-later", "gplv3", "LGPL-2.1-only", "BSD", "MIT License",
    "Classpath-exception-2.0", "Foo-1.0",
]
_RAW_PIECES = _RAW_IDS + [
    "and", "AND", "or", "OR", "Or", "with", "WITH", "+", "(", ")", " ", "\t",
    "UNLICENSED", "none", "SEE LICENSE IN", "LICENSE.txt", "./COPYING", "https://", "www.",
    "0123456789abcdef" * 2, "gpl-2.0+", "GPL-2.0-or-later+", "Apache-2.0+",
]
_NORMALIZE_TABLES = ["bundled", "empty"]


def _raw_license(rng: random.Random) -> str:
    """A well-formed expression over the pieces half the time, else a piece soup."""
    if rng.random() < 0.5:
        return rng.choice(["", " "]).join(
            rng.choice(_RAW_PIECES) for _ in range(rng.randint(0, 6))
        )

    def expr(depth):
        if depth > 2 or rng.random() < 0.4:
            text = rng.choice(_RAW_IDS) + rng.choice(["", "", "+"])
            if rng.random() < 0.1:
                text += " " + rng.choice(["with", "WITH"]) + " Classpath-exception-2.0"
            return text
        op = rng.choice(["and", "AND", "or", "OR"])
        text = f"{expr(depth + 1)} {op} {expr(depth + 1)}"
        return f"({text})" if rng.random() < 0.3 else text

    return expr(0)


class TestNormalizeOracle:
    @pytest.fixture(params=_NORMALIZE_TABLES)
    def table(self, request, aliases):
        return aliases if request.param == "bundled" else AliasTable()

    def test_seeded_strings_equal_oracle(self, table, known):
        rng = random.Random(20261019)
        reached = set()  # outcome kinds, and leaves with -or-later, + and WITH
        for _ in range(5_000):
            raw = _raw_license(rng)
            outcome = normalize(raw, table, known)
            assert outcome == oracle_normalize(raw, table, known), repr(raw)
            if isinstance(outcome, Unresolvable):
                reached.add(outcome.reason)
            else:
                reached.add(type(outcome))
                marks = ("-or-later", "+", " WITH ")
                reached.update(mark for mark in marks if mark in str(outcome))
        assert reached >= {*UnresolvableReason, LicenseRef, And, Or, "-or-later", "+", " WITH "}

    @given(
        st.lists(st.sampled_from(_RAW_PIECES), max_size=8),
        st.sampled_from(["", " "]),
        st.sampled_from(_NORMALIZE_TABLES),
    )
    def test_piece_strings_equal_oracle_hypothesis(self, aliases, known, pieces, sep, which):
        raw = sep.join(pieces)
        table = aliases if which == "bundled" else AliasTable()
        assert normalize(raw, table, known) == oracle_normalize(raw, table, known)


# Separators, dots, line breaks, odd spaces and a letter that case-folds to
# "s", plus whole words, so that short draws reach every alternative.
_FILE_REF_ALPHABET = ["/", "\\", ".", "\n", "\t", "\xa0", "\u017f", " ", "a", "E", "_", "1"]
_FILE_REF_WORDS = ["see", "SEE", "\u017fee", "license", "LICENSE", "txt", "md", "..", "x.y"]


def _is_file_reference(pattern, text: str) -> bool:
    """The file-reference test ``normalize`` makes: the pattern or a "see " prefix."""
    return bool(pattern.search(text)) or fold_key(text).startswith("see ")


class TestFileReferencePattern:
    def test_matches_oracle_on_seeded_strings(self):
        rng = random.Random(20261018)
        tokens = _FILE_REF_ALPHABET + _FILE_REF_WORDS
        for _ in range(20_000):
            text = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 10)))
            assert _is_file_reference(_FILE_REF_RE, text) == _is_file_reference(
                ORACLE_FILE_REF_RE, text
            ), repr(text)

    @given(st.lists(st.sampled_from(_FILE_REF_ALPHABET + _FILE_REF_WORDS), max_size=12))
    def test_matches_oracle_property(self, tokens):
        text = "".join(tokens)
        assert _is_file_reference(_FILE_REF_RE, text) == _is_file_reference(
            ORACLE_FILE_REF_RE, text
        )

    def test_linear_on_long_separator_runs(self):
        text = "a" + "/" * 1_000_000 + "b"
        start = time.perf_counter()
        assert _FILE_REF_RE.search(text) is None
        assert time.perf_counter() - start < 1.0


# Token texts for generated strings: ids with and without '+', an exception
# id, every operator and both parentheses.
_PARSE_PIECES = (
    "MIT", "Apache-2.0", "GPL-2.0+", "Classpath-exception-2.0", "AND", "OR", "WITH", "(", ")",
)


def _parse_outcome(parse, raw):
    """The tree ``parse`` builds, or ``("error", offset)`` of its syntax error."""
    try:
        return parse(raw)
    except ExpressionSyntaxError as exc:
        return ("error", exc.offset)


class TestParserOracle:
    """``parse_expression`` against the shunting-yard ``oracle_parse``."""

    def test_seeded_token_strings_equal_oracle(self):
        # Half are random pieces; half are the tokens of a tree with up to
        # two pieces inserted, deleted or replaced, so most are near misses.
        rng = random.Random(20)
        trees = errors = 0
        for _ in range(5000):
            if rng.random() < 0.5:
                pieces = [rng.choice(_PARSE_PIECES) for _ in range(rng.randint(0, 12))]
            else:
                text = _parenthesize_randomly(rng, random_expression(rng))
                pieces = re.findall(r"[()]|[^\s()]+", text)
                for _ in range(rng.randint(0, 2)):
                    at = rng.randint(0, len(pieces))
                    edit = rng.choice(("insert", "delete", "replace"))
                    if edit != "insert":
                        del pieces[at:at + 1]
                    if edit != "delete":
                        pieces.insert(at, rng.choice(_PARSE_PIECES))
            # An empty gap glues neighbours into one id token, such as "MITAND".
            raw = "".join(p + rng.choice(("", " ", " ", "  ")) for p in pieces)
            got = _parse_outcome(parse_expression, raw)
            assert got == _parse_outcome(oracle_parse, raw), raw
            if isinstance(got, tuple):
                errors += 1
            else:
                trees += 1
        assert trees > 200 and errors > 200

    def test_seeded_trees_equal_oracle(self):
        # Rendered trees, with optional extra parentheses around every operand.
        rng = random.Random(21)
        for _ in range(500):
            tree = random_expression(rng)
            assert oracle_parse(render(tree)) == parse_expression(render(tree)) == tree
            noisy = _parenthesize_randomly(rng, tree)
            assert oracle_parse(noisy) == parse_expression(noisy) == tree, noisy

    @pytest.mark.parametrize(
        "raw",
        [
            "MIT OR Apache-2.0 AND ISC",
            "MIT AND Apache-2.0 OR ISC AND Zlib",
            "A WITH B AND C OR D",
            "(MIT) WITH Classpath-exception-2.0",
            "(MIT WITH A) WITH B",
            "(MIT OR ISC) WITH A",
            "MIT WITH A WITH B",
            "MIT WITH GPL-2.0+",
            "DocumentRef-x:LicenseRef-y",
            "DocumentRef-x:LicenseRef-y+ WITH A OR MIT",
            "MIT WITH DocumentRef-x:LicenseRef-y",
            "DocumentRef-x:MIT",
            "DocumentRef-x :LicenseRef-y",
            "AND+",
            "MIT++",
            "((MIT)",
            "MIT)",
            "MIT ( ISC",
            "AND",
            "",
        ],
    )
    def test_edge_cases_equal_oracle(self, raw):
        assert _parse_outcome(parse_expression, raw) == _parse_outcome(oracle_parse, raw)

    @given(
        st.one_of(
            st.builds(
                lambda pieces, gaps: "".join(map("".join, zip(pieces, gaps))),
                st.lists(st.sampled_from(_PARSE_PIECES), max_size=16),
                st.lists(st.sampled_from(("", " ", "\t")), min_size=16, max_size=16),
            ),
            # Operator chains such as "ID0 WITH X AND ID1 OR Z": all valid.
            st.lists(st.sampled_from(("AND", "OR", "WITH X AND")), max_size=7).map(
                lambda ops: "".join(f"ID{i} {op} " for i, op in enumerate(ops)) + "Z"
            ),
        )
    )
    def test_token_strings_equal_oracle_hypothesis(self, raw):
        assert _parse_outcome(parse_expression, raw) == _parse_outcome(oracle_parse, raw)

    def test_document_ref_fragments_equal_oracle(self):
        # Glued and spaced fragments of "DocumentRef-d:LicenseRef-r", most of them malformed.
        pieces = ("DocumentRef-d", ":", "LicenseRef-r", "DocumentRef-d:LicenseRef-r", "+",
                  "MIT", "OR", "WITH", "(", ")")
        rng = random.Random(22)
        trees = errors = 0
        for _ in range(3000):
            raw = "".join(
                rng.choice(pieces) + rng.choice(("", "", " ")) for _ in range(rng.randint(1, 8))
            )
            got = _parse_outcome(parse_expression, raw)
            assert got == _parse_outcome(oracle_parse, raw), raw
            if isinstance(got, tuple):
                errors += 1
            else:
                trees += 1
        assert trees > 100 and errors > 100


def _parenthesize_randomly(rng, tree) -> str:
    if isinstance(tree, LicenseRef):
        text = render(tree)
        return f"({text})" if rng.random() < 0.3 else text
    op = "AND" if isinstance(tree, And) else "OR"
    text = (
        f"({_parenthesize_randomly(rng, tree.left)}) {op} "
        f"({_parenthesize_randomly(rng, tree.right)})"
    )
    return f"({text})" if rng.random() < 0.3 else text
