"""SPDX license expression parsing, rendering, and identifier normalization.

Grammar (recursive descent, left-recursion eliminated)::

    expression  = and_expr ("OR" and_expr)*
    and_expr    = with_expr ("AND" with_expr)*
    with_expr   = "(" expression ")" / license "+"? ("WITH" idstring)?
    license     = "DocumentRef-" idstring ":LicenseRef-" idstring / idstring

OR binds loosest, AND tighter, WITH tighter still, and the ``+``
(or-later) suffix is part of the identifier token. As in the SPDX
grammar, ``WITH`` follows a license id, never a parenthesized
expression. Operators are case-sensitive uppercase, per the SPDX
grammar; :func:`normalize` upcases stray lowercase operator words
before parsing raw metadata.

Normalization turns irregular raw license strings from package metadata
("mit", "Apache License 2.0", "GPLv2+") into canonical expressions, or
classifies them as unresolvable (no license, file reference, URL, hash,
or unknown name) while preserving the raw input.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Union

from ._frozen import Frozen

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import AliasTable

__all__ = [
    "LicenseRef",
    "And",
    "Or",
    "LicenseExpression",
    "ExpressionSyntaxError",
    "MAX_TOKENS",
    "parse_expression",
    "render",
    "expression_ids",
    "KnownLicenses",
    "UnresolvableReason",
    "Unresolvable",
    "NormalizationOutcome",
    "normalize",
]


# ---------------------------------------------------------------------------
# Expression tree
# ---------------------------------------------------------------------------


class _Node(Frozen):
    """Base of the tree classes: a tree prints as its :func:`render` form."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


class LicenseRef(_Node):
    """A single license id, optionally or-later and/or with an exception."""

    __slots__ = _fields = ("id", "or_later", "exception")

    def __init__(self, id: str, or_later: bool = False, exception: str | None = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "or_later", or_later)
        object.__setattr__(self, "exception", exception)


class _Operator(_Node):
    """A binary node; ``And`` and ``Or`` never compare equal to each other."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "LicenseExpression", right: "LicenseExpression"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Operator):
    __slots__ = ()


class Or(_Operator):
    __slots__ = ()


LicenseExpression = Union[LicenseRef, And, Or]


class ExpressionSyntaxError(ValueError):
    """Raised for malformed expressions; carries offset and expected tokens."""

    def __init__(self, raw: str, offset: int, expected: tuple[str, ...]):
        self.raw = raw
        self.offset = offset
        self.expected = expected
        super().__init__(
            f"syntax error at offset {offset}: expected {' or '.join(expected)}"
        )


# A reference into another SPDX document is one id token (SPDX 2.3 Annex D).
_ID_RE = re.compile(r"DocumentRef-[A-Za-z0-9.-]+:LicenseRef-[A-Za-z0-9.-]+|[A-Za-z0-9.-]+")
_OPERATORS = ("AND", "OR", "WITH")

#: Longest accepted expression, in tokens. Parsing, rendering, hashing and
#: checking recurse per nesting level or operand; this keeps them in bounds.
MAX_TOKENS = 256


def _tokenize(raw: str) -> list[tuple[str, str, int]]:
    """Yield (kind, text, offset) tokens; kinds: AND OR WITH ( ) ID EOF."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    n = len(raw)
    while pos < n:
        ch = raw[pos]
        if ch.isspace():
            pos += 1
            continue
        if len(tokens) == MAX_TOKENS:
            raise ExpressionSyntaxError(raw, pos, (f"at most {MAX_TOKENS} tokens",))
        if ch == "(":
            tokens.append(("(", "(", pos))
            pos += 1
            continue
        if ch == ")":
            tokens.append((")", ")", pos))
            pos += 1
            continue
        m = _ID_RE.match(raw, pos)
        if m is None:
            raise ExpressionSyntaxError(raw, pos, ("license-id", "(", ")"))
        text = m.group(0)
        pos = m.end()
        if text in _OPERATORS:
            tokens.append((text, text, m.start()))
            continue
        if pos < n and raw[pos] == "+":
            tokens.append(("ID", text + "+", m.start()))
            pos += 1
        else:
            tokens.append(("ID", text, m.start()))
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, raw: str):
        self.raw = raw
        self.tokens = _tokenize(raw)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, _, offset = self.peek()
        raise ExpressionSyntaxError(self.raw, offset, expected)

    def parse(self) -> LicenseExpression:
        expr = self.or_expr()
        if self.peek()[0] != "EOF":
            self.fail(("AND", "OR", "end-of-input"))
        return expr

    def or_expr(self) -> LicenseExpression:
        left = self.and_expr()
        while self.peek()[0] == "OR":
            self.advance()
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> LicenseExpression:
        left = self.with_expr()
        while self.peek()[0] == "AND":
            self.advance()
            left = And(left, self.with_expr())
        return left

    def with_expr(self) -> LicenseExpression:
        kind, text, _ = self.peek()
        if kind == "(":
            self.advance()
            expr = self.or_expr()
            if self.peek()[0] != ")":
                self.fail((")",))
            self.advance()
            return expr
        if kind != "ID":
            self.fail(("license-id", "("))
        self.advance()
        or_later = text.endswith("+")
        license_id = text[:-1] if or_later else text
        if self.peek()[0] != "WITH":
            return LicenseRef(license_id, or_later)
        self.advance()
        kind, exception, _ = self.peek()
        if kind != "ID" or exception.endswith("+"):
            self.fail(("exception-id",))
        self.advance()
        return LicenseRef(license_id, or_later, exception)


def parse_expression(raw: str) -> LicenseExpression:
    """Parse an SPDX expression string into a tree.

    Identifiers are taken as written; no normalization happens here.
    Raises :class:`ExpressionSyntaxError` with the byte offset and the
    set of tokens that would have been accepted.
    """
    return _Parser(raw).parse()


def render(expr: LicenseExpression) -> str:
    """Canonical string form; ``parse_expression(render(t)) == t`` for all trees."""
    if isinstance(expr, LicenseRef):
        text = expr.id + ("+" if expr.or_later else "")
        if expr.exception:
            text += f" WITH {expr.exception}"
        return text
    if isinstance(expr, And):
        left = render(expr.left)
        right = render(expr.right)
        if isinstance(expr.left, Or):
            left = f"({left})"
        if isinstance(expr.right, (Or, And)):
            right = f"({right})"
        return f"{left} AND {right}"
    left = render(expr.left)
    right = render(expr.right)
    if isinstance(expr.right, Or):
        right = f"({right})"
    return f"{left} OR {right}"


def expression_ids(expr: LicenseExpression) -> set[str]:
    """All license ids referenced anywhere in the tree."""
    if isinstance(expr, LicenseRef):
        return {expr.id}
    return expression_ids(expr.left) | expression_ids(expr.right)


# ---------------------------------------------------------------------------
# Identifier registry and normalization
# ---------------------------------------------------------------------------


def fold_key(text: str) -> str:
    """Normalization key: case-folded, whitespace-collapsed."""
    return " ".join(text.casefold().split())


class KnownLicenses:
    """The set of recognized SPDX ids with display names.

    Lookup is case-insensitive over both the ids and their full names.
    Ids that come in -only / -or-later pairs are linked so that a bare
    ``+`` suffix can be rewritten to the -or-later form. ``copyleft``
    holds the ids whose copyleft class is weak or strong, as
    :func:`licterm.dataset.known_licenses` reads it from the dataset.
    """

    def __init__(self, entries: Iterable[tuple[str, str]]):
        self.ids: set[str] = set()
        self.copyleft: set[str] = set()
        self._by_fold: dict[str, str] = {}
        self._by_name: dict[str, str] = {}
        for spdx_id, full_name in entries:
            self.add(spdx_id, full_name)

    def add(self, spdx_id: str, full_name: str = "") -> None:
        self.ids.add(spdx_id)
        self._by_fold[spdx_id.casefold()] = spdx_id
        if full_name:
            self._by_name[fold_key(full_name)] = spdx_id

    def __contains__(self, spdx_id: str) -> bool:
        return spdx_id in self.ids

    def match_id(self, raw: str) -> str | None:
        return self._by_fold.get(raw.casefold())

    def match_name(self, raw: str) -> str | None:
        return self._by_name.get(fold_key(raw))

    def or_later_variant(self, spdx_id: str) -> str | None:
        """The -or-later twin of an -only id (or of a bare paired base)."""
        if spdx_id.endswith("-only"):
            twin = spdx_id[: -len("-only")] + "-or-later"
        else:
            twin = spdx_id + "-or-later"
        return twin if twin in self.ids else None


class UnresolvableReason(Enum):
    NO_LICENSE = "no-license"
    FILE_REFERENCE = "file-reference"
    URL = "url"
    HASH_LIKE = "hash-like"
    UNKNOWN_NAME = "unknown-name"


class Unresolvable(Frozen):
    __slots__ = _fields = ("reason", "raw")

    def __init__(self, reason: UnresolvableReason, raw: str):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "raw", raw)

    def __str__(self) -> str:
        return f"unresolvable:{self.reason.value}"


NormalizationOutcome = Union[LicenseExpression, Unresolvable]

_NO_LICENSE_FORMS = {"", "unlicensed", "none", "no license", "no-license", "nolicense"}
_FILE_REF_RE = re.compile(
    r"""
    ^\.{0,2}[/\\]            # ./path, ../path, /path, \path
    | [/\\][^/\\\n]*\.\w+$   # something/path.ext, from the last separator
    | \.(txt|md|rst|html|license)$
    """,
    re.IGNORECASE | re.VERBOSE,
)
_FILE_NAMES = {"license", "licence", "copying", "license file", "in license file"}
_URL_RE = re.compile(r"^(https?|ftp)://|^www\.|://", re.IGNORECASE)
_HEX_RE = re.compile(r"[0-9a-fA-F]{32,}")
_LOWER_OP_RE = re.compile(r"\b(and|or|with)\b")


def _classify_special(trimmed: str) -> UnresolvableReason | None:
    folded = fold_key(trimmed)
    if folded in _NO_LICENSE_FORMS:
        return UnresolvableReason.NO_LICENSE
    if _URL_RE.search(trimmed):
        return UnresolvableReason.URL
    if (
        _FILE_REF_RE.search(trimmed)
        or folded in _FILE_NAMES
        or folded.startswith("see ")  # npm "SEE LICENSE IN <file>"
    ):
        return UnresolvableReason.FILE_REFERENCE
    if _HEX_RE.fullmatch(trimmed.replace(" ", "")):
        return UnresolvableReason.HASH_LIKE
    return None


def _resolve_id(
    raw_id: str, or_later: bool, aliases: "AliasTable", known: KnownLicenses
) -> tuple[str, bool] | None:
    """Map one identifier to canonical form, folding '+' into paired ids."""
    canonical = known.match_id(raw_id)
    if canonical is None:
        canonical = aliases.resolve(raw_id)
    if canonical is None:
        return None
    if not or_later:
        return canonical, False
    if canonical.endswith("-or-later"):
        return canonical, False
    twin = known.or_later_variant(canonical)
    if twin is not None:
        return twin, False
    return canonical, True


def _normalize_tree(
    expr: LicenseExpression, aliases: "AliasTable", known: KnownLicenses
) -> LicenseExpression | None:
    if isinstance(expr, LicenseRef):
        resolved = _resolve_id(expr.id, expr.or_later, aliases, known)
        if resolved is None:
            return None
        canonical, or_later = resolved
        return LicenseRef(canonical, or_later, expr.exception)
    left = _normalize_tree(expr.left, aliases, known)
    right = _normalize_tree(expr.right, aliases, known)
    if left is None or right is None:
        return None
    return And(left, right) if isinstance(expr, And) else Or(left, right)


def normalize(raw: str, aliases: "AliasTable", known: KnownLicenses) -> NormalizationOutcome:
    """Resolve a raw license string to a canonical expression, or classify why not.

    Pipeline: trim; recognize no-license markers, file references, URLs
    and hash-like strings; then try a case-insensitive id match, a full
    name match, and the alias table; finally parse the cleaned string as
    an expression and normalize every identifier in it. Any remaining
    failure is ``Unresolvable(UNKNOWN_NAME)``.
    """
    trimmed = raw.strip()
    special = _classify_special(trimmed)
    if special is not None:
        return Unresolvable(special, raw)

    for match in (known.match_id(trimmed), known.match_name(trimmed), aliases.resolve(trimmed)):
        if match is not None:
            return LicenseRef(match)

    cleaned = _LOWER_OP_RE.sub(lambda m: m.group(1).upper(), " ".join(trimmed.split()))
    try:
        tree = parse_expression(cleaned)
    except ExpressionSyntaxError:
        return Unresolvable(UnresolvableReason.UNKNOWN_NAME, raw)
    normalized = _normalize_tree(tree, aliases, known)
    if normalized is None:
        return Unresolvable(UnresolvableReason.UNKNOWN_NAME, raw)
    return normalized
