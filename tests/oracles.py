"""Independent brute-force re-implementations used as test oracles.

These deliberately avoid the library's own computation paths: rule
checking is a direct transcription over all 22 terms, mining is
exhaustive subset enumeration, closedness intersects each pattern's
supporters' items, dedup compares each pattern with every
kept one or, for the one-item rule, with every pattern of the list,
expression checking tries every left/right assignment of every OR
node, scanning checks every edge on its own that way, range
satisfaction re-implements semver precedence from scratch, snapshot
and graph files are parsed line by line with no memo, the
file-reference pattern is written the direct way, the dataset file is
split into records before each profile is parsed and checked against
rules written out here, normalization is a flat list of rules tried in
order, license changes diff each package's sorted records on their
own, expressions are parsed by a shunting-yard loop instead of
recursive descent over tokens read one regex match at a time, and the
graph file is written record by record with its own version rendering
and precedence sort. They share only the data types, ``Semver.parse``,
for parsing the token limit, for normalization the expression parser
and the registry's and alias table's lookups, and, for scanning and
license changes, ``normalize``.
"""

import datetime as dt
import re
from collections import Counter
from itertools import combinations, product

from licterm.conflicts import ConflictType
from licterm.expression import (
    MAX_TOKENS,
    And,
    ExpressionSyntaxError,
    LicenseRef,
    Or,
    Unresolvable,
    UnresolvableReason,
    normalize,
    parse_expression,
    render,
)
from licterm.dataset import Dataset
from licterm.errors import DuplicateVersionError, FormatError, ValidationError
from licterm.mining import FrequentPattern
from licterm.model import Attitude, CopyleftClass, LicenseProfile, Term, TermKind
from licterm.registry import (
    GRAPH_HEADER,
    UNRESOLVED_REASONS,
    DependencyGraph,
    Edge,
    LicenseChange,
    Unresolved,
    VersionRecord,
)
from licterm.scan import NO_LICENSE_BUCKET, ScanReport
from licterm.semver import Semver, VersionRange, parse_range, RangeSyntaxError


def oracle_check_profiles(parent, dep, strict=False):
    """Direct transcription of the three rules; returns (type, term, pa, da)."""
    findings = []
    for term in Term:
        if term.kind is not TermKind.RIGHT:
            continue
        pa, da = parent.terms[term], dep.terms[term]
        if pa is Attitude.CAN and da is Attitude.CANNOT:
            findings.append(("C1", term, pa, da))
        elif pa is Attitude.CAN and strict and da is Attitude.NOT_MENTIONED:
            findings.append(("C1", term, pa, da))
    for term in Term:
        if term.kind is not TermKind.OBLIGATION:
            continue
        pa, da = parent.terms[term], dep.terms[term]
        if pa is Attitude.NOT_MENTIONED and da is Attitude.MUST:
            findings.append(("C2", term, pa, da))
    if dep.copyleft is not CopyleftClass.NONE:
        for term in Term:
            if term.kind is not TermKind.RIGHT:
                continue
            pa, da = parent.terms[term], dep.terms[term]
            if da is Attitude.CAN and pa is not Attitude.CAN:
                findings.append(("C3", term, pa, da))
    return findings


def oracle_matrix(ds, strict=False):
    """Naive double loop over ordered pairs; returns counts and degrees."""
    ids = list(ds.profiles)
    counts = {"C1": 0, "C2": 0, "C3": 0}
    neighbors = {ctype: {i: set() for i in ids} for ctype in counts}
    for parent_id in ids:
        for dep_id in ids:
            if parent_id == dep_id:
                continue
            found = oracle_check_profiles(
                ds.profiles[parent_id], ds.profiles[dep_id], strict
            )
            for ctype in counts:
                if any(f[0] == ctype for f in found):
                    counts[ctype] += 1
                    neighbors[ctype][parent_id].add(dep_id)
                    neighbors[ctype][dep_id].add(parent_id)
    degrees = {
        i: (
            len(neighbors["C1"][i]),
            len(neighbors["C2"][i]),
            len(neighbors["C3"][i]),
        )
        for i in ids
    }
    return counts, degrees


def oracle_leaf_sequences(expr):
    """The distinct leaf sequences reached over every OR assignment.

    Each OR node, named by its path from the root, is assigned "l" or
    "r"; a walk then follows the assigned branch of each OR and both
    branches of each AND.
    """
    or_paths = []

    def collect(node, path):
        if isinstance(node, LicenseRef):
            return
        if isinstance(node, Or):
            or_paths.append(path)
        collect(node.left, path + "l")
        collect(node.right, path + "r")

    collect(expr, "")
    sequences = {}
    for sides in product("lr", repeat=len(or_paths)):
        pick = dict(zip(or_paths, sides))
        leaves = []

        def walk(node, path):
            if isinstance(node, LicenseRef):
                leaves.append(node)
            elif isinstance(node, Or):
                side = pick[path]
                walk(node.left if side == "l" else node.right, path + side)
            else:
                walk(node.left, path + "l")
                walk(node.right, path + "r")

        walk(expr, "")
        sequences[tuple(leaves)] = None
    return list(sequences)


# (id(parent profile), id(dep profile), strict) -> (parent, dep, findings).
# Each entry holds its two profiles, so the ids in its key stay unique.
_leaf_pair_findings = {}


def oracle_leaf_findings(parent_leaves, dep_leaves, ds, strict=False):
    """oracle_check_profiles over every parent leaf x dep leaf with both profiled."""
    findings = []
    for p in parent_leaves:
        for d in dep_leaves:
            pp, dp = ds.profiles.get(p.id), ds.profiles.get(d.id)
            if pp is None or dp is None:
                continue
            key = (id(pp), id(dp), strict)
            if key not in _leaf_pair_findings:
                _leaf_pair_findings[key] = (pp, dp, oracle_check_profiles(pp, dp, strict))
            findings += _leaf_pair_findings[key][2]
    return findings


def oracle_best_choice(parent, dep, ds, strict=False):
    """(parent leaves, dep leaves, findings) of the first assignment pair
    with the fewest findings, parent sequences in the outer loop."""
    dep_sequences = oracle_leaf_sequences(dep)
    best = None
    for p_leaves in oracle_leaf_sequences(parent):
        for d_leaves in dep_sequences:
            findings = oracle_leaf_findings(p_leaves, d_leaves, ds, strict)
            if best is None or len(findings) < len(best[2]):
                best = (p_leaves, d_leaves, findings)
    return best


def oracle_check_expressions(parent, dep, ds, strict=False):
    """Fewest findings over every consistent OR assignment of both sides."""
    return len(oracle_best_choice(parent, dep, ds, strict)[2])


def oracle_leaf_warnings(parent_leaves, dep_leaves, ds):
    """The warning texts of every parent leaf x dep leaf, first occurrence kept."""
    warnings = []
    for p in parent_leaves:
        for d in dep_leaves:
            for ref in (p, d):
                if ref.exception:
                    warnings.append(
                        f"exception {ref.exception} on {ref.id} is not modeled; "
                        "checked against the base license"
                    )
            for ref in (p, d):
                if ref.id not in ds.profiles:
                    warnings.append(f"unknown license {ref.id}: treated as conflict-free")
            if p.id in ds.profiles and d.id in ds.profiles:
                none = CopyleftClass.NONE
                if ds.profiles[p.id].copyleft is not none and ds.profiles[d.id].copyleft is not none:
                    warnings.append(
                        f"both {p.id} and {d.id} are copyleft; same-license "
                        "propagation between copyleft licenses is not assessed"
                    )
    return [w for i, w in enumerate(warnings) if w not in warnings[:i]]


def oracle_scan(graph, records, ds, strict, aliases, known):
    """Every edge normalized and checked on its own, as a ``ScanReport``.

    No pair is deduplicated and no rule mask is read: each edge's
    conflict types are those of ``oracle_best_choice``. Yearly usage
    takes each (package, year)'s latest record by a brute-force max.
    """
    edges_with = {ctype: 0 for ctype in ConflictType}
    top_pairs = {ctype: Counter() for ctype in ConflictType}
    conflicted = unknown = 0
    for edge in graph.edges:
        parent = normalize(records[edge.parent].license_raw, aliases, known)
        dep = normalize(records[edge.dep].license_raw, aliases, known)
        if isinstance(parent, Unresolvable) or isinstance(dep, Unresolvable):
            unknown += 1
            continue
        types = {f[0] for f in oracle_best_choice(parent, dep, ds, strict)[2]}
        conflicted += bool(types)
        for ctype in ConflictType:
            if ctype.value in types:
                edges_with[ctype] += 1
                top_pairs[ctype][(render(parent), render(dep))] += 1
    usage = Counter()
    for package, year in {(r.package, r.published.year) for r in records}:
        group = [r for r in records if (r.package, r.published.year) == (package, year)]
        latest = max(group, key=lambda r: (r.published, _precedence_key(r.version)))
        outcome = normalize(latest.license_raw, aliases, known)
        no_license = (
            isinstance(outcome, Unresolvable)
            and outcome.reason is UnresolvableReason.NO_LICENSE
        )
        usage[(year, NO_LICENSE_BUCKET if no_license else str(outcome))] += 1
    return ScanReport(
        total_edges=len(graph.edges),
        edges_with_findings=edges_with,
        conflicted_edges=conflicted,
        unknown_license_edges=unknown,
        top_pairs=top_pairs,
        usage=dict(usage),
    )


def oracle_mine(transactions, min_support):
    """Exhaustive itemset enumeration: {itemset: supporting id set}.

    transactions: mapping id -> set of items. Only usable for small
    item universes (exponential).
    """
    universe = sorted({item for items in transactions.values() for item in items})
    result = {}
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            itemset = frozenset(combo)
            supporting = {
                tid for tid, items in transactions.items() if itemset <= items
            }
            if len(supporting) >= min_support:
                result[itemset] = frozenset(supporting)
    return result


def oracle_supporters(pattern):
    """A pattern's supporting ids: each of ``licenses`` whose bit of ``support`` is set."""
    ids = set()
    for i, spdx_id in enumerate(pattern.licenses):
        if pattern.support >> i & 1:
            ids.add(spdx_id)
    return frozenset(ids)


def oracle_mined_patterns(transactions, min_support):
    """``oracle_mine``'s itemsets as patterns in ``mine()``'s order.

    Each support is a bitset over the sorted ids, as ``mine()`` gives it;
    the order is descending support, ascending size, then item spelling.
    """
    licenses = tuple(sorted(transactions))
    bit = {tid: 1 << i for i, tid in enumerate(licenses)}
    frequent = oracle_mine(transactions, min_support)
    return [
        FrequentPattern(itemset, sum(bit[tid] for tid in ids), licenses)
        for itemset, ids in sorted(
            frequent.items(), key=lambda kv: (-len(kv[1]), len(kv[0]), sorted(kv[0]))
        )
    ]


def oracle_check_closed(transactions, patterns):
    """Assert that every pattern is closed, with its exact supporting set.

    transactions: mapping id -> set of items. A pattern's supporters must
    be exactly the ids whose items contain it, and no item outside the
    pattern may be held by every one of them.
    """
    for pattern in patterns:
        supporters = oracle_supporters(pattern)
        assert supporters == {
            tid for tid, items in transactions.items() if pattern.items <= items
        }, f"wrong ids for {sorted(pattern.items)}"
        assert supporters, f"{sorted(pattern.items)} has no supporter"
        shared = set.intersection(*(set(transactions[tid]) for tid in supporters))
        assert shared == pattern.items, (
            f"{sorted(pattern.items)} is not closed: every supporter also holds "
            f"{sorted(shared - pattern.items)}"
        )


def oracle_check_mined(transactions, min_support, patterns):
    """Assert that ``patterns`` is exactly the family of frequent itemsets.

    transactions: mapping id -> set of items. Unlike oracle_mine this
    scales to dataset-sized universes: it checks by brute force that
    every reported supporting set is exact and at least ``min_support``,
    that every frequent single item is reported, and that each reported
    pattern's one-item extensions are reported exactly when frequent.
    Every frequent itemset is a frequent item grown one item at a time
    through frequent subsets, so nothing frequent can be missing.
    """
    universe = {item for items in transactions.values() for item in items}
    reported = {p.items: p for p in patterns}
    assert len(reported) == len(patterns), "an itemset is reported twice"

    def support(itemset):
        return frozenset(tid for tid, items in transactions.items() if itemset <= items)

    for pattern in patterns:
        ids = support(pattern.items)
        assert pattern.items, "the empty itemset is reported"
        assert oracle_supporters(pattern) == ids, f"wrong ids for {sorted(pattern.items)}"
        assert pattern.support_count == len(ids) >= min_support
    for item in universe:
        single = frozenset([item])
        frequent = len(support(single)) >= min_support
        assert (single in reported) == frequent, f"single {item} misreported"
    for itemset, pattern in reported.items():
        supporters = oracle_supporters(pattern)
        for item in universe - itemset:
            grown = itemset | {item}
            count = sum(item in transactions[tid] for tid in supporters)
            assert (grown in reported) == (count >= min_support), (
                f"extension {sorted(grown)} misreported"
            )


def _set_jaccard(a, b):
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def oracle_dedup_similar(patterns, jaccard_min):
    """The linear scan: each pattern against every kept pattern.

    A pattern is folded into a kept one when one itemset contains the
    other and their supporting sets have Jaccard similarity at or above
    ``jaccard_min``; the larger itemset survives. On a whole
    ``mine()`` result, in its order, ``mining.dedup_similar`` must equal
    this scan.
    """
    ids = {id(p): oracle_supporters(p) for p in patterns}
    kept = []
    for pattern in patterns:
        similars = [
            k
            for k in kept
            if (k.items <= pattern.items or pattern.items <= k.items)
            and _set_jaccard(ids[id(k)], ids[id(pattern)]) >= jaccard_min
        ]
        if not similars:
            kept.append(pattern)
            continue
        if all(len(k.items) < len(pattern.items) for k in similars):
            kept = [k for k in kept if k not in similars]
            kept.append(pattern)
    return kept


def oracle_dedup_one_item(patterns, jaccard_min):
    """The one-item rule of ``mining.dedup_similar``, by a double loop.

    A pattern is dropped when some pattern of the list has its itemset
    plus one item and a supporting set with Jaccard similarity at or
    above ``jaccard_min`` to its own; the rest keep their input order.
    """
    ids = {id(p): oracle_supporters(p) for p in patterns}
    return [
        p
        for p in patterns
        if not any(
            q.items > p.items
            and len(q.items) == len(p.items) + 1
            and _set_jaccard(ids[id(p)], ids[id(q)]) >= jaccard_min
            for q in patterns
        )
    ]


def _precedence_key(v: Semver):
    pre = tuple(
        (0, int(part), "") if part.isdigit() else (1, 0, part)
        for part in v.prerelease
    )
    return (v.major, v.minor, v.patch, 0 if v.prerelease else 1, pre)


def oracle_satisfies(rng: VersionRange, version: Semver) -> bool:
    """Re-evaluates the parsed comparators with an independent compare."""

    def matches(comp, v):
        a, b = _precedence_key(v), _precedence_key(comp.version)
        return {
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
            "=": a == b,
        }[comp.op]

    for conjunction in rng.alternatives:
        if all(matches(c, version) for c in conjunction):
            if version.prerelease:
                anchored = any(
                    c.version.prerelease
                    and (c.version.major, c.version.minor, c.version.patch)
                    == (version.major, version.minor, version.patch)
                    for conj in rng.alternatives
                    for c in conj
                )
                if not anchored:
                    continue
            return True
    return False


def oracle_resolve(rng: VersionRange, available):
    satisfying = [v for v in available if oracle_satisfies(rng, v)]
    if not satisfying:
        return None
    return max(satisfying, key=_precedence_key)


def edge_key(edge, records):
    """An index-based edge as (pkg, ver, dep_pkg, dep_ver, range), the oracle's tuple shape."""
    parent, dep = records[edge.parent], records[edge.dep]
    return (parent.package, str(parent.version), dep.package, str(dep.version), edge.range)


def oracle_build_graph_edges(records):
    """Naive resolver: set of (pkg, ver, dep_pkg, dep_ver, range) tuples."""
    edges = set()
    for record in records:
        for name, range_str in record.dependencies:
            candidates = [r.version for r in records if r.package == name]
            if not candidates:
                continue
            try:
                rng = parse_range(range_str)
            except RangeSyntaxError:
                continue
            target = oracle_resolve(rng, candidates)
            if target is not None:
                edges.add(
                    (record.package, str(record.version), name, str(target), range_str)
                )
    return edges


#: The file-reference pattern written the direct way. Its ``.*`` retries
#: every later position after each separator, so it is quadratic on long
#: separator runs and serves only as a reference on short strings.
ORACLE_FILE_REF_RE = re.compile(
    r"""
    ^see\s+license          # npm "SEE LICENSE IN <file>" convention
    | ^\.{0,2}[/\\]         # ./path, ../path, /path, \path
    | [/\\].*\.\w+$         # something/path.ext
    | \.(txt|md|rst|html|license)$
    """,
    re.IGNORECASE | re.VERBOSE,
)


def _oracle_parse_lines(text, source, parse_line):
    """Call ``parse_line`` on the fields of each line not blank or ``#``, errors at ``source:line``."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            parse_line(line.split("\t"))
        except FormatError as exc:
            raise type(exc)(exc.message, source=source, line=lineno) from None


def _oracle_record(fields, seen, dependencies=()):
    package, version_text, published_text, license_raw = fields
    package = package.strip()
    if not package:
        raise FormatError("empty package name")
    version = Semver.parse(version_text)
    date_text = published_text.strip()
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", date_text) is None:
        raise FormatError(f"invalid date {published_text!r}")
    try:
        published = dt.date.fromisoformat(date_text)
    except ValueError:
        raise FormatError(f"invalid date {published_text!r}") from None
    if (package, version) in seen:
        raise DuplicateVersionError(f"duplicate record for {package}@{version}")
    seen.append((package, version))
    return VersionRecord(package, version, published, license_raw.strip(), dependencies)


def oracle_parse_snapshot(text, source="<string>"):
    """Every snapshot line parsed on its own: no memo, a list for the duplicate check."""
    records, seen = [], []

    def parse_line(fields):
        if len(fields) != 5:
            raise FormatError(f"expected 5 tab-separated fields, got {len(fields)}")
        deps = []
        for entry in fields[4].split(";"):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, range_str = entry.rpartition("@")
            if not sep or not name.strip():
                raise FormatError(f"dependency entry {entry!r} is not name@range")
            deps.append((name.strip(), range_str.strip()))
        records.append(_oracle_record(fields[:4], seen, tuple(deps)))

    _oracle_parse_lines(text, source, parse_line)
    return records


def oracle_read_graph(text, source="<string>"):
    """A graph file's text parsed line by line, endpoints found by a linear search."""
    if text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[0] != GRAPH_HEADER:
        raise FormatError(
            f"missing or unsupported header, expected {GRAPH_HEADER!r}", source=source, line=1
        )
    records, seen, nodes, edges, unresolved = [], [], [], [], []

    def node(package, version_text):
        for i, key in enumerate(nodes):
            if key == (package, version_text):
                return i
        raise FormatError(f"{package}@{version_text} has no node line above it")

    def parse_line(fields):
        kind = fields[0]
        if kind == "node" and len(fields) == 5:
            records.append(_oracle_record(fields[1:], seen))
            nodes.append((fields[1], fields[2]))
        elif kind == "edge" and len(fields) == 6:
            edges.append(Edge(node(fields[1], fields[2]), node(fields[3], fields[4]), fields[5]))
        elif kind == "unresolved" and len(fields) == 6:
            if fields[5] not in UNRESOLVED_REASONS:
                raise FormatError(f"unknown unresolved reason {fields[5]!r}")
            unresolved.append(Unresolved(node(fields[1], fields[2]), *fields[3:]))
        elif kind in ("node", "edge", "unresolved"):
            expected = 5 if kind == "node" else 6
            raise FormatError(
                f"{kind} line: expected {expected} tab-separated fields, got {len(fields)}"
            )
        else:
            raise FormatError(f"unrecognized line kind {kind!r}")

    _oracle_parse_lines(text, source, parse_line)
    return DependencyGraph(edges=tuple(edges), unresolved=tuple(unresolved)), records


def _oracle_version_text(v: Semver) -> str:
    text = f"{v.major}.{v.minor}.{v.patch}"
    if v.prerelease:
        text += "-" + ".".join(v.prerelease)
    if v.build:
        text += "+" + v.build
    return text


def oracle_write_graph(graph, records):
    """The graph file's text: nodes sorted by package and precedence, then edges and unresolved."""
    lines = [GRAPH_HEADER]
    for r in sorted(records, key=lambda r: (r.package, _precedence_key(r.version))):
        d = r.published
        published = f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
        lines.append(
            f"node\t{r.package}\t{_oracle_version_text(r.version)}\t{published}\t{r.license_raw}"
        )
    for edge in graph.edges:
        parent, dep = records[edge.parent], records[edge.dep]
        lines.append(
            f"edge\t{parent.package}\t{_oracle_version_text(parent.version)}"
            f"\t{dep.package}\t{_oracle_version_text(dep.version)}\t{edge.range}"
        )
    for u in graph.unresolved:
        node = records[u.node]
        lines.append(
            f"unresolved\t{node.package}\t{_oracle_version_text(node.version)}"
            f"\t{u.dep_name}\t{u.range}\t{u.reason}"
        )
    return "".join(line + "\n" for line in lines)


_ORACLE_KIND_ATTITUDES = {
    TermKind.RIGHT: (Attitude.CAN, Attitude.CANNOT, Attitude.NOT_MENTIONED),
    TermKind.OBLIGATION: (Attitude.MUST, Attitude.NOT_MENTIONED),
}


def oracle_profile_violations(spdx_id, full_name, terms, copyleft, notes):
    """The profile rules, written out: an id of letters, digits, ``.-+``, all 22 terms, kinds,
    a CopyleftClass, and a full name and notes that a dataset file gives back (one line,
    no whitespace at either end)."""
    violations = []
    if not spdx_id:
        violations.append("spdx_id: must be non-empty")
    elif re.fullmatch(r"[A-Za-z0-9.+-]+", spdx_id) is None:
        violations.append(
            f"spdx_id: {spdx_id!r} contains characters outside letters, digits, "
            "'.', '-', '+'"
        )
    for term in Term:
        if term not in terms:
            violations.append(f"{term.value}: terms mapping not total (key missing)")
    for term, attitude in terms.items():
        if attitude not in _ORACLE_KIND_ATTITUDES[term.kind]:
            violations.append(f"{term.value}: {term.kind.value} cannot be {attitude.value!r}")
    if copyleft not in list(CopyleftClass):
        violations.append(f"copyleft: {copyleft!r} is not a CopyleftClass")
    for name, text in (("full_name", full_name), ("notes", notes)):
        breaks = any(c in ("\r", "\n") for c in text)
        if breaks or text[:1].isspace() or text[-1:].isspace():
            violations.append(f"{name}: {text!r} holds a line break or edge whitespace")
    return violations


def _oracle_record_blocks(text, source):
    """Split file text into blocks of (line_number, key, value) triples."""
    block = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            if block:
                yield block
                block = []
            continue
        if stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise FormatError(
                f"expected 'key: value', got {stripped!r}", source=source, line=lineno
            )
        key, _, value = stripped.partition(":")
        block.append((lineno, key.strip(), value.strip()))
    if block:
        yield block


def _oracle_parse_profile(block, source):
    terms_by_key = {t.value: t for t in Term}
    attitudes = {a.value: a for a in Attitude}
    copylefts = {c.value: c for c in CopyleftClass}
    fields = {}
    first_line = block[0][0]
    for lineno, key, value in block:
        if key not in terms_by_key and key not in ("spdx-id", "full-name", "copyleft", "notes"):
            raise FormatError(f"unknown key {key!r}", source=source, line=lineno)
        if key in fields:
            raise FormatError(f"duplicate key {key!r}", source=source, line=lineno)
        fields[key] = value
        if key in terms_by_key and value not in attitudes:
            raise FormatError(f"unknown attitude {value!r} for {key}", source=source, line=lineno)
    for required in ("spdx-id", "copyleft"):
        if required not in fields:
            raise FormatError(f"record missing {required!r}", source=source, line=first_line)
    copyleft_raw = fields.get("copyleft", "")
    if copyleft_raw not in copylefts:
        raise FormatError(
            f"unknown copyleft class {copyleft_raw!r}", source=source, line=first_line
        )
    terms = {
        terms_by_key[key]: attitudes[value]
        for key, value in fields.items()
        if key in terms_by_key
    }
    return (
        fields.get("spdx-id", ""),
        fields.get("full-name", ""),
        terms,
        copylefts[copyleft_raw],
        fields.get("notes", ""),
    )


def oracle_loads_dataset(text, source="<string>"):
    """``loads_dataset`` in two passes: split all records, then parse and check each in turn.

    A line without a colon ends the split at once. Each record is then
    parsed line by line, and its id and term dict are checked against the
    profile rules written out in ``oracle_profile_violations`` before the
    profile is built.
    """
    version = "0"
    provenance = "unknown"
    profiles = {}
    for index, block in enumerate(_oracle_record_blocks(text, source)):
        keys = {key for _, key, _ in block}
        if index == 0 and keys <= {"dataset-version", "provenance"}:
            meta = {}
            for lineno, key, value in block:
                if key in meta:
                    raise FormatError(f"duplicate key {key!r}", source=source, line=lineno)
                meta[key] = value
            version = meta.get("dataset-version", version)
            provenance = meta.get("provenance", provenance)
            continue
        spdx_id, full_name, terms, copyleft, notes = _oracle_parse_profile(block, source)
        first_line = block[0][0]
        violations = oracle_profile_violations(spdx_id, full_name, terms, copyleft, notes)
        if violations:
            raise ValidationError(
                f"profile {spdx_id or '<missing id>'}: " + "; ".join(violations),
                source=source,
                line=first_line,
            )
        if spdx_id in profiles:
            raise ValidationError(
                f"duplicate spdx-id {spdx_id!r}", source=source, line=first_line
            )
        profiles[spdx_id] = LicenseProfile(spdx_id, full_name, terms, copyleft, notes)
    return Dataset(profiles=profiles, version=version, provenance=provenance)


_ORACLE_PRECEDENCE = {"OR": 1, "AND": 2}
# Annex D: an idstring, or "DocumentRef-" idstring ":LicenseRef-" idstring;
# then an optional "+", which an operator word never takes.
_ORACLE_IDSTRING = r"[A-Za-z0-9.-]+"
_ORACLE_TOKEN_RE = re.compile(
    rf"([()])|(DocumentRef-{_ORACLE_IDSTRING}:LicenseRef-{_ORACLE_IDSTRING}|{_ORACLE_IDSTRING})"
)


def _oracle_tokens(raw):
    """(kind, text, offset) tokens ending in EOF; the first character no token fits raises."""
    tokens, pos = [], 0
    while True:
        pos = len(raw) - len(raw[pos:].lstrip())
        if pos == len(raw):
            return tokens + [("EOF", "", pos)]
        m = _ORACLE_TOKEN_RE.match(raw, pos)
        if m is None or len(tokens) == MAX_TOKENS:
            raise ExpressionSyntaxError(raw, pos, ("oracle",))
        paren, text = m.groups()
        if paren:
            tokens.append((paren, paren, pos))
        elif text in ("AND", "OR", "WITH"):
            tokens.append((text, text, pos))
        else:
            if raw.startswith("+", m.end()):
                text += "+"
            tokens.append(("ID", text, pos))
        pos += len(text or paren)


def oracle_parse(raw):
    """``parse_expression`` as a shunting-yard pass over ``_oracle_tokens``.

    One loop over the tokens with an operand stack and an operator stack,
    no recursion: ``AND`` binds tighter than ``OR``, both fold to the
    left, and ``WITH`` binds tightest of all, taking the license id just
    read and an exception id without ``+``. A ``WITH`` after a ``)`` or an
    exception is a syntax error at the ``WITH``. The loop alternates
    between wanting an operand and wanting an operator, so the first token
    that fits neither raises :class:`ExpressionSyntaxError` at its offset.
    """
    tokens = _oracle_tokens(raw)
    operands, operators = [], []  # operators holds "AND", "OR" and "("

    def fail(offset):
        raise ExpressionSyntaxError(raw, offset, ("oracle",))

    def reduce():
        op, right, left = operators.pop(), operands.pop(), operands.pop()
        operands.append(And(left, right) if op == "AND" else Or(left, right))

    want_operand, with_ok = True, False
    i = 0
    while True:
        kind, text, offset = tokens[i]
        i += 1
        if want_operand:
            if kind == "(":
                operators.append("(")
            elif kind == "ID":
                or_later = text.endswith("+")
                operands.append(LicenseRef(text[:-1] if or_later else text, or_later))
                want_operand, with_ok = False, True
            else:
                fail(offset)
        elif kind == "WITH" and with_ok:
            exc_kind, exc_text, exc_offset = tokens[i]
            if exc_kind != "ID" or exc_text.endswith("+"):
                fail(exc_offset)
            license = operands[-1]
            operands[-1] = LicenseRef(license.id, license.or_later, exc_text)
            i += 1
            with_ok = False
        elif kind in _ORACLE_PRECEDENCE:
            while operators and operators[-1] != "(" and (
                _ORACLE_PRECEDENCE[operators[-1]] >= _ORACLE_PRECEDENCE[kind]
            ):
                reduce()
            operators.append(kind)
            want_operand = True
        elif kind == ")":
            while operators and operators[-1] != "(":
                reduce()
            if not operators:
                fail(offset)
            operators.pop()
            with_ok = False
        elif kind == "EOF":
            while operators and operators[-1] != "(":
                reduce()
            if operators:
                fail(offset)
            return operands.pop()
        else:
            fail(offset)


_ORACLE_NO_LICENSE = ("", "unlicensed", "none", "no license", "no-license", "nolicense")
_ORACLE_FILE_NAMES = ("license", "licence", "copying", "license file", "in license file")


def oracle_normalize(raw, aliases, known):
    """``normalize`` as a flat list of rules, tried in order; the first that applies wins.

    No-license marker, URL, file reference, hash-like, known id, full
    name, alias; then the whitespace-collapsed string, with lowercase
    operator words upcased, parsed as an expression whose every leaf is
    a known id or alias, ``+`` folding into the ``-or-later`` id where
    one exists; else an unknown name.
    """
    trimmed = raw.strip()
    folded = " ".join(trimmed.casefold().split())
    compact = trimmed.replace(" ", "")
    special = (
        (UnresolvableReason.NO_LICENSE, folded in _ORACLE_NO_LICENSE),
        (UnresolvableReason.URL, "://" in trimmed or trimmed.lower().startswith("www.")),
        (
            UnresolvableReason.FILE_REFERENCE,
            bool(ORACLE_FILE_REF_RE.search(trimmed))
            or folded in _ORACLE_FILE_NAMES
            or folded.startswith("see "),
        ),
        (
            UnresolvableReason.HASH_LIKE,
            len(compact) >= 32 and all(c in "0123456789abcdefABCDEF" for c in compact),
        ),
    )
    for reason, applies in special:
        if applies:
            return Unresolvable(reason, raw)
    for match in (known.match_id(trimmed), known.match_name(trimmed), aliases.resolve(trimmed)):
        if match is not None:
            return LicenseRef(match)

    def upcase_operator(word):
        return word.group().upper() if word.group() in ("and", "or", "with") else word.group()

    cleaned = re.sub(r"\w+", upcase_operator, " ".join(trimmed.split()))
    try:
        tree = parse_expression(cleaned)
    except ExpressionSyntaxError:
        return Unresolvable(UnresolvableReason.UNKNOWN_NAME, raw)

    def leaf(ref):
        canonical = known.match_id(ref.id)
        if canonical is None:
            canonical = aliases.resolve(ref.id)
        if canonical is None:
            return None
        if ref.or_later and not canonical.endswith("-or-later"):
            base = canonical[: -len("-only")] if canonical.endswith("-only") else canonical
            if base + "-or-later" in known.ids:
                return LicenseRef(base + "-or-later", False, ref.exception)
            return LicenseRef(canonical, True, ref.exception)
        return LicenseRef(canonical, False, ref.exception)

    def walk(node):
        if isinstance(node, LicenseRef):
            return leaf(node)
        left, right = walk(node.left), walk(node.right)
        if left is None or right is None:
            return None
        return type(node)(left, right)

    normalized = walk(tree)
    if normalized is None:
        return Unresolvable(UnresolvableReason.UNKNOWN_NAME, raw)
    return normalized


def _oracle_side(expr, known):
    """Copyleft when any id in the tree is one of ``known.copyleft``, by brute force."""
    ids = []

    def collect(node):
        if isinstance(node, LicenseRef):
            ids.append(node.id)
        else:
            collect(node.left)
            collect(node.right)

    collect(expr)
    copyleft = any(spdx_id == c for spdx_id in ids for c in known.copyleft)
    return "copyleft" if copyleft else "permissive"


def oracle_license_changes(records, aliases, known):
    """Each package's records, picked out by a scan of all records, sorted and diffed pairwise.

    Records sort by a precedence key computed here, stably: the parsers reject
    precedence-equal versions of one package, so no publish date breaks ties.
    Neighbours whose normalized texts differ make a change; it involves an
    unresolvable license when either side is one, and otherwise each side
    is copyleft or permissive by ``_oracle_side``.
    """
    changes = []
    for package in sorted({r.package for r in records}):
        chain = sorted(
            (r for r in records if r.package == package),
            key=lambda r: _precedence_key(r.version),
        )
        for prev, curr in zip(chain, chain[1:]):
            before = normalize(prev.license_raw, aliases, known)
            after = normalize(curr.license_raw, aliases, known)
            if str(before) == str(after):
                continue
            if isinstance(before, Unresolvable) or isinstance(after, Unresolvable):
                classification = "involving-unresolvable"
            else:
                classification = f"{_oracle_side(before, known)}-to-{_oracle_side(after, known)}"
            changes.append(LicenseChange(package, before, after, curr.version, classification))
    return changes
