import random

import pytest
from hypothesis import given, settings, strategies as st

import licterm.conflicts
import licterm.expression
import licterm.scan
from licterm.conflicts import ConflictType, check_expressions
from licterm.expression import And, Or, Unresolvable, normalize
from licterm.registry import build_graph, parse_snapshot_text
from licterm.scan import NO_LICENSE_BUCKET, rank_pairs, scan
from licterm.semver import Semver

from oracles import edge_key, oracle_scan


def line(pkg, ver, date, license_raw, deps=""):
    return "\t".join((pkg, ver, date, license_raw, deps))


def _scan_text(text, seed_dataset, aliases, known, strict=False):
    records = parse_snapshot_text(text)
    graph = build_graph(records)
    return scan(graph, records, seed_dataset, strict, aliases, known), graph, records


class TestScanFixtures:
    def test_single_c1_edge(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("web-framework", "1.0.0", "2021-01-01", "MIT", "styles@^1.0.0"),
                line("styles", "1.2.0", "2020-06-01", "CC-BY-4.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.total_edges == 1
        assert report.edges_with_findings[ConflictType.C1] == 1
        assert report.edges_with_findings[ConflictType.C3] == 0
        rows = rank_pairs(report, 10)
        assert rows[ConflictType.C1] == (("MIT", "CC-BY-4.0", 1),)

    def test_single_c2_edge_no_c1_c3(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("tool", "2.0.0", "2021-01-01", "MIT", "engine@*"),
                line("engine", "5.0.0", "2020-01-01", "Apache-2.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.edges_with_findings[ConflictType.C1] == 0
        assert report.edges_with_findings[ConflictType.C2] == 1
        assert report.edges_with_findings[ConflictType.C3] == 0
        assert report.conflicted_edges == 1

    def test_edge_with_two_types_counted_in_each(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("tool", "1.0.0", "2021-01-01", "MIT", "lib@1.0.0"),
                line("lib", "1.0.0", "2020-01-01", "GPL-3.0-only"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.edges_with_findings[ConflictType.C1] == 1
        assert report.edges_with_findings[ConflictType.C2] == 1
        assert report.edges_with_findings[ConflictType.C3] == 1
        assert report.conflicted_edges == 1  # the union counts edges once

    def test_unresolvable_endpoint_is_unknown_edge(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("a", "1.0.0", "2021-01-01", "SEE LICENSE IN LICENSE.txt", "b@*"),
                line("b", "1.0.0", "2021-01-01", "MIT", "c@*"),
                line("c", "1.0.0", "2021-01-01", "UNLICENSED"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.total_edges == 2
        assert report.unknown_license_edges == 2
        assert report.conflicted_edges == 0
        assert all(n == 0 for n in report.edges_with_findings.values())

    def test_unknown_id_edge_is_conflict_free_with_warning(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("a", "1.0.0", "2021-01-01", "MIT", "b@*"),
                line("b", "1.0.0", "2021-01-01", "EPL-2.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.unknown_license_edges == 0
        assert report.conflicted_edges == 0

    def test_per_edge_counts_match_recheck(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("app", "1.0.0", "2021-01-01", "MIT", "x@*;y@*;z@*"),
                line("x", "1.0.0", "2020-01-01", "Apache-2.0"),
                line("y", "2.0.0", "2020-01-01", "CC0-1.0"),
                line("z", "3.0.0", "2020-01-01", "MPL-2.0", "x@^1.0.0"),
            ]
        )
        report, graph, records = _scan_text(text, seed_dataset, aliases, known)
        license_of = {(r.package, str(r.version)): r.license_raw for r in records}
        recheck = {ctype: 0 for ctype in ConflictType}
        for edge in graph.edges:
            package, version, dep_package, dep_version, _ = edge_key(edge, records)
            parent = normalize(license_of[(package, version)], aliases, known)
            dep = normalize(license_of[(dep_package, dep_version)], aliases, known)
            assert not isinstance(parent, Unresolvable) and not isinstance(dep, Unresolvable)
            verdict = check_expressions(parent, dep, seed_dataset)
            for ctype in ConflictType:
                if any(f.ctype is ctype for f in verdict.findings):
                    recheck[ctype] += 1
        assert report.edges_with_findings == recheck


class TestUsage:
    def test_latest_version_per_year(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("pkg", "1.0.0", "2020-02-01", "MIT"),
                line("pkg", "1.1.0", "2020-09-01", "ISC"),
                line("pkg", "2.0.0", "2021-03-01", "ISC"),
                line("other", "0.1.0", "2020-05-05", "UNLICENSED"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.usage == {
            (2020, "ISC"): 1,
            (2020, NO_LICENSE_BUCKET): 1,
            (2021, "ISC"): 1,
        }

    def test_publish_date_wins_over_semver_within_year(self, seed_dataset, aliases, known):
        # A backported patch published later in the year is still the
        # year's latest release.
        text = "\n".join(
            [
                line("pkg", "2.0.0", "2020-03-01", "MIT"),
                line("pkg", "1.9.9", "2020-11-01", "ISC"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.usage == {(2020, "ISC"): 1}

    def test_expression_bucket_uses_canonical_rendering(self, seed_dataset, aliases, known):
        text = line("pkg", "1.0.0", "2020-01-01", "(mit or apache-2.0)")
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        assert report.usage == {(2020, "MIT OR Apache-2.0"): 1}


class TestRankPairs:
    def test_k_larger_than_pairs(self, seed_dataset, aliases, known):
        text = "\n".join(
            [
                line("a", "1.0.0", "2021-01-01", "MIT", "b@*"),
                line("b", "1.0.0", "2021-01-01", "Apache-2.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases, known)
        rows = rank_pairs(report, 50)
        assert rows[ConflictType.C2] == (("MIT", "Apache-2.0", 1),)

    def test_empty_report(self, seed_dataset, aliases, known):
        report, _, _ = _scan_text(
            line("solo", "1.0.0", "2021-01-01", "MIT"), seed_dataset, aliases, known
        )
        rows = rank_pairs(report, 10)
        for ctype in ConflictType:
            assert rows[ctype] == ()
            assert report.edges_with_findings[ctype] == 0

    def test_rank_by_count_then_name(self, seed_dataset, aliases, known):
        rows = [
            line("a1", "1.0.0", "2021-01-01", "MIT", "apache1@*;apache2@*"),
            line("a2", "1.0.0", "2021-01-01", "MIT", "apache1@*"),
            line("b1", "1.0.0", "2021-01-01", "ISC", "apache1@*"),
            line("apache1", "1.0.0", "2020-01-01", "Apache-2.0"),
            line("apache2", "1.0.0", "2020-01-01", "Apache-2.0"),
        ]
        report, _, _ = _scan_text("\n".join(rows), seed_dataset, aliases, known)
        rows = rank_pairs(report, 10)
        assert rows[ConflictType.C2] == (
            ("MIT", "Apache-2.0", 3),
            ("ISC", "Apache-2.0", 1),
        )

    def test_invalid_k(self, seed_dataset, aliases, known):
        report, _, _ = _scan_text(
            line("solo", "1.0.0", "2021-01-01", "MIT"), seed_dataset, aliases, known
        )
        with pytest.raises(ValueError):
            rank_pairs(report, 0)


def test_scan_deterministic(seed_dataset, aliases, known):
    text = "\n".join(
        [
            line("a", "1.0.0", "2021-01-01", "MIT", "b@*;c@*"),
            line("b", "1.0.0", "2021-01-01", "Apache-2.0"),
            line("c", "1.0.0", "2021-01-01", "GPL-3.0-only"),
        ]
    )
    first, _, _ = _scan_text(text, seed_dataset, aliases, known)
    second, _, _ = _scan_text(text, seed_dataset, aliases, known)
    assert first == second


def test_scan_hashes_no_version_or_expression_tree(seed_dataset, aliases, known, monkeypatch):
    # Edges are counted by integer outcome ids, so a per-edge hash of a
    # Semver or an And/Or tree must not come back.
    text = "\n".join(
        [
            line("a1", "1.0.0", "2021-01-01", "MIT AND ISC", "lib@^1.0.0;gpl@*;blob@*"),
            line("a1", "1.1.0", "2021-06-01", "MIT AND ISC", "lib@^1.0.0"),
            line("a2", "2.0.0", "2021-01-01", "(MIT OR ISC)", "lib@1.x"),
            line("lib", "1.2.0", "2020-01-01", "Apache-2.0 OR GPL-3.0-only"),
            line("gpl", "3.0.0", "2020-01-01", "GPL-3.0-only"),
            line("blob", "0.1.0", "2020-01-01", "SEE LICENSE IN LICENSE.txt"),
        ]
    )
    records = parse_snapshot_text(text)
    graph = build_graph(records)
    expected = scan(graph, records, seed_dataset, False, aliases, known)
    assert expected.conflicted_edges and expected.unknown_license_edges == 1
    assert max(n for pairs in expected.top_pairs.values() for n in pairs.values()) >= 2

    def unhashable(self):
        raise AssertionError(f"scan hashed a {type(self).__name__}")

    for cls in (Semver, And, Or):
        monkeypatch.setattr(cls, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(records[0].version)
    assert scan(graph, records, seed_dataset, False, aliases, known) == expected


def test_scan_hashes_conflict_types_a_fixed_number_of_times(
    seed_dataset, aliases, known, monkeypatch
):
    # Per-type totals and top pairs are kept by rule number, and
    # Enum.__hash__ is a Python-level call: only building the report's two
    # ConflictType-keyed dicts may hash a type, however many pairs conflict.
    raws = [raw for raw in _RAW_LICENSES if raw]
    deps = ";".join(f"p{j}@*" for j in range(len(raws)))
    text = "\n".join(
        line(f"p{i}", "1.0.0", "2021-01-01", raw, deps) for i, raw in enumerate(raws)
    )
    records = parse_snapshot_text(text)
    graph = build_graph(records)
    calls = []
    real = ConflictType.__hash__
    monkeypatch.setattr(ConflictType, "__hash__", lambda self: calls.append(self) or real(self))
    report = scan(graph, records, seed_dataset, False, aliases, known)
    assert len(calls) <= 2 * len(ConflictType)
    assert len({pair for pairs in report.top_pairs.values() for pair in pairs}) >= 40
    assert all(report.edges_with_findings[ctype] for ctype in ConflictType)


# Raw licenses for generated graphs: single ids, AND, OR and WITH, an id
# that is known but has no profile (EPL-2.0), spellings that only an
# alias resolves, and unresolvable ones.
_RAW_LICENSES = (
    "MIT",
    "ISC",
    "Apache-2.0",
    "GPL-3.0-only",
    "CC-BY-4.0",
    "MPL-2.0",
    "mit",
    "Apache License 2.0",
    "MIT AND Apache-2.0",
    "(MIT OR GPL-3.0-only)",
    "GPL-2.0-or-later OR (ISC AND CC-BY-4.0)",
    "(LGPL-3.0-only OR MIT) AND (BSD-2-Clause OR Artistic-2.0)",
    "GPL-2.0-only WITH Classpath-exception-2.0",
    "Apache-2.0 WITH LLVM-exception OR MIT",
    "EPL-2.0",
    "EPL-2.0 AND GPL-3.0-only",
    "SEE LICENSE IN LICENSE.txt",
    "UNLICENSED",
    "",
    "https://example.com/license",
    "Frobnicate License",
)


def _random_snapshot(rng, packages=12):
    rows = []
    for i in range(packages):
        for minor in range(rng.randint(1, 3)):
            deps = ";".join(
                f"p{rng.randrange(packages)}@{rng.choice(['*', '^1.0.0', '1.1.x', '^2.0.0'])}"
                for _ in range(rng.randint(0, 4))
            )
            date = f"{rng.choice([2019, 2020, 2021])}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"
            rows.append(line(f"p{i}", f"1.{minor}.0", date, rng.choice(_RAW_LICENSES), deps))
    return "\n".join(rows)


def _assert_scan_matches_oracle(text, strict, seed_dataset, aliases, known):
    records = parse_snapshot_text(text)
    graph = build_graph(records)
    report = scan(graph, records, seed_dataset, strict, aliases, known)
    assert report == oracle_scan(graph, records, seed_dataset, strict, aliases, known)
    return report


class TestScanOracle:
    @pytest.mark.parametrize("strict", [False, True])
    def test_seeded_graphs_equal_oracle(self, strict, seed_dataset, aliases, known):
        reports = [
            _assert_scan_matches_oracle(
                _random_snapshot(random.Random(seed)), strict, seed_dataset, aliases, known
            )
            for seed in range(40)
        ]
        # The graphs have what they are meant to exercise.
        assert sum(r.unknown_license_edges for r in reports) > 0
        assert all(sum(r.edges_with_findings[t] for r in reports) > 0 for t in ConflictType)
        assert sum(r.total_edges - r.conflicted_edges - r.unknown_license_edges for r in reports) > 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), packages=st.integers(1, 20), strict=st.booleans())
    def test_graphs_equal_oracle_hypothesis(
        self, seed_dataset, aliases, known, seed, packages, strict
    ):
        text = _random_snapshot(random.Random(seed), packages)
        _assert_scan_matches_oracle(text, strict, seed_dataset, aliases, known)


def test_scan_renders_each_distinct_raw_license_once(seed_dataset, aliases, known, monkeypatch):
    # One text gives a license its outcome id, its pair spelling and its usage
    # bucket. str() is counted, not render, which calls itself on subtrees.
    raws = _RAW_LICENSES * 2
    text = "\n".join(
        line(f"p{i}", "1.0.0", "2021-01-01", raw, f"p{(i + 1) % len(raws)}@*;p{i // 2}@*")
        for i, raw in enumerate(raws)
    )
    records = parse_snapshot_text(text)
    graph = build_graph(records)
    calls = []
    for cls in (licterm.expression._Node, Unresolvable):
        monkeypatch.setattr(
            cls, "__str__", lambda outcome, real=cls.__str__: calls.append(outcome) or real(outcome)
        )
    report = scan(graph, records, seed_dataset, False, aliases, known)
    assert len(calls) == len(set(_RAW_LICENSES))
    assert report.conflicted_edges and report.unknown_license_edges
    assert NO_LICENSE_BUCKET in {bucket for _, bucket in report.usage}


def test_scan_builds_no_finding(seed_dataset, aliases, known, monkeypatch):
    # scan reads only which conflict types fired, so it spells out no finding.
    calls = []
    real = licterm.conflicts.check_profiles
    monkeypatch.setattr(
        licterm.conflicts, "check_profiles", lambda *args: calls.append(args) or real(*args)
    )
    text = "\n".join(
        [
            line("app", "1.0.0", "2021-01-01", "MIT", "gpl@*;lib@*"),
            line("lib", "1.0.0", "2021-01-01", "MIT OR ISC", "gpl@*"),
            line("gpl", "1.0.0", "2020-01-01", "GPL-3.0-only AND Apache-2.0"),
        ]
    )
    report, _, _ = _scan_text(text, seed_dataset, aliases, known)
    assert report.conflicted_edges == 2  # MIT may depend on MIT OR ISC
    assert calls == []


@pytest.mark.parametrize("strict", [False, True])
def test_scan_checks_each_distinct_outcome_pair_once(
    strict, seed_dataset, aliases, known, monkeypatch
):
    # scan checks edges through the check_expressions name it imports, once
    # per distinct pair of normalized licenses, and counts the verdict per
    # edge; the benchmark's traced run counts those calls. A pair with an
    # unresolvable side is never checked.
    calls = []
    real = licterm.scan.check_expressions

    def counting(parent, dep, *args):
        calls.append((str(parent), str(dep)))
        return real(parent, dep, *args)

    monkeypatch.setattr(licterm.scan, "check_expressions", counting)
    checked = []
    unknown_edges = shared = 0
    for seed in range(10):
        records = parse_snapshot_text(_random_snapshot(random.Random(seed)))
        graph = build_graph(records)
        outcomes = [normalize(record.license_raw, aliases, known) for record in records]
        pairs = [(outcomes[edge.parent], outcomes[edge.dep]) for edge in graph.edges]
        resolved = [
            (str(parent), str(dep))
            for parent, dep in pairs
            if not isinstance(parent, Unresolvable) and not isinstance(dep, Unresolvable)
        ]
        expected = list(dict.fromkeys(resolved))  # in first-seen edge order
        calls.clear()
        report = scan(graph, records, seed_dataset, strict, aliases, known)
        assert calls == expected, seed
        assert report.unknown_license_edges == len(pairs) - len(resolved)
        checked += calls
        unknown_edges += report.unknown_license_edges
        shared += len(resolved) - len(expected)
    # The snapshots hold what the contract is about: edges that share a
    # pair, edges with an unresolvable side, and OR, AND, WITH and an id
    # known to the registry but not profiled.
    assert shared > 0 and unknown_edges > 0
    spelled = " ".join(f"{parent} {dep}" for parent, dep in checked)
    for part in (" OR ", " AND ", " WITH ", "EPL-2.0"):
        assert part in spelled
