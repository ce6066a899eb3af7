import pytest

from licterm.conflicts import ConflictType, check_expressions
from licterm.expression import And, Or, Unresolvable, normalize
from licterm.registry import build_graph, parse_snapshot_text
from licterm.scan import NO_LICENSE_BUCKET, rank_pairs, scan
from licterm.semver import Semver

from oracles import edge_key


def line(pkg, ver, date, license_raw, deps=""):
    return "\t".join((pkg, ver, date, license_raw, deps))


def _scan_text(text, seed_dataset, aliases, strict=False):
    records = parse_snapshot_text(text)
    graph = build_graph(records)
    return scan(graph, records, seed_dataset, strict, aliases), graph, records


class TestScanFixtures:
    def test_single_c1_edge(self, seed_dataset, aliases):
        text = "\n".join(
            [
                line("web-framework", "1.0.0", "2021-01-01", "MIT", "styles@^1.0.0"),
                line("styles", "1.2.0", "2020-06-01", "CC-BY-4.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        assert report.total_edges == 1
        assert report.edges_with_findings[ConflictType.C1] == 1
        assert report.edges_with_findings[ConflictType.C3] == 0
        rows = rank_pairs(report, 10)
        assert rows[ConflictType.C1] == (("MIT", "CC-BY-4.0", 1),)

    def test_single_c2_edge_no_c1_c3(self, seed_dataset, aliases):
        text = "\n".join(
            [
                line("tool", "2.0.0", "2021-01-01", "MIT", "engine@*"),
                line("engine", "5.0.0", "2020-01-01", "Apache-2.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        assert report.edges_with_findings[ConflictType.C1] == 0
        assert report.edges_with_findings[ConflictType.C2] == 1
        assert report.edges_with_findings[ConflictType.C3] == 0
        assert report.conflicted_edges == 1

    def test_edge_with_two_types_counted_in_each(self, seed_dataset, aliases):
        text = "\n".join(
            [
                line("tool", "1.0.0", "2021-01-01", "MIT", "lib@1.0.0"),
                line("lib", "1.0.0", "2020-01-01", "GPL-3.0-only"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        assert report.edges_with_findings[ConflictType.C1] == 1
        assert report.edges_with_findings[ConflictType.C2] == 1
        assert report.edges_with_findings[ConflictType.C3] == 1
        assert report.conflicted_edges == 1  # the union counts edges once

    def test_unresolvable_endpoint_is_unknown_edge(self, seed_dataset, aliases):
        text = "\n".join(
            [
                line("a", "1.0.0", "2021-01-01", "SEE LICENSE IN LICENSE.txt", "b@*"),
                line("b", "1.0.0", "2021-01-01", "MIT", "c@*"),
                line("c", "1.0.0", "2021-01-01", "UNLICENSED"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        assert report.total_edges == 2
        assert report.unknown_license_edges == 2
        assert report.conflicted_edges == 0
        assert all(n == 0 for n in report.edges_with_findings.values())

    def test_unknown_id_edge_is_conflict_free_with_warning(self, seed_dataset, aliases):
        text = "\n".join(
            [
                line("a", "1.0.0", "2021-01-01", "MIT", "b@*"),
                line("b", "1.0.0", "2021-01-01", "EPL-2.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
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
        report, graph, records = _scan_text(text, seed_dataset, aliases)
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
    def test_latest_version_per_year(self, seed_dataset, aliases):
        text = "\n".join(
            [
                line("pkg", "1.0.0", "2020-02-01", "MIT"),
                line("pkg", "1.1.0", "2020-09-01", "ISC"),
                line("pkg", "2.0.0", "2021-03-01", "ISC"),
                line("other", "0.1.0", "2020-05-05", "UNLICENSED"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        assert report.usage == {
            (2020, "ISC"): 1,
            (2020, NO_LICENSE_BUCKET): 1,
            (2021, "ISC"): 1,
        }

    def test_publish_date_wins_over_semver_within_year(self, seed_dataset, aliases):
        # A backported patch published later in the year is still the
        # year's latest release.
        text = "\n".join(
            [
                line("pkg", "2.0.0", "2020-03-01", "MIT"),
                line("pkg", "1.9.9", "2020-11-01", "ISC"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        assert report.usage == {(2020, "ISC"): 1}

    def test_expression_bucket_uses_canonical_rendering(self, seed_dataset, aliases):
        text = line("pkg", "1.0.0", "2020-01-01", "(mit or apache-2.0)")
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        assert report.usage == {(2020, "MIT OR Apache-2.0"): 1}


class TestRankPairs:
    def test_k_larger_than_pairs(self, seed_dataset, aliases):
        text = "\n".join(
            [
                line("a", "1.0.0", "2021-01-01", "MIT", "b@*"),
                line("b", "1.0.0", "2021-01-01", "Apache-2.0"),
            ]
        )
        report, _, _ = _scan_text(text, seed_dataset, aliases)
        rows = rank_pairs(report, 50)
        assert rows[ConflictType.C2] == (("MIT", "Apache-2.0", 1),)

    def test_empty_report(self, seed_dataset, aliases):
        report, _, _ = _scan_text(
            line("solo", "1.0.0", "2021-01-01", "MIT"), seed_dataset, aliases
        )
        rows = rank_pairs(report, 10)
        for ctype in ConflictType:
            assert rows[ctype] == ()
            assert report.edges_with_findings[ctype] == 0

    def test_rank_by_count_then_name(self, seed_dataset, aliases):
        rows = [
            line("a1", "1.0.0", "2021-01-01", "MIT", "apache1@*;apache2@*"),
            line("a2", "1.0.0", "2021-01-01", "MIT", "apache1@*"),
            line("b1", "1.0.0", "2021-01-01", "ISC", "apache1@*"),
            line("apache1", "1.0.0", "2020-01-01", "Apache-2.0"),
            line("apache2", "1.0.0", "2020-01-01", "Apache-2.0"),
        ]
        report, _, _ = _scan_text("\n".join(rows), seed_dataset, aliases)
        rows = rank_pairs(report, 10)
        assert rows[ConflictType.C2] == (
            ("MIT", "Apache-2.0", 3),
            ("ISC", "Apache-2.0", 1),
        )

    def test_invalid_k(self, seed_dataset, aliases):
        report, _, _ = _scan_text(
            line("solo", "1.0.0", "2021-01-01", "MIT"), seed_dataset, aliases
        )
        with pytest.raises(ValueError):
            rank_pairs(report, 0)


def test_scan_deterministic(seed_dataset, aliases):
    text = "\n".join(
        [
            line("a", "1.0.0", "2021-01-01", "MIT", "b@*;c@*"),
            line("b", "1.0.0", "2021-01-01", "Apache-2.0"),
            line("c", "1.0.0", "2021-01-01", "GPL-3.0-only"),
        ]
    )
    first, _, _ = _scan_text(text, seed_dataset, aliases)
    second, _, _ = _scan_text(text, seed_dataset, aliases)
    assert first == second


def test_scan_hashes_no_version_or_expression_tree(seed_dataset, aliases, monkeypatch):
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
    expected = scan(graph, records, seed_dataset, False, aliases)
    assert expected.conflicted_edges and expected.unknown_license_edges == 1
    assert max(n for pairs in expected.top_pairs.values() for n in pairs.values()) >= 2

    def unhashable(self):
        raise AssertionError(f"scan hashed a {type(self).__name__}")

    for cls in (Semver, And, Or):
        monkeypatch.setattr(cls, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(records[0].version)
    assert scan(graph, records, seed_dataset, False, aliases) == expected
