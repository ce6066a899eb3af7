import datetime as dt
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from licterm.dataset import AliasTable
from licterm.errors import DuplicateVersionError, FormatError
from licterm.expression import Unresolvable, UnresolvableReason, render
from licterm.registry import (
    GRAPH_HEADER,
    UNRESOLVED_REASONS,
    Edge,
    VersionRecord,
    build_graph,
    license_changes,
    parse_snapshot,
    parse_snapshot_text,
    read_graph,
    write_graph,
)
from licterm.semver import RangeSyntaxError, Semver, VersionRange, parse_range, resolve_range

from oracles import (
    edge_key,
    oracle_build_graph_edges,
    oracle_license_changes,
    oracle_parse_snapshot,
    oracle_read_graph,
    oracle_write_graph,
)


def line(pkg, ver, date, license_raw, deps=""):
    return "\t".join((pkg, ver, date, license_raw, deps))


def _graph_keys(graph, records):
    """Edges and unresolved entries, in order, with each node as (package, version text)."""
    unresolved = [
        (records[u.node].package, str(records[u.node].version), u.dep_name, u.range, u.reason)
        for u in graph.unresolved
    ]
    return [edge_key(e, records) for e in graph.edges], unresolved


SMALL_SNAPSHOT = "\n".join(
    [
        "# ten records",
        line("app", "1.0.0", "2020-01-05", "MIT", "libA@^2.0.0;libB@1.x"),
        line("app", "1.1.0", "2020-06-01", "MIT", "libA@^2.0.0"),
        line("libA", "2.0.0", "2019-05-02", "Apache-2.0"),
        line("libA", "2.1.0", "2019-11-20", "Apache-2.0"),
        line("libA", "3.0.0", "2021-02-14", "Apache-2.0"),
        line("libB", "1.0.0", "2018-03-03", "ISC"),
        line("libB", "1.2.0", "2018-09-09", "ISC"),
        line("libB", "2.0.0", "2019-01-01", "ISC"),
        line("orphan", "0.1.0", "2022-07-07", "", "ghost@*;libA@nonsense;libB@>9.0.0"),
        line("pre", "1.0.0-rc.1", "2022-08-08", "MIT"),
    ]
)


class TestSnapshotParsing:
    def test_ten_records(self):
        records = parse_snapshot_text(SMALL_SNAPSHOT)
        assert len(records) == 10
        assert records[0].package == "app"
        assert records[0].version == Semver(1, 0, 0)
        assert records[0].published == dt.date(2020, 1, 5)
        assert records[0].dependencies == (("libA", "^2.0.0"), ("libB", "1.x"))

    def test_file_order_preserved(self):
        records = parse_snapshot_text(SMALL_SNAPSHOT)
        assert [(r.package, str(r.version)) for r in records[:2]] == [
            ("app", "1.0.0"),
            ("app", "1.1.0"),
        ]

    def test_partial_version_is_format_error(self):
        with pytest.raises(FormatError) as exc:
            parse_snapshot_text(line("x", "1.2", "2020-01-01", "MIT"), source="s.dat")
        assert "s.dat:1" in str(exc.value)

    def test_duplicate_version_rejected(self):
        text = "\n".join(
            [
                line("x", "1.0.0", "2020-01-01", "MIT"),
                line("x", "1.0.0", "2020-02-01", "ISC"),
            ]
        )
        with pytest.raises(DuplicateVersionError):
            parse_snapshot_text(text)

    def test_duplicate_by_precedence_rejected(self):
        # Build metadata plays no part in precedence, so these are one version.
        text = "\n".join(
            [
                line("a", "1.0.0+x", "2020-01-01", "MIT"),
                line("b", "1.0.0", "2020-01-01", "MIT"),
                line("a", "1.0.0+y", "2020-02-01", "ISC"),
            ]
        )
        with pytest.raises(DuplicateVersionError) as exc:
            parse_snapshot_text(text, source="s.dat")
        assert str(exc.value).startswith("s.dat:3: ")

    def test_bad_field_count(self):
        with pytest.raises(FormatError):
            parse_snapshot_text("a\t1.0.0\t2020-01-01\tMIT")

    def test_bad_date(self):
        with pytest.raises(FormatError):
            parse_snapshot_text(line("x", "1.0.0", "not-a-date", "MIT"))

    def test_scoped_package_names(self):
        text = line("app", "1.0.0", "2020-01-01", "MIT", "@scope/pkg@^1.0.0")
        records = parse_snapshot_text(text)
        assert records[0].dependencies == (("@scope/pkg", "^1.0.0"),)

    def test_padded_dependency_name_is_stripped(self):
        text = line("p", "1.0.0", "2020-01-01", "MIT", " q @^1.0.0; @s/r @ ~1.2 ")
        records = parse_snapshot_text(text)
        assert records[0].dependencies == (("q", "^1.0.0"), ("@s/r", "~1.2"))

    def test_blank_dependency_name_is_format_error(self):
        text = line("p", "1.0.0", "2020-01-01", "MIT", "q@^1; @^1.0.0")
        with pytest.raises(FormatError) as exc:
            parse_snapshot_text(text, source="s.dat")
        assert str(exc.value) == "s.dat:1: dependency entry '@^1.0.0' is not name@range"

    def test_empty_license_allowed(self):
        records = parse_snapshot_text(line("x", "1.0.0", "2020-01-01", ""))
        assert records[0].license_raw == ""


class TestBuildGraph:
    def test_direct_resolution(self):
        records = parse_snapshot_text(
            "\n".join(
                [
                    line("A", "1.0.0", "2020-01-01", "MIT", "B@^2.0.0"),
                    line("B", "2.1.0", "2020-01-01", "MIT"),
                ]
            )
        )
        graph = build_graph(records)
        assert graph.edges == (Edge(0, 1, "^2.0.0"),)
        assert [edge_key(e, records) for e in graph.edges] == [
            ("A", "1.0.0", "B", "2.1.0", "^2.0.0")
        ]
        assert graph.unresolved == ()

    def test_small_snapshot_edges_and_failures(self):
        records = parse_snapshot_text(SMALL_SNAPSHOT)
        graph = build_graph(records)
        edges = {edge_key(e, records)[:4]: e.range for e in graph.edges}
        assert edges == {
            ("app", "1.0.0", "libA", "2.1.0"): "^2.0.0",
            ("app", "1.0.0", "libB", "1.2.0"): "1.x",
            ("app", "1.1.0", "libA", "2.1.0"): "^2.0.0",
        }
        reasons = {(u.dep_name, u.reason) for u in graph.unresolved}
        assert reasons == {
            ("ghost", "unknown-package"),
            ("libA", "unparsable-range"),
            ("libB", "no-match"),
        }

    def test_non_ascii_digit_range_is_unparsable(self):
        # "\u0661" is ARABIC-INDIC DIGIT ONE; it is not read as the digit 1.
        text = "\n".join(
            [
                line("app", "1.0.0", "2020-01-01", "MIT", "lib@^\u0661.2.3"),
                line("lib", "1.2.3", "2020-01-01", "MIT"),
            ]
        )
        graph = build_graph(parse_snapshot_text(text))
        assert graph.edges == ()
        assert [(u.dep_name, u.range, u.reason) for u in graph.unresolved] == [
            ("lib", "^\u0661.2.3", "unparsable-range")
        ]

    def test_spaced_tilde_arrow_and_partial_hyphen_ranges_resolve(self):
        # node-semver reads ">= 1.2.3" as ">=1.2.3", "~>1.2" as "~1.2" and
        # "1.2 - 2" as ">=1.2.0 <3.0.0"; none is an unparsable range.
        deps = "lib@>= 1.2.3;lib@~>1.2;lib@1.2 - 2"
        text = "\n".join(
            [line("app", "1.0.0", "2020-01-01", "MIT", deps)]
            + [line("lib", version, "2020-01-01", "MIT")
               for version in ("1.1.0", "1.2.5", "2.9.0", "3.0.0")]
        )
        records = parse_snapshot_text(text)
        graph = build_graph(records)
        assert graph.unresolved == ()
        got = {edge_key(e, records) for e in graph.edges}
        assert got == oracle_build_graph_edges(records)
        assert got == {
            ("app", "1.0.0", "lib", "3.0.0", ">= 1.2.3"),
            ("app", "1.0.0", "lib", "1.2.5", "~>1.2"),
            ("app", "1.0.0", "lib", "2.9.0", "1.2 - 2"),
        }

    def test_resolves_against_versions_in_precedence_order(self, monkeypatch):
        # Snapshot order, text order and precedence order all differ here.
        ranges = []

        def in_key_order(rng, available):
            assert all(a.key < b.key for a, b in zip(available, available[1:])), [
                str(version) for version in available
            ]
            ranges.append(rng.raw)
            return resolve_range(rng, available)

        monkeypatch.setattr("licterm.registry.resolve_range", in_key_order)
        versions = ("2.0.0", "10.0.0-rc.1", "2.0.0-beta.11", "1.9.0+build.7",
                    "2.0.0-beta.2", "10.0.0", "1.10.0", "2.0.0-alpha+exp", "1.2.3")
        deps = ";".join(
            "lib@" + range_str
            for range_str in (">=2.0.0-beta.2 <2.0.0", "^1.2.0", "~1.9",
                              "2.0.0-beta.11 - 10.0.0-rc.1", "*", "10.0.0-rc.1")
        )
        text = "\n".join(
            [line("app", "1.0.0", "2020-01-01", "MIT", deps)]
            + [line("lib", version, "2020-01-01", "MIT") for version in versions]
        )
        records = parse_snapshot_text(text)
        graph = build_graph(records)
        assert len(ranges) == 6 and graph.unresolved == ()
        got = {edge_key(e, records) for e in graph.edges}
        assert got == oracle_build_graph_edges(records)
        assert {(dep_version, range_str) for *_, dep_version, range_str in got} == {
            ("2.0.0-beta.11", ">=2.0.0-beta.2 <2.0.0"),
            ("1.10.0", "^1.2.0"),
            ("1.9.0+build.7", "~1.9"),
            ("10.0.0-rc.1", "2.0.0-beta.11 - 10.0.0-rc.1"),
            ("10.0.0", "*"),
            ("10.0.0-rc.1", "10.0.0-rc.1"),
        }

    def test_every_edge_satisfies_its_range(self):
        from licterm.semver import parse_range

        records = parse_snapshot_text(SMALL_SNAPSHOT)
        graph = build_graph(records)
        assert graph.edges
        for edge in graph.edges:
            assert parse_range(edge.range).satisfies(records[edge.dep].version)

    def test_order_independent(self):
        records = parse_snapshot_text(SMALL_SNAPSHOT)
        shuffled = records[::-1]
        assert _graph_keys(build_graph(records), records) == _graph_keys(
            build_graph(shuffled), shuffled
        )

    def test_matches_naive_oracle(self):
        records = parse_snapshot_text(SMALL_SNAPSHOT)
        graph = build_graph(records)
        got = {edge_key(e, records) for e in graph.edges}
        assert got == oracle_build_graph_edges(records)


class TestDuplicateEntries:
    """Each dependency entry yields its own edge or unresolved record."""

    def test_repeated_entry_gives_two_identical_edges(self):
        records = parse_snapshot_text(
            "\n".join(
                [
                    line("a", "1.0.0", "2020-01-01", "MIT", "b@^1.0.0;b@^1.0.0"),
                    line("b", "1.2.0", "2020-01-01", "MIT"),
                ]
            )
        )
        graph = build_graph(records)
        assert graph.edges == (Edge(0, 1, "^1.0.0"), Edge(0, 1, "^1.0.0"))
        assert [edge_key(e, records) for e in graph.edges] == [
            ("a", "1.0.0", "b", "1.2.0", "^1.0.0")
        ] * 2

    def test_entries_are_conserved(self):
        # The same (package, range) recurs within one record and across
        # records, for every outcome; none may be dropped or merged.
        records = parse_snapshot_text(
            "\n".join(
                [
                    line(
                        "app", "1.0.0", "2020-01-01", "MIT",
                        "lib@^1.0.0;lib@^1.0.0;lib@^9.0.0;ghost@*;ghost@*;lib@nonsense;lib@nonsense",
                    ),
                    line("app", "1.1.0", "2020-02-01", "MIT", "lib@^1.0.0;lib@^9.0.0;ghost@*"),
                    line("tool", "0.1.0", "2020-03-01", "MIT", "lib@nonsense;lib@^1.0.0"),
                    line("lib", "1.0.0", "2019-01-01", "MIT"),
                    line("lib", "1.2.0", "2019-02-01", "MIT"),
                ]
            )
        )
        graph = build_graph(records)
        entries = sum(len(r.dependencies) for r in records)
        assert len(graph.edges) + len(graph.unresolved) == entries == 12
        assert Counter(edge_key(e, records)[:2] for e in graph.edges) == {
            ("app", "1.0.0"): 2,
            ("app", "1.1.0"): 1,
            ("tool", "0.1.0"): 1,
        }
        assert {edge_key(e, records)[2:4] for e in graph.edges} == {("lib", "1.2.0")}
        assert Counter(u.reason for u in graph.unresolved) == {
            "unknown-package": 3,
            "no-match": 2,
            "unparsable-range": 3,
        }
        unresolved = _graph_keys(graph, records)[1]
        assert Counter((u[0], u[1], u[4]) for u in unresolved) == {
            ("app", "1.0.0", "unknown-package"): 2,
            ("app", "1.0.0", "no-match"): 1,
            ("app", "1.0.0", "unparsable-range"): 2,
            ("app", "1.1.0", "unknown-package"): 1,
            ("app", "1.1.0", "no-match"): 1,
            ("tool", "0.1.0", "unparsable-range"): 1,
        }


class TestResolutionWork:
    def test_one_candidate_per_conjunction_per_distinct_range(self, monkeypatch):
        # A count, not a timing: each distinct (package, range) is resolved
        # once, and the top of each bisected window is the answer. Every
        # version in a window meets its conjunction's comparators, so only
        # prerelease candidates reach `satisfies`. With none here it is not
        # called at all, inside the bound of one call per conjunction. A
        # resolver that asks `satisfies` about every version calls it 500
        # times per dependency entry.
        lib = [f"{major}.{minor}.{patch}" for major in range(5)
               for minor in range(10) for patch in range(10)]
        ranges = (
            [f"^{major}.{minor}.0" for major in range(1, 5) for minor in (0, 3, 6)]
            + [f"~{major}.{minor}.{patch}" for major in range(5)
               for minor, patch in ((1, 2), (5, 5), (9, 0))]
            + [f"{major}.{minor}.0 - {major + 1}.{minor}.9" for major in range(4)
               for minor in (2, 4, 7)]
            + ["^0.2"]
        )
        assert len(set(ranges)) == 40
        text = [line("lib", version, "2020-01-01", "MIT") for version in lib]
        text += [
            line("app", f"{i}.0.0", "2021-01-01", "MIT", f"lib@{ranges[i % 40]}")
            for i in range(200)
        ]
        records = parse_snapshot_text("\n".join(text))

        calls = 0
        satisfies = VersionRange.satisfies

        def counted(rng, version):
            nonlocal calls
            calls += 1
            return satisfies(rng, version)

        monkeypatch.setattr(VersionRange, "satisfies", counted)
        graph = build_graph(records)
        assert len(graph.edges) == 200 and graph.unresolved == ()
        assert calls <= sum(len(parse_range(r).alternatives) for r in ranges)
        monkeypatch.undo()
        got = {edge_key(e, records) for e in graph.edges}
        assert got == oracle_build_graph_edges(records)

    def test_each_range_text_parsed_and_each_pair_resolved_once(self, monkeypatch):
        # Counts through the names the registry module imports, which the
        # traced benchmark patches: parse_range once per distinct range text
        # of a known package, resolve_range once per distinct (package, range).
        records = parse_snapshot_text(_seeded_snapshot(random.Random(3)))
        packages = {r.package for r in records}
        entries = [entry for r in records for entry in r.dependencies if entry[0] in packages]
        texts = {range_str for _, range_str in entries}
        pairs = set()
        for name, range_str in entries:
            try:
                parse_range(range_str)
            except RangeSyntaxError:
                continue
            pairs.add((name, range_str))
        # Entries repeat, and range texts repeat across packages.
        assert len(entries) > len(set(entries)) and len(texts) < len(pairs)

        parsed, resolved = Counter(), Counter()

        def counted_parse(text):
            parsed[text] += 1
            return parse_range(text)

        def counted_resolve(rng, available):
            resolved[rng.raw, id(available)] += 1  # one version list per package
            return resolve_range(rng, available)

        monkeypatch.setattr("licterm.registry.parse_range", counted_parse)
        monkeypatch.setattr("licterm.registry.resolve_range", counted_resolve)
        build_graph(records)
        assert parsed == Counter(texts)
        assert sorted(resolved.values()) == [1] * len(pairs)
        assert len({available for _, available in resolved}) == len({name for name, _ in pairs})


def _records(*rows):
    return [
        VersionRecord(p, Semver.parse(v), dt.date.fromisoformat(d), lic, ())
        for p, v, d, lic in rows
    ]


class TestLicenseChanges:
    def test_case_variant_is_not_a_change(self, aliases, known):
        records = _records(
            ("pkg", "1.0.0", "2020-01-01", "MIT"),
            ("pkg", "1.1.0", "2020-02-01", "mit"),
            ("pkg", "2.0.0", "2020-03-01", "ISC"),
        )
        changes = license_changes(records, aliases, known)
        assert len(changes) == 1
        change = changes[0]
        assert change.package == "pkg"
        assert render(change.from_outcome) == "MIT"
        assert render(change.to_outcome) == "ISC"
        assert change.at_version == Semver(2, 0, 0)
        assert change.classification == "permissive-to-permissive"

    def test_permissive_to_copyleft(self, aliases, known):
        records = _records(
            ("pkg", "1.0.0", "2020-01-01", "MIT"),
            ("pkg", "2.0.0", "2021-01-01", "GPL-3.0-only"),
        )
        (change,) = license_changes(records, aliases, known)
        assert change.classification == "permissive-to-copyleft"

    def test_single_version_no_changes(self, aliases, known):
        records = _records(("pkg", "1.0.0", "2020-01-01", "MIT"))
        assert license_changes(records, aliases, known) == []

    def test_statement_form_changes_suppressed(self, aliases, known):
        records = _records(
            ("pkg", "1.0.0", "2020-01-01", "SEE LICENSE IN LICENSE.txt"),
            ("pkg", "1.1.0", "2020-02-01", "SEE LICENSE IN COPYING.txt"),
        )
        assert license_changes(records, aliases, known) == []

    def test_unresolvable_to_resolved_classified(self, aliases, known):
        records = _records(
            ("pkg", "1.0.0", "2020-01-01", "SEE LICENSE IN LICENSE.txt"),
            ("pkg", "2.0.0", "2020-02-01", "MIT"),
        )
        (change,) = license_changes(records, aliases, known)
        assert change.classification == "involving-unresolvable"
        assert isinstance(change.from_outcome, Unresolvable)
        assert change.from_outcome.reason is UnresolvableReason.FILE_REFERENCE

    def test_semver_order_not_file_order(self, aliases, known):
        records = _records(
            ("pkg", "2.0.0", "2020-03-01", "ISC"),
            ("pkg", "1.0.0", "2020-01-01", "MIT"),
        )
        (change,) = license_changes(records, aliases, known)
        assert render(change.from_outcome) == "MIT"
        assert change.at_version == Semver(2, 0, 0)

    def test_expression_changes_detected(self, aliases, known):
        records = _records(
            ("pkg", "1.0.0", "2020-01-01", "MIT OR Apache-2.0"),
            ("pkg", "1.1.0", "2020-02-01", "(mit or apache-2.0)"),
            ("pkg", "2.0.0", "2020-03-01", "MIT"),
        )
        (change,) = license_changes(records, aliases, known)
        assert render(change.from_outcome) == "MIT OR Apache-2.0"
        assert render(change.to_outcome) == "MIT"


# Raw licenses for change histories: permissive and copyleft ids, alias
# spellings of both, mixed expressions, an id the alias table alone knows
# with "+", and every unresolvable form.
_CHANGE_LICENSES = [
    "MIT", "mit", "MIT License", "Apache-2.0", "apache2", "ISC", "BSD", "GPL-3.0-only",
    "gplv3", "gpl-2.0+", "LGPL-2.1-only", "MPL-2.0", "AGPL-3.0-only", "MIT OR GPL-3.0-only",
    "(mit or apache2)", "Apache-2.0 WITH LLVM-exception", "", "UNLICENSED",
    "SEE LICENSE IN LICENSE", "https://opensource.org/licenses/MIT",
    "0123456789abcdef0123456789abcdef", "Proprietary",
]
# Precedence differs from text order: 10 > 2, beta.11 > beta.2, alpha < alpha.1.
_CHANGE_VERSIONS = [
    "0.9.0", "1.0.0-alpha", "1.0.0-alpha.1", "1.0.0-beta.2", "1.0.0-beta.11", "1.0.0",
    "1.0.1", "1.1.0", "2.0.0-rc.1", "2.0.0", "10.0.0",
]


def _change_history(rng: random.Random) -> list[VersionRecord]:
    """Shuffled versions of a few packages, some with build metadata, on random dates."""
    rows = []
    for package in ("a", "b", "c", "@s/d"):
        for version in rng.sample(_CHANGE_VERSIONS, rng.randint(1, len(_CHANGE_VERSIONS))):
            version += rng.choice(["", "", "+build.1"])
            date = dt.date(2015, 1, 1) + dt.timedelta(days=rng.randrange(3000))
            rows.append((package, version, date.isoformat(), rng.choice(_CHANGE_LICENSES)))
    rng.shuffle(rows)
    return _records(*rows)


class TestLicenseChangesOracle:
    @pytest.mark.parametrize("table", ["bundled", "empty"])
    def test_seeded_histories_equal_oracle(self, table, aliases, known):
        table = aliases if table == "bundled" else AliasTable()
        classifications = Counter()
        for seed in range(200):
            records = _change_history(random.Random(seed))
            changes = license_changes(records, table, known)
            assert changes == oracle_license_changes(records, table, known), seed
            classifications.update(c.classification for c in changes)
        moves = {"permissive-to-copyleft", "copyleft-to-permissive", "involving-unresolvable"}
        assert moves <= classifications.keys()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from(_CHANGE_VERSIONS),
                st.integers(0, 3000),
                st.sampled_from(_CHANGE_LICENSES),
            ),
            unique_by=lambda row: row[:2],
            max_size=20,
        )
    )
    def test_histories_equal_oracle_hypothesis(self, aliases, known, rows):
        records = _records(
            *(
                (package, version, (dt.date(2015, 1, 1) + dt.timedelta(days)).isoformat(), raw)
                for package, version, days, raw in rows
            )
        )
        assert license_changes(records, aliases, known) == oracle_license_changes(
            records, aliases, known
        )


def _seeded_snapshot(rng: random.Random) -> str:
    """Shuffled records with scoped names, prereleases, build metadata and bad ranges."""
    packages = ["app", "lib", "@scope/pkg", "@scope/util"]
    suffixes = ["", "", "-rc.1", "-beta.2", "+build.7", "-alpha.1+sha.5f"]
    licenses = ["MIT", "Apache-2.0", "GPL-3.0-only", "MIT OR ISC", "", "SEE LICENSE IN LICENSE"]
    ranges = ["^1.0.0", "~2.1.0", "*", ">=1.0.0-rc.1 <2.0.0", "1.x || 2.x", ">9.0.0", "nonsense"]
    rows = []
    for package in packages:
        for major in range(3):
            for minor in rng.sample(range(5), 2):  # one patch each: no repeated precedence
                version = f"{major}.{minor}.{rng.randrange(3)}{rng.choice(suffixes)}"
                published = f"20{10 + major}-{minor + 1:02d}-{rng.randrange(1, 29):02d}"
                deps = ";".join(
                    f"{rng.choice(packages + ['ghost'])}@{rng.choice(ranges)}"
                    for _ in range(rng.randrange(4))
                )
                rows.append(line(package, version, published, rng.choice(licenses), deps))
    rng.shuffle(rows)
    return "\n".join(rows)


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        records = parse_snapshot_text(SMALL_SNAPSHOT)[::-1]  # not in node-line order
        graph = build_graph(records)
        path = tmp_path / "graph.dat"
        write_graph(graph, records, path)
        loaded_graph, loaded_records = read_graph(path)
        assert {(r.package, r.version) for r in loaded_records} == {
            (r.package, r.version) for r in records
        }
        # The same entries in the same order, though the indexes behind them differ.
        assert loaded_records[0].package != records[0].package
        assert _graph_keys(loaded_graph, loaded_records) == _graph_keys(graph, records)
        by_key = {(r.package, str(r.version)): r for r in records}
        for r in loaded_records:
            original = by_key[(r.package, str(r.version))]
            assert r.published == original.published
            assert r.license_raw == original.license_raw

    def test_write_is_deterministic(self, tmp_path):
        records = parse_snapshot_text(SMALL_SNAPSHOT)
        graph = build_graph(records)
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        write_graph(graph, records, a)
        reversed_records = records[::-1]
        write_graph(build_graph(reversed_records), reversed_records, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            ([GRAPH_HEADER, "what\tis\tthis"], 2),
            (
                [
                    GRAPH_HEADER,
                    "node\ta\t1.0.0\t2020-01-01\tMIT",
                    "edge\ta\t1.0.0\tb\t1.0.0\t^1",
                ],
                3,
            ),
            (
                [
                    GRAPH_HEADER,
                    "edge\ta\t1.0.0\tb\t1.0.0\t^1",
                    "node\ta\t1.0.0\t2020-01-01\tMIT",
                    "node\tb\t1.0.0\t2020-01-01\tMIT",
                ],
                2,
            ),
            (
                [
                    GRAPH_HEADER,
                    "node\ta\t1.0.0\t2020-01-01\tMIT",
                    "node\tb\t1.0.0\t2020-01-01\tMIT",
                    "edge\ta\t1.0.0\tb\tone\t^1",
                ],
                4,
            ),
            ([GRAPH_HEADER, "unresolved\ta\t1.x\tb\t^1\tno-match"], 2),
            ([GRAPH_HEADER, "unresolved\ta\t1.0.0\tb\t^1\tno-match"], 2),
            (["node\ta\t1.0.0\t2020-01-01\tMIT"], 1),
            (["#% licterm-graph 2", "node\ta\t1.0.0\t2020-01-01\tMIT"], 1),
            (
                [
                    GRAPH_HEADER,
                    "node\ta\t1.0.0+x\t2020-01-01\tMIT",
                    "node\ta\t1.0.0+y\t2020-02-01\tISC",
                ],
                3,
            ),
            ([GRAPH_HEADER, "node\t\t1.0.0\t2020-01-01\tMIT"], 2),
            (
                [
                    GRAPH_HEADER,
                    "node\ta\t1.0.0\t2020-01-01\tMIT",
                    "node\ta\t1.1.0\t2020-02-30\tMIT",
                ],
                3,
            ),
            ([GRAPH_HEADER, "node\ta\t1.0\t2020-01-01\tMIT"], 2),
            (
                [
                    GRAPH_HEADER,
                    "node\ta\t1.0.0\t2020-01-01\tMIT",
                    "unresolved\ta\t1.0.0\tb\t^1\tbogus-reason",
                ],
                3,
            ),
            (
                [
                    GRAPH_HEADER,
                    "node\t a \t1.0.0\t2020-01-01\tMIT",
                    "node\tb\t1.0.0\t2020-01-01\tMIT",
                    "edge\t a \t1.0.0\tb\t1.0.0\t^1",
                    "edge\ta\t1.0.0\tb\t1.0.0\t^1",
                ],
                5,
            ),
        ],
        ids=[
            "unknown-kind",
            "missing-edge-target",
            "edge-above-its-nodes",
            "bad-edge-version",
            "bad-unresolved-version",
            "unresolved-without-node",
            "missing-header",
            "other-format-version",
            "duplicate-node-by-precedence",
            "empty-node-package",
            "bad-node-date",
            "bad-node-version",
            "bogus-unresolved-reason",
            "edge-package-text-differs",
        ],
    )
    def test_read_rejects_garbage(self, tmp_path, lines, bad_line):
        path = tmp_path / "bad.dat"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as excinfo:
            read_graph(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}:{bad_line}: ")
        assert "<input>" not in message

    def test_endpoints_match_the_node_lines_package_text(self, tmp_path):
        # The package is stripped in the record, but an edge or unresolved
        # line names a node by the same package text its node line has.
        path = tmp_path / "padded.dat"
        lines = [
            GRAPH_HEADER,
            "node\t a \t1.0.0\t2020-01-01\tMIT",
            "node\tb\t1.0.0+x\t2020-01-01\tMIT",
            "edge\t a \t1.0.0\tb\t1.0.0+x\t^1",
            "unresolved\t a \t1.0.0\tc\t^1\tunknown-package",
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        graph, records = read_graph(path)
        assert [r.package for r in records] == ["a", "b"]
        assert graph.edges == (Edge(0, 1, "^1"),)
        assert [u.node for u in graph.unresolved] == [0]

    def test_duplicate_node_is_duplicate_version_error(self, tmp_path):
        path = tmp_path / "dup.dat"
        lines = [GRAPH_HEADER, "node\ta\t1.0.0\t2020-01-01\tMIT", "node\ta\t1.0.0\t2020-02-01\tISC"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DuplicateVersionError) as excinfo:
            read_graph(path)
        assert str(excinfo.value) == f"{path}:3: duplicate record for a@1.0.0"

    def test_byte_round_trip(self, tmp_path):
        records = parse_snapshot_text(_seeded_snapshot(random.Random(11)))
        graph = build_graph(records)
        assert any(r.version.build for r in records)
        assert any(r.version.prerelease for r in records)
        assert any(r.package.startswith("@") for r in records)
        assert {u.reason for u in graph.unresolved} == {
            "unknown-package",
            "no-match",
            "unparsable-range",
        }
        p, q = tmp_path / "p.dat", tmp_path / "q.dat"
        write_graph(graph, records, p)
        loaded_graph, loaded_records = read_graph(p)
        write_graph(loaded_graph, loaded_records, q)
        assert q.read_bytes() == p.read_bytes()

        def fields(r):  # str(version) keeps the build metadata that == ignores
            return (r.package, str(r.version), r.published, r.license_raw, r.dependencies)

        assert sorted(map(fields, loaded_records)) == sorted(
            fields(r._replace(dependencies=())) for r in records
        )

    def test_write_matches_oracle(self, tmp_path):
        path = tmp_path / "g.dat"
        shared_text = split_build = False
        for seed in range(20):
            records = parse_snapshot_text(_seeded_snapshot(random.Random(seed)))
            graph = build_graph(records)
            assert {u.reason for u in graph.unresolved} == set(UNRESOLVED_REASONS)
            write_graph(graph, records, path)
            assert path.read_bytes() == oracle_write_graph(graph, records).encode("utf-8"), seed
            packages_of, texts_of = defaultdict(set), defaultdict(set)
            for r in records:
                packages_of[str(r.version)].add(r.package)
                texts_of[r.version.key].add(str(r.version))
            shared_text |= any(len(p) > 1 for p in packages_of.values())
            split_build |= any(len(t) > 1 for t in texts_of.values())
        # One version text named by several packages, and precedence-equal
        # versions that print apart by their build metadata.
        assert shared_text and split_build

    def test_write_renders_each_version_object_once(self, tmp_path, monkeypatch):
        # A count, not a timing: the parser shares one Semver per version
        # text, here across packages, so rendering each record's version
        # would render a shared one more than once.
        records = parse_snapshot_text(_seeded_snapshot(random.Random(1)))
        graph = build_graph(records)
        versions = {id(r.version) for r in records}
        assert len(versions) < len(records)
        rendered = Counter()
        to_text = Semver.__str__

        def counted(version):
            rendered[id(version)] += 1
            return to_text(version)

        monkeypatch.setattr(Semver, "__str__", counted)
        write_graph(graph, records, tmp_path / "g.dat")
        monkeypatch.undo()
        assert set(rendered) <= versions and max(rendered.values()) == 1

    def test_parse_snapshot_from_file(self, tmp_path):
        path = tmp_path / "snap.dat"
        path.write_text(SMALL_SNAPSHOT + "\n", encoding="utf-8")
        assert len(parse_snapshot(path)) == 10


# Field pools for the parser-oracle inputs: good values repeat, padded
# values and malformed ones mix in. "\x0c" and "　" are whitespace
# that is no line break.
_PACKAGES = ["a", "b", "@s/c", " a", "b ", "　a", "", " "]
_VERSIONS = ["1.0.0", "1.0.0+x", "1.2.0", "2.0.0-rc.1", " 1.2.0 ", "1.0", "01.0.0"]
_DATES = ["2020-01-01", "2020-01-01", " 2020-01-01", "2021-02-28 ", "2021-02-29", "20200101"]
_LICENSES = ["MIT", "MIT", " MIT ", "", "GPL-3.0-only OR MIT"]
_ENTRIES = [
    "b@^1.0.0", "b@^1.0.0", " b @^1.0.0", "@s/c@~1.2", "a@1.x || 2.x", "q@ >=1.0.0 ",
    "", " ", "b@", "@^1", " @1.0.0", "b",
]
_BREAKS = ["\n", "\n", "\r\n", "\r"]
_SKIPPED = [
    "", "   ", "# comment", "  # indented", "\t", "\x0c# feed", "　",
    # Comments that split into five fields, as a record line does.
    "#a\tb\tc\td\te", "  #\t1.0.0\t2020-01-01\tMIT\t",
]


def _pick(rng: random.Random, pool: list[str], bad: float) -> str:
    """A value from ``pool``: its first two entries, or with probability ``bad`` any."""
    return rng.choice(pool) if rng.random() < bad else rng.choice(pool[:2])


def _snapshot_lines(rng: random.Random, bad: float) -> list[str]:
    rows = []
    for _ in range(rng.randrange(1, 30)):
        if rng.random() < 0.15:
            rows.append(rng.choice(_SKIPPED))
            continue
        fields = [
            _pick(rng, _PACKAGES, bad) + rng.choice(["", "", str(rng.randrange(3))]),
            _pick(rng, _VERSIONS, bad).replace("1.0.0", f"1.{rng.randrange(20)}.0"),
            _pick(rng, _DATES, bad),
            _pick(rng, _LICENSES, bad),
            ";".join(_pick(rng, _ENTRIES, bad) for _ in range(rng.randrange(4))),
        ]
        if rng.random() < bad / 4:
            fields = fields[: rng.randrange(1, 5)] if rng.random() < 0.5 else fields + ["x"]
        rows.append("\t".join(fields))
    return rows


def _graph_lines(rng: random.Random, bad: float) -> list[str]:
    # Distinct nodes; edge and unresolved lines name them by their node
    # line's text, or with probability ``bad`` by a spelling that may differ.
    spellings = [
        (_pick(rng, _PACKAGES[:5], bad), _pick(rng, _VERSIONS, bad).replace("1.0.0", f"1.{i}.0"))
        for i in range(rng.randrange(1, 8))
    ]
    rows = [
        f"node\t{package}\t{version}\t{_pick(rng, _DATES, bad)}\t{_pick(rng, _LICENSES, bad)}"
        for package, version in spellings
    ]
    for _ in range(rng.randrange(20)):
        (package, version), dep = rng.choice(spellings), rng.choice(spellings)
        if rng.random() < bad:
            package = rng.choice([package.strip(), f" {package}", "c"])
        if rng.random() < 0.8:
            # A run of edges from one parent, as write_graph writes them. The
            # run may go on from a parent that differs only in its version
            # text, or only in the padding of its package.
            parents = [(package, version)]
            if rng.random() < 0.5:
                versions = [v for p, v in spellings if p == package and v != version]
                parents.append((package, rng.choice(versions or [f"{version} "])))
            if rng.random() < 0.1:
                parents.append((rng.choice([f" {package}", f"{package} "]), version))
            for package, version in parents:
                for _ in range(rng.randrange(1, 4)):
                    rows.append(f"edge\t{package}\t{version}\t{dep[0]}\t{dep[1]}\t^1.0.0")
                    dep = rng.choice(spellings)
        else:
            reason = "no-match"
            if rng.random() < bad:
                reason = rng.choice(["no-match", "unparsable-range", "bogus"])
            rows.append(f"unresolved\t{package}\t{version}\tq\t^1\t{reason}")
    for _ in range(rng.randrange(4)):
        junk = _SKIPPED if rng.random() > bad else [rows[0], "what\tis\tthis", "edge\ta\t1.0.0"]
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(junk))
    if rng.random() < bad:
        rng.shuffle(rows)
    header = GRAPH_HEADER if rng.random() > bad / 4 else rng.choice(["#% licterm-graph 2", ""])
    return [header] + rows


def _join(rng: random.Random, rows: list[str]) -> str:
    text = "".join(row + rng.choice(_BREAKS) for row in rows)
    return text if rng.random() < 0.5 else text.rstrip("\r\n")


def _result(parse, *args):
    """What a parser gives: its result, or its error's class, line and message."""
    try:
        return parse(*args)
    except FormatError as exc:
        return type(exc), exc.source, exc.line, exc.message


def _texts(records):  # str(version) keeps the build metadata that == ignores
    return [
        (r.package, str(r.version), r.published, r.license_raw, r.dependencies) for r in records
    ]


class TestParserOracles:
    """The memoized parsers against plain per-line ones, on inputs that repeat texts."""

    def _check_snapshot(self, text):
        got = _result(parse_snapshot_text, text, "s.dat")
        expected = _result(oracle_parse_snapshot, text, "s.dat")
        if isinstance(expected, list):
            assert isinstance(got, list) and _texts(got) == _texts(expected), text
        else:
            assert got == expected, text
        return expected

    def _check_graph(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        got = _result(read_graph, path)
        expected = _result(oracle_read_graph, text, str(path))
        if isinstance(expected, tuple) and isinstance(expected[1], list):
            assert isinstance(got[1], list), text
            assert got[0] == expected[0] and _texts(got[1]) == _texts(expected[1]), text
        else:
            assert got == expected, text
        return expected

    @pytest.mark.parametrize("bad", [0.0, 0.02, 0.2])
    def test_snapshots_match_oracle_seeded(self, bad):
        rng = random.Random(f"snapshot:{bad}")
        outcomes = Counter()
        for _ in range(300):
            expected = self._check_snapshot(_join(rng, _snapshot_lines(rng, bad)))
            outcomes[expected[0].__name__ if isinstance(expected, tuple) else "ok"] += 1
        # Inputs both parse and fail with each error class: the comparison is not vacuous.
        assert outcomes["ok"] >= 20
        assert not bad or (outcomes["FormatError"] and outcomes["DuplicateVersionError"])

    @pytest.mark.parametrize("bad", [0.0, 0.05, 0.2])
    def test_graphs_match_oracle_seeded(self, tmp_path, bad):
        rng = random.Random(f"graph:{bad}")
        path = tmp_path / "g.dat"
        outcomes = Counter()
        for _ in range(500):  # about 1 in 20 inputs at bad=0.2 parses
            expected = self._check_graph(path, _join(rng, _graph_lines(rng, bad)))
            outcomes["ok" if isinstance(expected[1], list) else expected[0].__name__] += 1
        # Inputs both parse and fail with each error class: the comparison is not vacuous.
        assert outcomes["ok"] >= 20
        assert not bad or (outcomes["FormatError"] and outcomes["DuplicateVersionError"])

    def test_written_graphs_match_oracle(self, tmp_path):
        rng = random.Random(5)
        for seed in range(10):
            records = parse_snapshot_text(_seeded_snapshot(random.Random(seed)))
            write_graph(build_graph(records), records, tmp_path / "w.dat")
            text = (tmp_path / "w.dat").read_text(encoding="utf-8")
            rows = text.split("\n")[:-1]
            assert isinstance(self._check_graph(tmp_path / "g.dat", _join(rng, rows))[1], list)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.3]))
    def test_snapshots_match_oracle_hypothesis(self, seed, bad):
        rng = random.Random(seed)
        self._check_snapshot(_join(rng, _snapshot_lines(rng, bad)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.3]))
    def test_graphs_match_oracle_hypothesis(self, tmp_path_factory, seed, bad):
        rng = random.Random(seed)
        path = tmp_path_factory.getbasetemp() / "oracle-graph.dat"  # rewritten by each example
        self._check_graph(path, _join(rng, _graph_lines(rng, bad)))
