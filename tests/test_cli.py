import codecs
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from licterm.cli import main
from licterm.conflicts import ConflictFinding, ConflictType, explain
from licterm.dataset import Dataset, dumps_dataset
from licterm.model import TERM_ORDER, Attitude, LicenseProfile, Term
from licterm.registry import GRAPH_HEADER, parse_snapshot, read_graph

from conftest import random_profile
from test_acceptance import _synthetic_snapshot
from test_conflicts import _family_dataset


# 2**13 OR choices against one: past the cap on choice pairs.
TOO_MANY_CHOICES = " AND ".join(["(MIT OR ISC)"] * 13)
# Far past the expression token bound: one long, one deeply nested. Without
# the bound, each recurses deeper than Hypothesis's raised recursion limit.
LONG_LICENSE = " AND ".join(["MIT"] * 3000)
DEEP_LICENSE = "(" * 1000 + "MIT" + ")" * 1000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def snapshot_line(pkg, ver, date, license_raw, deps=""):
    return "\t".join((pkg, ver, date, license_raw, deps))


class TestCheck:
    def test_conflicting_pair_exits_4(self, capsys):
        code, out, err = run(capsys, "check", "MIT", "CC-BY-4.0")
        assert code == 4
        assert "C1" in out and "sublicense" in out

    def test_identity_exits_0(self, capsys):
        code, out, err = run(capsys, "check", "MIT", "MIT")
        assert code == 0
        assert "no conflicts" in out

    def test_unresolvable_input_exits_3(self, capsys):
        code, out, err = run(capsys, "check", "MIT", "SEE LICENSE IN LICENSE.txt")
        assert code == 3
        assert "unresolvable" in err

    @pytest.mark.parametrize("fmt", ["table", "records"])
    @pytest.mark.parametrize(
        "parent, dep, role",
        [
            ("(GPL-2.0-only WITH Classpath-exception-2.0) WITH LLVM-exception", "MIT", "parent"),
            ("MIT", "(Apache-2.0) WITH LLVM-exception", "dependency"),
        ],
        ids=["exception-twice", "parenthesized-id"],
    )
    def test_with_after_parenthesis_is_unresolvable(self, capsys, fmt, parent, dep, role):
        # WITH takes a license id; a ")" before it makes the side a syntax error.
        code, out, err = run(capsys, "check", "--format", fmt, parent, dep)
        raw = parent if role == "parent" else dep
        assert (code, out) == (3, "")
        assert err == f"{role} license is unresolvable (unknown-name): {raw}\n"

    def test_records_format_is_json_lines(self, capsys):
        code, out, err = run(capsys, "check", "--format", "records", "MIT", "Apache-2.0")
        assert code == 4
        records = [json.loads(line) for line in out.splitlines()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"finding", "verdict"}
        findings = [r for r in records if r["kind"] == "finding"]
        assert {f["term"] for f in findings} == {"include-notice", "state-changes"}
        assert all(f["type"] == "C2" for f in findings)

    def test_strict_flag_adds_findings(self, capsys):
        _, lax_out, _ = run(capsys, "check", "--format", "records", "MIT", "ISC")
        code, strict_out, _ = run(
            capsys, "check", "--format", "records", "--strict-not-mentioned", "MIT", "ISC"
        )
        assert code == 4
        assert len(strict_out.splitlines()) > len(lax_out.splitlines())

    def test_irregular_inputs_normalized_first(self, capsys):
        code, out, err = run(capsys, "check", "mit", "apache2")
        assert code == 4
        assert "Apache-2.0" in out

    def test_too_many_or_choices_exits_3(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "MIT AND ISC", TOO_MANY_CHOICES)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "too many OR choices" in err and "(MIT OR ISC) AND" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "parent, dep, code, message",
        [
            (
                "MIT",
                "GPL-2.0-only WITH Classpath-exception-2.0",
                4,
                "exception Classpath-exception-2.0 on GPL-2.0-only is not modeled; "
                "checked against the base license",
            ),
            (
                "GPL-3.0-only",
                "GPL-2.0-only",
                0,
                "both GPL-3.0-only and GPL-2.0-only are copyleft; same-license "
                "propagation between copyleft licenses is not assessed",
            ),
        ],
        ids=["exception", "copyleft"],
    )
    def test_warnings_in_both_formats(self, capsys, parent, dep, code, message):
        got, out, err = run(capsys, "check", "--format", "records", parent, dep)
        warnings = [r for r in map(json.loads, out.splitlines()) if r["kind"] == "warning"]
        assert (got, warnings, err) == (code, [{"kind": "warning", "message": message}], "")
        got, out, err = run(capsys, "check", parent, dep)
        assert (got, err) == (code, f"warning: {message}\n")
        assert "warning" not in out


class TestExplain:
    def test_dumps_all_22_attitudes(self, capsys):
        code, out, err = run(capsys, "explain", "MIT")
        assert code == 0
        lines = out.splitlines()
        term_lines = [l for l in lines if l.split(":")[0] in {t.value for t in TERM_ORDER}]
        assert len(term_lines) == 22
        assert "sublicense: can" in lines

    def test_unknown_license_exits_3(self, capsys):
        code, out, err = run(capsys, "explain", "Definitely-Not-A-License-9.9")
        assert code == 3

    def test_known_id_without_profile_exits_3(self, capsys):
        code, out, err = run(capsys, "explain", "EPL-2.0")
        assert code == 3
        assert "no profile" in err

    @pytest.mark.parametrize("license", ["Apache-2.0 WITH LLVM-exception", "Apache-2.0+"])
    def test_exception_or_kept_plus_warns_and_shows_base(self, capsys, license):
        base = run(capsys, "explain", "Apache-2.0")
        code, out, err = run(capsys, "explain", license)
        assert (code, out) == base[:2]
        assert err == f"warning: {license} is not modeled; showing the base license\n"

    def test_plus_folded_to_or_later_id_is_silent(self, capsys):
        code, out, err = run(capsys, "explain", "GPL-2.0+")
        assert code == 0 and err == ""
        assert "spdx-id: GPL-2.0-or-later" in out.splitlines()


class TestNormalize:
    def test_resolved(self, capsys):
        code, out, err = run(capsys, "normalize", "Apache License 2.0")
        assert (code, out.strip()) == (0, "Apache-2.0")

    def test_unresolvable(self, capsys):
        code, out, err = run(capsys, "normalize", "SEE LICENSE IN LICENSE.TXT")
        assert (code, out.strip()) == (3, "unresolvable:file-reference")

    def test_long_separator_run_exits_3_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "normalize", "a" + "/" * 100_000 + "b")
        assert time.perf_counter() - start < 1.0
        assert (code, out.strip()) == (3, "unresolvable:unknown-name")


class TestParseExpr:
    def test_shows_precedence(self, capsys):
        code, out, err = run(capsys, "parse-expr", "MIT AND ISC OR Zlib")
        assert code == 0
        assert out.strip() == "((MIT AND ISC) OR Zlib)"

    def test_syntax_error_exits_3(self, capsys):
        code, out, err = run(capsys, "parse-expr", "MIT OR")
        assert code == 3
        assert "offset 6" in err

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("MIT & ISC", "offset 4: expected license-id or ( or )"),
            ("MIT WITH GPL-2.0+", "offset 9: expected exception-id"),
            (
                "(MIT OR ISC) WITH Classpath-exception-2.0",
                "offset 13: expected AND or OR or end-of-input",
            ),
            # WITH takes a license id, never a parenthesized expression.
            ("(MIT) WITH Classpath-exception-2.0", "offset 6: expected AND or OR or end-of-input"),
            ("(MIT WITH A) WITH B", "offset 13: expected AND or OR or end-of-input"),
            ("((MIT) WITH A)", "offset 7: expected )"),
        ],
    )
    def test_malformed_expressions_exit_3(self, capsys, expr, message):
        code, out, err = run(capsys, "parse-expr", expr)
        assert (code, out) == (3, "")
        assert err == f"error: syntax error at {message}\n"


@pytest.mark.parametrize(
    "raw",
    [" AND ".join(["MIT"] * 1200), "(" * 300 + "MIT" + ")" * 300, LONG_LICENSE, DEEP_LICENSE],
    ids=["and-1200", "nested-300", "and-3000", "nested-1000"],
)
class TestExpressionsPastTheTokenBound:
    def test_check_exits_3(self, capsys, raw):
        code, out, err = run(capsys, "check", "MIT", raw)
        assert code == 3
        assert "dependency license is unresolvable (unknown-name)" in err

    def test_parse_expr_exits_3_naming_the_bound(self, capsys, raw):
        code, out, err = run(capsys, "parse-expr", raw)
        assert (code, out) == (3, "")
        assert err.endswith("expected at most 256 tokens\n")

    def test_normalize_is_unknown_name(self, capsys, raw):
        code, out, err = run(capsys, "normalize", raw)
        assert (code, out) == (3, "unresolvable:unknown-name\n")

    def test_scan_counts_the_edge_as_unknown_license(self, capsys, tmp_path, raw):
        graph_path = tmp_path / "graph.dat"
        graph_path.write_text(
            f"{GRAPH_HEADER}\n"
            "node\ta\t1.0.0\t2020-01-01\tMIT\n"
            f"node\tb\t1.0.0\t2020-01-01\t{raw}\n"
            "edge\ta\t1.0.0\tb\t1.0.0\t^1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "scan", str(graph_path))
        assert code == 0
        assert "unknown-license=1" in out and "unresolvable:unknown-name: 1" in out


class TestMatrix:
    def test_table_totals(self, capsys):
        code, out, err = run(capsys, "matrix")
        assert code == 0
        assert "C1=115" in out and "C2=361" in out and "C3=101" in out

    def test_records(self, capsys):
        code, out, err = run(capsys, "matrix", "--format", "records")
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {
            "kind": "totals",
            "c1_pairs": 115,
            "c2_pairs": 361,
            "c3_pairs": 101,
        }
        assert sum(1 for r in records if r["kind"] == "degree") == 25


# sha256 of `mine` stdout on the bundled dataset, keyed by
# (--min-support, --format, --no-dedup); recorded when supporting sets
# were still frozensets of ids, so the bitset search must match them.
MINE_DIGESTS = {
    (1, "table", False): "3d18a6680e85a94ddca92356fb5edbe34f4f8e8a1bc09e1cc2ed8a419f03d2e1",
    (1, "table", True): "a650483992230575dc5881ed89bed5912789488915c49a60f9fb9161d0233b88",
    (1, "records", False): "f5401c23e3bd75392edd8dc7e0626a48bc434a5f41a624a60bed83538e42ade7",
    (1, "records", True): "3bdd3e7953d0e5bb2135943c9a6e1b23fabff1a27d3f7d3e68accfbec65e623b",
    (5, "table", False): "da21d73bab4ce5b10b0c3b38056923791551fada126b756dadead881fef659ac",
    (5, "table", True): "26cae1988641b1c97c562f355a0f0795fd8e7237caeebe36ed895006d0dbbe6f",
    (5, "records", False): "97c97615b47e8bcef4916b1c0999db45a5516fdd0e1bd5b780ee3f37cc8a5eee",
    (5, "records", True): "2b68f2c05be2e6107f1f478255a04b2e6adb3f4491f6206ec7d223f375b7c8a3",
    (20, "table", False): "e98094ccad1bde9309bd683701fad19a3d25c17ec1ae74dc1bb53b191ab2e2aa",
    (20, "table", True): "f4f8fa8d32772fa87d48246c3dd785d68a737980b59a2f2e4438bd2435c970ea",
    (20, "records", False): "390821ea76cd702146455efe33564b2c10d8612fe77ab515abdc33566a8e35cb",
    (20, "records", True): "50abc25d3486a00696519439ae179e8729717abac305491a17c15fc6725746fb",
}


# sha256 of `mine --dataset` stdout on a 300-profile family catalog
# (_family_dataset(random.Random(3), 300): 8,161 patterns at support 20,
# 1,322 at 70), keyed by (--min-support, --jaccard or None for --no-dedup,
# --format); recorded with the earlier greedy-scan dedup, except support 2,
# the default, recorded while mine listed every frequent itemset before
# dedup. _family_dataset draws only with Random.choice and Random.sample,
# whose output is the same on every supported Python.
FAMILY_MINE_DIGESTS = {
    (2, "0.9", "records"): "b0719de3b964e1f3bff43c28761611c87e6ce957b24f9784eb181d7e21b464e0",
    (2, "0.9", "table"): "b77aceb5c355f7b2fd343435ecd3a89fe973b211d9c5bdca8e1505f72351d052",
    (20, "1.0", "records"): "66df8944d940c4ccecec7e68b8323e24acfd052c5b094eebe6de3d53a089dd4f",
    (20, "1.0", "table"): "474a38bcec3d160d81151224aa542725531b176d11d938308d67691475a52109",
    (20, "0.9", "records"): "dc436371c54f90f9986920a64f49e0262d3138f060e47e9827a73f6c0f8d000c",
    (20, "0.9", "table"): "b24f6ff679dbdf1a3d6923ece363a4a495b214f1223b1cbf5c9f033ca1e5b7a8",
    (20, "0.5", "records"): "c268507bdb818f6aa97b459c3b5cb3ab240896ceb61e85e16df25872b025c02f",
    (20, "0.5", "table"): "1449de05bc2b74b70ba7c0f8505d98a8a8bc7842e5911c19fc0af0d82da2a905",
    (70, "1.0", "records"): "d8c0425d0471a6a303ec43a4b9f53ac12771aee02c63cceaf82e0c1d3f03a719",
    (70, "1.0", "table"): "42cc8679d455459793ea835c180aa155f6e81e8acb4aa21d735b76c389378da7",
    (70, "0.9", "records"): "7136e77faa1b454ccaab9c193d5c54041fa9eae40e99a8140c308aa921e4d09e",
    (70, "0.9", "table"): "1f571f7a152e899db2c0eaa78e9e6c7dacb048222499d2b71c79c230a681b91e",
    (70, "0.5", "records"): "bb5423c1ef036136124aa75575d13432fc4c37c15331b0adc235c6ce448dc265",
    (70, "0.5", "table"): "d1addd3bff376d3933051420031733cfff27889b2a61f3d70e4ef44e59c6fd79",
    (70, None, "records"): "2efa4024dc04c6dcc3c1abaf8ffdc0feb2dae477fac1cb42da8e15f458c2abcf",
    (70, None, "table"): "ccc935564fb0e2424e753a161fc3755c5a8f2336fb35bf7f1442d8db2b804cb5",
}


class TestMine:
    @pytest.mark.parametrize("min_support, fmt, no_dedup", sorted(MINE_DIGESTS))
    def test_stdout_pinned_on_bundled_dataset(self, capsys, min_support, fmt, no_dedup):
        argv = ["mine", "--min-support", str(min_support), "--format", fmt]
        code, out, err = run(capsys, *argv, *(["--no-dedup"] if no_dedup else []))
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == MINE_DIGESTS[min_support, fmt, no_dedup]

    def test_stdout_pinned_on_family_catalog(self, capsys, tmp_path):
        catalog = tmp_path / "catalog.dat"
        catalog.write_text(
            dumps_dataset(_family_dataset(random.Random(3), 300)), encoding="utf-8"
        )
        digests = {}
        for min_support, jaccard, fmt in FAMILY_MINE_DIGESTS:
            argv = ["mine", "--dataset", str(catalog), "--min-support", str(min_support)]
            argv += ["--no-dedup"] if jaccard is None else ["--jaccard", jaccard]
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            digests[min_support, jaccard, fmt] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == FAMILY_MINE_DIGESTS

    def test_table(self, capsys):
        code, out, err = run(capsys, "mine", "--min-support", "20")
        assert code == 0
        assert "distribute=can" in out

    def test_min_size_filters_singletons(self, capsys):
        _, with_singles, _ = run(
            capsys, "mine", "--min-support", "20", "--no-dedup", "--format", "records"
        )
        _, no_singles, _ = run(
            capsys,
            "mine", "--min-support", "20", "--no-dedup", "--min-size", "2",
            "--format", "records",
        )
        sizes = [len(json.loads(l)["items"]) for l in no_singles.splitlines()]
        assert sizes and all(s >= 2 for s in sizes)
        assert len(with_singles.splitlines()) > len(no_singles.splitlines())

    @pytest.mark.parametrize("min_size", ["0", "-1", "1.5", "two"])
    def test_min_size_below_one_or_not_integer_exits_2(self, capsys, min_size):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--min-size", min_size])
        assert exc.value.code == 2
        assert "--min-size: expected an integer of at least 1" in capsys.readouterr().err

    def test_dedup_reduces_patterns(self, capsys):
        _, raw_out, _ = run(
            capsys, "mine", "--min-support", "20", "--no-dedup", "--format", "records"
        )
        _, deduped_out, _ = run(capsys, "mine", "--min-support", "20", "--format", "records")
        assert len(deduped_out.splitlines()) < len(raw_out.splitlines())

    def test_invalid_threshold_exits_2(self, capsys):
        code, out, err = run(capsys, "mine", "--min-support", "0")
        assert code == 2

    @pytest.mark.parametrize("jaccard", ["0", "1.5"])
    def test_jaccard_outside_unit_interval_exits_2(self, capsys, monkeypatch, jaccard):
        import licterm.cli as cli

        def fail(*args):
            raise AssertionError("mine ran before --jaccard was checked")

        monkeypatch.setattr(cli, "mine", fail)
        code, out, err = run(capsys, "mine", "--jaccard", jaccard)
        assert (code, out) == (2, "")
        assert err == f"error: jaccard_min must be in (0, 1], got {float(jaccard)}\n"

    def test_no_dedup_ignores_jaccard(self, capsys):
        argv = ["mine", "--min-support", "20", "--no-dedup", "--format", "records"]
        ignored = run(capsys, *argv, "--jaccard", "1.5")
        assert ignored == run(capsys, *argv)
        assert ignored[0] == 0


# sha256 of `--format records` stdout, recorded while each record was
# written by its own json.dumps(record, sort_keys=True) call, so the one
# encoder a command shares must write the same bytes. `matrix` is keyed by
# (dataset, --strict-not-mentioned): the bundled one and
# _family_dataset(random.Random(3), 300). `changes` reads
# _synthetic_snapshot(random.Random(6), 300). Both draw only with
# Random.random, choice, randint and sample, whose output is the same on
# every supported Python.
MATRIX_RECORDS_DIGESTS = {
    ("bundled", False): "ff87db9c45035c30d02af6fffecf4df50ad80275db55cd1227a801126f34f4d4",
    ("bundled", True): "dac88b8f3fee30ecc8788c7939b63670afc2d02f3306f291cafbb76602979d79",
    ("family", False): "48c91892aa3917997c34d934beedacc3236d66390aa5d0f7f004369bfff66646",
    ("family", True): "46772bc2552c38039708fe26594cb923c602d21ad128a7b1bb111fcb8c1c3110",
}
CHANGES_RECORDS_DIGEST = "66b723584c6e211b4d7dec5b5f89568cc5d5f3371c7943c7a027a5f035f44664"
# sha256 of the graph file that `ingest` writes from that same snapshot, and
# of `scan --format records` stdout over it, keyed by --strict-not-mentioned;
# recorded while the snapshot reader still memoized dependency entries and
# the graph reader reused an edge run's parent, so code without them must
# write the same bytes.
INGEST_GRAPH_DIGEST = "1c1dff11ef325380c3a25617ef704122d0a07485274c53d0153477b53f28ff99"
SCAN_RECORDS_DIGESTS = {
    False: "4f540e0727e82dac8bfb0d066080a5706cd6634498ce96d6f8a4e821522c02ec",
    True: "b783fd550269def54a016609f8b2ea76c845681329bad43617123619b639e185",
}


class TestRecordsPinned:
    def test_matrix(self, capsys, tmp_path):
        catalog = tmp_path / "catalog.dat"
        catalog.write_text(
            dumps_dataset(_family_dataset(random.Random(3), 300)), encoding="utf-8"
        )
        digests = {}
        for dataset, strict in MATRIX_RECORDS_DIGESTS:
            argv = ["matrix", "--format", "records"]
            argv += ["--dataset", str(catalog)] if dataset == "family" else []
            argv += ["--strict-not-mentioned"] if strict else []
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            digests[dataset, strict] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == MATRIX_RECORDS_DIGESTS

    def test_changes(self, capsys, tmp_path):
        snapshot = tmp_path / "snap.tsv"
        snapshot.write_text(_synthetic_snapshot(random.Random(6), 300), encoding="utf-8")
        code, out, err = run(capsys, "changes", str(snapshot), "--format", "records")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) > 10
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHANGES_RECORDS_DIGEST

    def test_ingest_and_scan(self, capsys, tmp_path):
        snapshot, graph = tmp_path / "snap.tsv", tmp_path / "graph.dat"
        snapshot.write_text(_synthetic_snapshot(random.Random(6), 300), encoding="utf-8")
        code, out, err = run(capsys, "ingest", str(snapshot), "-o", str(graph))
        assert (code, out, err) == (0, "nodes=300 edges=211 unresolved=250\n", "")
        assert hashlib.sha256(graph.read_bytes()).hexdigest() == INGEST_GRAPH_DIGEST
        digests = {}
        for strict in SCAN_RECORDS_DIGESTS:
            argv = ["scan", str(graph), "--format", "records"]
            argv += ["--strict-not-mentioned"] if strict else []
            code, out, err = run(capsys, *argv)
            assert (code, err) == (4, "")
            digests[strict] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == SCAN_RECORDS_DIGESTS


class TestHotPaths:
    def test_scan_matrix_and_mine_derive_no_terms_on_a_loaded_catalog(
        self, capsys, tmp_path, monkeypatch
    ):
        # A loaded profile holds its masks and derives its term dict only when
        # read. These commands read masks alone, so none derives the dict.
        catalog, snapshot, graph = tmp_path / "c.dat", tmp_path / "s.tsv", tmp_path / "g.dat"
        ds = _family_dataset(random.Random(3), 300)
        catalog.write_text(dumps_dataset(ds), encoding="utf-8")
        rng, ids = random.Random(4), list(ds.profiles)
        lines = []
        for i in range(200):
            licensed = rng.choice(ids)
            if rng.random() < 0.4:
                licensed = f"{licensed} {rng.choice(('AND', 'OR'))} {rng.choice(ids)}"
            deps = ";".join(f"p{rng.randrange(200)}@^1.0.0" for _ in range(rng.randint(0, 3)))
            lines.append(snapshot_line(f"p{i}", "1.0.0", "2020-01-01", licensed, deps))
        snapshot.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(capsys, "ingest", str(snapshot), "-o", str(graph))[0] == 0
        derive = LicenseProfile.__dict__["terms"].func
        derived = []

        def counting(profile):
            derived.append(profile.spdx_id)
            return derive(profile)

        terms = cached_property(counting)
        terms.__set_name__(LicenseProfile, "terms")
        monkeypatch.setattr(LicenseProfile, "terms", terms)
        data = ("--dataset", str(catalog))
        for argv in (
            ("scan", str(graph)),
            ("scan", str(graph), "--strict-not-mentioned", "--format", "records"),
            ("matrix",),
            ("matrix", "--strict-not-mentioned", "--format", "records"),
            ("mine", "--min-support", "20"),
            ("mine", "--min-support", "70", "--no-dedup", "--format", "records"),
        ):
            code, out, err = run(capsys, *argv, *data)
            assert code in ((4,) if argv[0] == "scan" else (0,)) and out and not err, argv
        assert derived == []
        # The counter does see a derivation: explain prints the term dict.
        assert run(capsys, "explain", "L7", *data)[0] == 0
        assert derived == ["L7"]


class TestPipeline:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        text = "\n".join(
            [
                snapshot_line("web", "1.0.0", "2021-04-01", "MIT", "styles@^1.0.0;legacy@*"),
                snapshot_line("web", "1.1.0", "2021-09-01", "mit", "styles@^1.0.0"),
                snapshot_line("web", "2.0.0", "2022-02-01", "GPL-3.0-only"),
                snapshot_line("styles", "1.2.0", "2020-06-01", "CC-BY-4.0"),
                snapshot_line("legacy", "0.9.0", "2019-01-01", "SEE LICENSE IN LICENSE.txt"),
            ]
        )
        path = tmp_path / "snap.dat"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    def test_ingest_then_scan(self, capsys, tmp_path, snapshot):
        graph_path = tmp_path / "graph.dat"
        code, out, err = run(capsys, "ingest", str(snapshot), "-o", str(graph_path))
        assert code == 0
        assert "edges=3" in out
        assert graph_path.exists()

        code, out, err = run(capsys, "scan", str(graph_path))
        assert code == 4  # conflicts found
        assert "C1=2" in out
        assert "MIT -> CC-BY-4.0: 2" in out
        assert "unknown-license=1" in out

    def _commands(self, tmp_path, snapshot):
        """ingest (exit 0), scan (exit 4) and ingest of a missing snapshot (exit 5)."""
        graph_path = str(tmp_path / "graph.dat")
        return [
            (0, ("ingest", str(snapshot), "-o", graph_path)),
            (4, ("scan", graph_path)),
            (5, ("ingest", str(tmp_path / "missing.dat"), "-o", graph_path)),
        ]

    def test_commands_run_without_the_cyclic_collector(
        self, capsys, tmp_path, snapshot, monkeypatch
    ):
        import licterm.cli as cli

        seen = []

        def spy(real):
            def wrapper(*args):
                seen.append(gc.isenabled())
                return real(*args)
            return wrapper

        monkeypatch.setattr(cli, "parse_snapshot", spy(cli.parse_snapshot))
        monkeypatch.setattr(cli, "read_graph", spy(cli.read_graph))
        assert gc.isenabled()
        for expected, argv in self._commands(tmp_path, snapshot):
            assert run(capsys, *argv)[0] == expected
            assert gc.isenabled()
        assert seen == [False, False, False]

    def test_collector_the_caller_turned_off_stays_off(self, capsys, tmp_path, snapshot):
        gc.disable()
        try:
            for expected, argv in self._commands(tmp_path, snapshot):
                assert run(capsys, *argv)[0] == expected
                assert not gc.isenabled()
        finally:
            gc.enable()

    def test_scan_records_format(self, capsys, tmp_path, snapshot):
        graph_path = tmp_path / "graph.dat"
        run(capsys, "ingest", str(snapshot), "-o", str(graph_path))
        code, out, err = run(capsys, "scan", str(graph_path), "--format", "records")
        records = [json.loads(line) for line in out.splitlines()]
        summary = next(r for r in records if r["kind"] == "summary")
        assert summary["total_edges"] == 3
        assert summary["unknown_license_edges"] == 1
        usage_years = {r["year"] for r in records if r["kind"] == "usage"}
        assert usage_years == {2019, 2020, 2021, 2022}

    def test_scan_graph_missing_node_exits_5(self, capsys, tmp_path):
        graph_path = tmp_path / "graph.dat"
        graph_path.write_text(
            f"{GRAPH_HEADER}\nnode\ta\t1.0.0\t2020-01-01\tMIT\nedge\ta\t1.0.0\tb\t1.0.0\t^1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "scan", str(graph_path))
        assert code == 5
        assert f"{graph_path}:3: b@1.0.0 has no node line above it" in err

    def test_scan_graph_unknown_unresolved_reason_exits_5(self, capsys, tmp_path):
        graph_path = tmp_path / "graph.dat"
        graph_path.write_text(
            f"{GRAPH_HEADER}\nnode\ta\t1.0.0\t2020-01-01\tMIT\n"
            "unresolved\ta\t1.0.0\tb\t^1\tbogus-reason\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "scan", str(graph_path))
        assert code == 5
        assert f"{graph_path}:3: unknown unresolved reason 'bogus-reason'" in err

    def test_scan_too_many_or_choices_exits_3(self, capsys, tmp_path):
        graph_path = tmp_path / "graph.dat"
        graph_path.write_text(
            f"{GRAPH_HEADER}\n"
            "node\ta\t1.0.0\t2020-01-01\tMIT AND ISC\n"
            f"node\tb\t1.0.0\t2020-01-01\t{TOO_MANY_CHOICES}\n"
            "edge\ta\t1.0.0\tb\t1.0.0\t^1\n",
            encoding="utf-8",
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "scan", str(graph_path))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "too many OR choices" in err

    def test_scan_long_separator_license_is_fast(self, capsys, tmp_path):
        graph_path = tmp_path / "graph.dat"
        slashes = "a" + "/" * 200_000 + "b"
        graph_path.write_text(
            f"{GRAPH_HEADER}\n"
            "node\ta\t1.0.0\t2020-01-01\tMIT\n"
            f"node\tb\t1.0.0\t2020-01-01\t{slashes}\n"
            "edge\ta\t1.0.0\tb\t1.0.0\t^1\n",
            encoding="utf-8",
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "scan", str(graph_path))
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert "unknown-license=1" in out and "unresolvable:unknown-name: 1" in out

    def test_changes_report(self, capsys, snapshot):
        code, out, err = run(capsys, "changes", str(snapshot))
        assert code == 0
        assert "1 license changes" in out
        assert "MIT -> GPL-3.0-only" in out
        assert "permissive-to-copyleft" in out

    def test_changes_records(self, capsys, snapshot):
        code, out, err = run(capsys, "changes", str(snapshot), "--format", "records")
        assert code == 0
        assert out == (
            '{"at_version": "2.0.0", "classification": "permissive-to-copyleft", '
            '"from": "MIT", "kind": "change", "package": "web", "to": "GPL-3.0-only"}\n'
        )


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("spdx-id: MIT\n", "", "record missing 'spdx-id'"),
            ("copyleft: none\n", "", "record missing 'copyleft'"),
            ("copyleft: none\n", "copyleft: medium\n", "unknown copyleft class 'medium'"),
        ],
        ids=["no-spdx-id", "no-copyleft", "copyleft-medium"],
    )
    def test_bad_dataset_record_exits_5(self, capsys, tmp_path, seed_dataset, old, new, message):
        text = dumps_dataset(Dataset(profiles={"MIT": seed_dataset.profiles["MIT"]}))
        assert text.count(old) == 1
        path = tmp_path / "bad.dat"
        path.write_text(text.replace(old, new), encoding="utf-8")
        code, out, err = run(capsys, "check", "--dataset", str(path), "MIT", "ISC")
        assert (code, out) == (5, "")
        assert err == f"error: {path}:4: {message}\n"  # the record's first line

    def test_repeated_metadata_key_exits_5(self, capsys, tmp_path, seed_dataset):
        text = dumps_dataset(Dataset(profiles={"MIT": seed_dataset.profiles["MIT"]}, version="7"))
        path = tmp_path / "bad.dat"
        path.write_text("dataset-version: 6\n" + text, encoding="utf-8")
        code, out, err = run(capsys, "check", "--dataset", str(path), "MIT", "ISC")
        assert (code, out) == (5, "")
        assert err == f"error: {path}:2: duplicate key 'dataset-version'\n"

    @pytest.mark.parametrize("command", ["ingest", "changes"])
    def test_dependency_entry_without_range_exits_5(self, capsys, tmp_path, command):
        path = tmp_path / "snap.tsv"
        lines = [
            snapshot_line("a", "1.0.0", "2020-01-01", "MIT"),
            snapshot_line("c", "1.0.0", "2020-01-01", "MIT", "b"),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        extra = ["-o", str(tmp_path / "graph.dat")] if command == "ingest" else []
        code, out, err = run(capsys, command, str(path), *extra)
        assert (code, out) == (5, "")
        assert err == f"error: {path}:2: dependency entry 'b' is not name@range\n"


    # "\u0661" is ARABIC-INDIC DIGIT ONE: a Unicode decimal digit, not an ASCII one.
    @pytest.mark.parametrize(
        "version, date, message",
        [
            ("1\u0661.0.0", "2020-01-01", "not a semantic version: '1\u0661.0.0'"),
            ("1.0.0", "20200101", "invalid date '20200101'"),
            ("1.0.0", "2020-W01-1", "invalid date '2020-W01-1'"),
            ("1.0.0", "2020-1-1", "invalid date '2020-1-1'"),
        ],
        ids=["non-ascii-digit", "basic-format-date", "week-date", "unpadded-date"],
    )
    @pytest.mark.parametrize("command", ["ingest", "scan"])
    def test_bad_version_or_date_exits_5(self, capsys, tmp_path, command, version, date, message):
        path = tmp_path / "input.dat"
        if command == "ingest":
            lines = ["# header", snapshot_line("a", version, date, "MIT")]
            extra = ["-o", str(tmp_path / "graph.dat")]
        else:
            lines = [GRAPH_HEADER, f"node\ta\t{version}\t{date}\tMIT"]
            extra = []
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, command, str(path), *extra)
        assert (code, out) == (5, "")
        assert err == f"error: {path}:2: {message}\n"


# A command that reads {path} as each kind of data file.
EACH_DATA_FILE = pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "{path}", "-o", "{tmp}/graph.dat"],
        ["scan", "{path}"],
        ["check", "--dataset", "{path}", "MIT", "ISC"],
        ["check", "--aliases", "{path}", "MIT", "ISC"],
    ],
    ids=["snapshot", "graph", "dataset", "aliases"],
)
# Characters at which str.splitlines() breaks a line but a data file does not.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    """Every data file breaks lines at \\r\\n, \\r and \\n, and nowhere else."""

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
    def test_other_breaks_stay_inside_a_license(self, capsys, tmp_path, sep):
        license_raw = f"MIT{sep}X"
        snapshot, graph = tmp_path / "ls.tsv", tmp_path / "graph.dat"
        lines = [
            snapshot_line("a", "1.0.0", "2020-01-01", license_raw, "b@*"),
            snapshot_line("b", "1.0.0", "2020-01-01", "MIT"),
        ]
        snapshot.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(capsys, "ingest", str(snapshot), "-o", str(graph)) == (
            0, "nodes=2 edges=1 unresolved=0\n", ""
        )
        assert [r.license_raw for r in read_graph(graph)[1]] == [license_raw, "MIT"]
        code, out, err = run(capsys, "scan", str(graph))
        assert (code, err) == (0, "")
        assert out.startswith("edges=1 conflicted=0 C1=0 C2=0 C3=0 unknown-license=1\n")
        text = graph.read_text(encoding="utf-8")
        for eol in ("\r", "\r\n"):
            graph.write_text(text.replace("\n", eol), encoding="utf-8", newline="")
            assert run(capsys, "scan", str(graph)) == (code, out, err)

    @pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["CR", "CRLF"])
    @EACH_DATA_FILE
    def test_bad_byte_is_located_at_its_line(self, capsys, tmp_path, eol, argv):
        path = tmp_path / "input.dat"
        path.write_bytes(eol.encode().join([b"# line 1", b"# line 2", b"bad \xff byte", b""]))
        code, out, err = run(capsys, *(a.format(path=path, tmp=tmp_path) for a in argv))
        assert (code, out, err) == (5, "", f"error: {path}:3: byte 0xff is not valid UTF-8\n")

    @pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["CR", "CRLF"])
    def test_bad_date_is_located_at_its_line(self, capsys, tmp_path, eol):
        path = tmp_path / "ls.tsv"
        lines = [
            snapshot_line("a", "1.0.0", "2020-01-01", "MIT"),
            snapshot_line("b", "1.0.0", "2020-13-01", "MIT"),
            snapshot_line("c", "1.0.0", "2020-01-01", "MIT"),
        ]
        path.write_text(eol.join(lines) + eol, encoding="utf-8", newline="")
        code, out, err = run(capsys, "ingest", str(path), "-o", str(tmp_path / "graph.dat"))
        assert (code, out, err) == (5, "", f"error: {path}:2: invalid date '2020-13-01'\n")


class TestByteOrderMark:
    """One leading byte-order mark is dropped from every data file."""

    @pytest.fixture()
    def files(self, seed_dataset):
        """Each kind of data file, whose first line a mark read as content
        would break, the command that reads {path} as that kind, and its
        exit code and start of stdout."""
        snapshot = [
            snapshot_line("a", "1.0.0", "2020-01-01", "MIT"),
            snapshot_line("b", "1.0.0", "2020-01-01", "ISC", "a@^1"),
        ]
        graph = [
            GRAPH_HEADER,
            "node\ta\t1.0.0\t2020-01-01\tMIT",
            "node\tb\t1.0.0\t2020-01-01\tCC-BY-4.0",
            "edge\ta\t1.0.0\tb\t1.0.0\t^1",
        ]
        ingest = ["ingest", "{path}", "-o", "{tmp}/graph.dat"]
        return {
            "snapshot": ("\n".join(snapshot) + "\n", ingest, 0, "nodes=2 edges=1 unresolved=0\n"),
            "graph": ("\n".join(graph) + "\n", ["scan", "{path}"], 4, "edges=1 conflicted=1 "),
            "dataset": (
                dumps_dataset(seed_dataset), ["explain", "--dataset", "{path}", "MIT"], 0,
                "spdx-id: MIT\n",
            ),
            "aliases": ("expat\tMIT\n", ["normalize", "--aliases", "{path}", "expat"], 0, "MIT\n"),
        }

    @pytest.mark.parametrize("kind", ["snapshot", "graph", "dataset", "aliases"])
    def test_marked_file_reads_as_unmarked(self, capsys, tmp_path, files, kind):
        text, argv, expected_code, expected_start = files[kind]
        path, graph = tmp_path / "input.dat", tmp_path / "graph.dat"
        results = []
        for encoding in ("utf-8", "utf-8-sig"):
            path.write_text(text, encoding=encoding)
            code, out, err = run(capsys, *(a.format(path=path, tmp=tmp_path) for a in argv))
            assert (code, err) == (expected_code, "")
            assert out.startswith(expected_start)
            results.append((out, graph.read_bytes() if kind == "snapshot" else None))
        assert results[0] == results[1]

    @EACH_DATA_FILE
    def test_bad_byte_after_a_mark_is_located_at_its_line(self, capsys, tmp_path, argv):
        path = tmp_path / "input.dat"
        path.write_bytes(codecs.BOM_UTF8 + b"# line 1\n# line 2\nbad \xff byte\n")
        code, out, err = run(capsys, *(a.format(path=path, tmp=tmp_path) for a in argv))
        assert (code, out, err) == (5, "", f"error: {path}:3: byte 0xff is not valid UTF-8\n")

    def test_only_the_first_mark_is_dropped(self, tmp_path):
        path = tmp_path / "snap.tsv"
        lines = ["\ufeff" + snapshot_line("a", "1.0.0", "2020-01-01", "MIT \ufeff")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        [record] = parse_snapshot(path)
        assert (record.package, record.license_raw) == ("\ufeffa", "MIT \ufeff")


class TestDeterminismAndConfig:
    def test_identical_invocations_byte_identical(self, capsys):
        first = [run(capsys, "matrix")[1] for _ in range(2)]
        second = [run(capsys, "mine", "--min-support", "15")[1] for _ in range(2)]
        third = [run(capsys, "explain", "MPL-2.0")[1] for _ in range(2)]
        assert first[0] == first[1]
        assert second[0] == second[1]
        assert third[0] == third[1]

    def test_dataset_env_override(self, capsys, tmp_path, seed_dataset, monkeypatch):
        from licterm.dataset import Dataset

        small = Dataset(
            profiles={"MIT": seed_dataset.profiles["MIT"]},
            version="x",
            provenance="test",
        )
        path = tmp_path / "small.dat"
        path.write_text(dumps_dataset(small), encoding="utf-8")
        monkeypatch.setenv("LICTERM_DATASET", str(path))
        code, out, err = run(capsys, "matrix")
        assert "C1=0 C2=0 C3=0" in out

    def test_dataset_flag_beats_default(self, capsys, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "explain", "--dataset", str(path), "MIT")
        assert code == 3

    def test_missing_dataset_file_is_data_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "--dataset", str(tmp_path / "nope.dat"), "MIT", "ISC")
        assert code == 5

    def test_data_files_load_only_when_used(self, capsys, tmp_path):
        # matrix never reads the alias table, so a missing one goes unnoticed.
        missing = str(tmp_path / "nope.tsv")
        code, out, err = run(capsys, "matrix", "--aliases", missing)
        assert code == 0
        assert out.startswith("conflicting ordered pairs:")
        code, out, err = run(capsys, "normalize", "MIT", "--aliases", missing)
        assert code == 5
        assert "nope.tsv" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])  # missing positional args
        assert exc.value.code == 2

    @pytest.mark.parametrize("top", ["0", "-3", "ten"])
    def test_scan_top_below_one_exits_2(self, capsys, tmp_path, top):
        with pytest.raises(SystemExit) as exc:
            main(["scan", str(tmp_path / "graph.dat"), "--top", top])
        assert exc.value.code == 2
        assert "--top: expected an integer of at least 1" in capsys.readouterr().err

    @EACH_DATA_FILE
    def test_non_utf8_input_is_data_error_with_line(self, capsys, tmp_path, argv):
        path = tmp_path / "input.dat"
        path.write_bytes(b"# line 1\n# line 2\nbad \xff byte\n")
        code, out, err = run(capsys, *(a.format(path=path, tmp=tmp_path) for a in argv))
        assert code == 5
        assert f"{path}:3: byte 0xff is not valid UTF-8" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--does-not-exist"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "--dataset", ""],
            ["check", "MIT", "ISC", "--dataset="],
            ["normalize", "mit", "--aliases", ""],
            ["changes", "{tmp}/snap.dat", "--aliases", ""],
            ["scan", "{tmp}/graph.dat", "--dataset", ""],
            ["explain", "MIT", "--dataset", ""],
        ],
    )
    def test_empty_data_path_exits_2(self, capsys, tmp_path, seed_dataset, monkeypatch, argv):
        # Neither the environment's dataset nor the bundled data stands in.
        small = Dataset(profiles={"MIT": seed_dataset.profiles["MIT"]}, version="x", provenance="t")
        (tmp_path / "small.dat").write_text(dumps_dataset(small), encoding="utf-8")
        monkeypatch.setenv("LICTERM_DATASET", str(tmp_path / "small.dat"))
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        flag = "--dataset" if any(a.startswith("--dataset") for a in argv) else "--aliases"
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"argument {flag}: expected a file path, got ''" in captured.err

    @pytest.mark.parametrize(
        "argv, argument",
        [
            (["ingest", "", "-o", "{tmp}/graph.dat"], "snapshot"),
            (["ingest", "{tmp}/snap.dat", "-o", ""], "-o/--output"),
            (["changes", ""], "snapshot"),
            (["scan", ""], "graph"),
        ],
        ids=["ingest-snapshot", "ingest-output", "changes-snapshot", "scan-graph"],
    )
    def test_empty_file_argument_exits_2(self, capsys, tmp_path, argv, argument):
        # An empty path would name the current directory, a data error (exit 5).
        snapshot = snapshot_line("a", "1.0.0", "2020-01-01", "MIT")
        (tmp_path / "snap.dat").write_text(snapshot + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"argument {argument}: expected a file path, got ''" in captured.err
        assert not (tmp_path / "graph.dat").exists()

    def test_empty_dataset_env_counts_as_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("LICTERM_DATASET", "")
        code, out, err = run(capsys, "matrix")
        assert (code, err) == (0, "")
        assert out.startswith("conflicting ordered pairs: C1=115 C2=361 C3=101\n")


def _piped_matrix(stdout, unbuffered: bool) -> subprocess.Popen:
    """``python -m licterm.cli matrix --format records`` from this checkout, into ``stdout``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "licterm.cli", "matrix", "--format", "records"]
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestClosedStdout:
    """A reader that closes the pipe early ends the command quietly, with exit 141."""

    def test_reader_gone_before_the_first_write(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = _piped_matrix(write_end, unbuffered)
        finally:
            os.close(write_end)
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (141, b"")

    def test_reader_closes_after_the_first_line(self, unbuffered):
        child = _piped_matrix(subprocess.PIPE, unbuffered)
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.wait(timeout=60)
        child.stderr.close()
        assert json.loads(first)["c1_pairs"] == 115
        assert err == b""
        # Whether the rest was written before the close is up to the scheduler.
        assert child.returncode in (0, 141)


MUTATION_SNAPSHOT = [
    snapshot_line("web", "1.0.0", "2021-04-01", "MIT", "styles@^1.0.0;@scope/ui@~2.1.0;ghost@*"),
    snapshot_line("web", "1.1.0-rc.1", "2021-09-01", "mit OR Apache-2.0", "styles@nonsense"),
    snapshot_line("web", "2.0.0+build.3", "2022-02-01", "GPL-3.0-only", "@scope/ui@>9"),
    snapshot_line("styles", "1.2.0", "2020-06-01", "CC-BY-4.0"),
    snapshot_line("@scope/ui", "2.1.4", "2019-01-01", "SEE LICENSE IN LICENSE"),
    snapshot_line(
        "@scope/ui", "2.2.0", "2020-03-03", "Apache-2.0 WITH LLVM-exception", "styles@1.x"
    ),
    snapshot_line("long", "1.0.0", "2021-01-01", LONG_LICENSE, "web@^1.0.0"),
    snapshot_line("deep", "1.0.0", "2021-01-01", DEEP_LICENSE, "long@1.0.0"),
]
_TOKENS = ("\t", " ", "#", "@", ";", "x", "1.0", "-rc", "+b", "2020-02-30", " OR ", "(", "node")


def _mutate(data, lines: list[str]) -> list[str]:
    """Apply 1-3 drawn mutations.

    Each one deletes or duplicates a line, truncates it at a tab, pads a
    field with spaces, or inserts a token.
    """
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        how = data.draw(st.sampled_from(("delete", "duplicate", "truncate", "pad", "insert")))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, line)
        elif how == "truncate":
            tabs = [j for j, c in enumerate(line) if c == "\t"] or [len(line)]
            lines[i] = line[: data.draw(st.sampled_from(tabs))]
        elif how == "pad":
            fields = line.split("\t")
            j = data.draw(st.integers(0, len(fields) - 1))
            fields[j] = f" {fields[j]} "
            lines[i] = "\t".join(fields)
        else:
            at = data.draw(st.integers(0, len(line)))
            lines[i] = line[:at] + data.draw(st.sampled_from(_TOKENS)) + line[at:]
    return lines


def _quiet_main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


class TestMutatedInputs:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_lines_exit_with_a_documented_code(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            snapshot, graph = Path(tmp) / "snapshot.tsv", Path(tmp) / "graph.dat"
            snapshot.write_text("\n".join(MUTATION_SNAPSHOT) + "\n", encoding="utf-8")
            assert _quiet_main("ingest", snapshot, "-o", graph) == 0
            graph_lines = graph.read_text(encoding="utf-8").splitlines()
            graph.write_text("\n".join(_mutate(data, graph_lines)) + "\n", encoding="utf-8")
            assert _quiet_main("scan", graph) in (0, 4, 5)
            mutated = "\n".join(_mutate(data, MUTATION_SNAPSHOT)) + "\n"
            snapshot.write_text(mutated, encoding="utf-8")
            assert _quiet_main("ingest", snapshot, "-o", graph) in (0, 5)
            assert _quiet_main("changes", snapshot) in (0, 5)


# --- table and records formats agree ----------------------------------------


def _table_line(record):
    """The table line of one record, rebuilt independently of the CLI.

    ``None`` for records with no table form (``check``'s warnings, and its
    verdict when there is a conflict).
    """
    kind = record["kind"]
    types = ("C1", "C2", "C3")
    if kind == "summary":
        per_type = " ".join(f"{t}={record[f'{t.lower()}_edges']}" for t in types)
        return (
            f"edges={record['total_edges']} conflicted={record['conflicted_edges']} "
            f"{per_type} unknown-license={record['unknown_license_edges']}"
        )
    if kind == "pair":
        return f"  {record['parent']} -> {record['dep']}: {record['edges']}"
    if kind == "usage":
        return f"  {record['year']} {record['license']}: {record['count']}"
    if kind == "totals":
        return "conflicting ordered pairs: " + " ".join(
            f"{t}={record[f'{t.lower()}_pairs']}" for t in types
        )
    if kind == "degree":
        c1, c2, c3 = record["c1"], record["c2"], record["c3"]
        return f"{record['id']:<24} {c1:>5} {c2:>5} {c3:>5}"
    if kind == "pattern":
        sample = ", ".join(record["licenses"][:4])
        return f"{record['support']:>4}  {' '.join(record['items'])}  [{sample}]"
    if kind == "change":
        return (
            f"{record['package']} {record['from']} -> {record['to']} "
            f"at {record['at_version']} [{record['classification']}]"
        )
    if kind == "finding":
        finding = ConflictFinding(
            ConflictType(record["type"]),
            Term(record["term"]),
            record["parent"],
            record["dep"],
            Attitude(record["parent_attitude"]),
            Attitude(record["dep_attitude"]),
        )
        return explain(finding)
    if kind == "verdict" and record["conflict_free"]:
        return f"no conflicts: {record['parent']} may depend on {record['dep']}"
    assert kind in ("warning", "verdict"), kind
    return None


# Table lines that head a group of items and have no record.
_TABLE_HEADERS = re.compile(
    r"top C[123] pairs \(total \d+\):|usage by year:|license +C1 +C2 +C3"
    r"|\d+ patterns \(min support \d+\)|\d+ license changes"
)

_FORMAT_LICENSES = (
    "MIT", "mit", "Apache-2.0", "GPL-3.0-only", "GPL-2.0+", "CC-BY-4.0", "ISC",
    "MIT OR GPL-3.0-only", "LGPL-2.1-only AND MIT", "GPL-2.0-only WITH Classpath-exception-2.0",
    "SEE LICENSE IN LICENSE", "UNLICENSED", "Foo-1.0", "BSD-3-Clause", "MPL-2.0",
)


def _format_snapshot(rng):
    """A small seeded snapshot: 12 packages, a few versions each, license moves,
    and one fixed conflicting edge."""
    lines = [
        snapshot_line("app", "1.0.0", "2020-01-01", "MIT", "cc@*"),
        snapshot_line("cc", "1.0.0", "2019-01-01", "CC-BY-4.0"),
    ]
    names = [f"pkg{i}" for i in range(12)]
    for name in names:
        license_raw = rng.choice(_FORMAT_LICENSES)
        for minor in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                license_raw = rng.choice(_FORMAT_LICENSES)
            deps = ";".join(f"{d}@*" for d in rng.sample(names, rng.randint(0, 3)) if d != name)
            date = f"{2018 + minor}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"
            lines.append(snapshot_line(name, f"1.{minor}.0", date, license_raw, deps))
    return "\n".join(lines) + "\n"


def _small_catalog(rng, tmp_path):
    ds = Dataset(
        profiles={f"T-{i}.0": random_profile(rng, f"T-{i}.0") for i in range(30)},
        version="x",
        provenance="test",
    )
    path = tmp_path / "catalog.dat"
    path.write_text(dumps_dataset(ds), encoding="utf-8")
    return str(path)


class TestFormatsAgree:
    """Each table line that carries an item equals the line rebuilt from
    its record, in the same order; headers are the only table-only lines."""

    def _assert_agree(self, capsys, argv):
        code, table, table_err = run(capsys, *argv, "--format", "table")
        records_code, records_out, records_err = run(capsys, *argv, "--format", "records")
        assert code == records_code
        records = [json.loads(line) for line in records_out.splitlines()]
        rebuilt = [line for line in map(_table_line, records) if line is not None]
        items = [line for line in table.splitlines() if not _TABLE_HEADERS.fullmatch(line)]
        assert items == rebuilt
        # check's warnings: records on stdout in one format, stderr in the other.
        warnings = [r["message"] for r in records if r["kind"] == "warning"]
        assert table_err == "".join(f"warning: {w}\n" for w in warnings)
        assert records_err == ""
        return table, records

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_scan_and_changes(self, capsys, tmp_path, seed, strict):
        snapshot, graph = tmp_path / "snap.tsv", tmp_path / "graph.dat"
        snapshot.write_text(_format_snapshot(random.Random(seed)), encoding="utf-8")
        assert run(capsys, "ingest", str(snapshot), "-o", str(graph))[0] == 0
        flags = ["--strict-not-mentioned"] if strict else []
        for top in ("10", "2"):
            table, records = self._assert_agree(capsys, ["scan", str(graph), "--top", top, *flags])
            kinds = [r["kind"] for r in records]
            assert {"summary", "pair", "usage"} <= set(kinds)
        table, records = self._assert_agree(capsys, ["changes", str(snapshot)])
        assert table.splitlines()[0] == f"{len(records)} license changes"
        assert records

    @pytest.mark.parametrize("strict", [False, True])
    def test_matrix(self, capsys, tmp_path, strict):
        flags = ["--strict-not-mentioned"] if strict else []
        catalog = _small_catalog(random.Random(3), tmp_path)
        for data in ([], ["--dataset", catalog]):
            _, records = self._assert_agree(capsys, ["matrix", *flags, *data])
            assert sum(r["kind"] == "degree" for r in records) == (25 if not data else 30)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--min-support", "5"],
            ["--min-support", "2", "--no-dedup", "--min-size", "3"],
            ["--min-support", "8", "--jaccard", "1.0"],
        ],
    )
    def test_mine(self, capsys, tmp_path, argv):
        catalog = _small_catalog(random.Random(4), tmp_path)
        for data in ([], ["--dataset", catalog]):
            table, records = self._assert_agree(capsys, ["mine", *argv, *data])
            assert records and all(r["kind"] == "pattern" for r in records)
            assert table.splitlines()[0].startswith(f"{len(records)} patterns")

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "parent, dep",
        [
            ("MIT", "CC-BY-4.0"),
            ("MIT", "MIT"),
            ("MIT OR GPL-3.0-only", "GPL-2.0-only"),
            ("Apache-2.0", "GPL-2.0-only AND MIT"),
            ("MIT", "GPL-2.0-only WITH Classpath-exception-2.0"),
            ("GPL-3.0-only", "GPL-2.0-only"),
            ("GPL-2.0+", "Apache-2.0"),
            ("mit", "apache2"),
        ],
    )
    def test_check(self, capsys, parent, dep, strict):
        flags = ["--strict-not-mentioned"] if strict else []
        self._assert_agree(capsys, ["check", parent, dep, *flags])
