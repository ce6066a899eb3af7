"""Self-tests of the benchmark: seeded inputs, the oracle gate, BENCHMARK.json.

Run from the repository root with ``python -m pytest bench -q``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import pytest

import gen
import run
from gate import Gate, load_profiles, parse_records
from licterm.cli import main as cli_main


def _files(tmp_path, workload, seed):
    out = tmp_path / f"{workload}-{seed}"
    files = gen.write_workload(workload, seed, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    first = _files(tmp_path / "a", workload, 7)
    again = _files(tmp_path / "b", workload, 7)
    other = _files(tmp_path / "c", workload, 8)
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    """The license-catalog workload, run once through the CLI in-process."""
    work = tmp_path_factory.mktemp("catalog")
    files = gen.write_workload("license-catalog", 3, work)
    graph = work / "graph.tsv"
    data = ["--dataset", str(files["dataset"])]
    outputs = {}
    for name, argv in (
        ("ingest", ["ingest", str(files["snapshot"]), "-o", str(graph)]),
        ("scan", ["scan", str(graph), "--format", "records", *data]),
        ("matrix", ["matrix", "--format", "records", *data]),
        ("mine", ["mine", "--format", "records", "--min-support",
                  str(gen.CATALOG_MIN_SUPPORT), *data]),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(argv)
        outputs[name] = out.getvalue()
    outputs["graph"] = graph.read_text("utf-8")
    gate = Gate(files["snapshot"].read_text("utf-8"), load_profiles(files["profiles"]), seed=3)
    return gate, outputs


def test_gate_passes_the_real_outputs(catalog):
    gate, out = catalog
    edges = gate.ingest_summary(out["ingest"])[1]
    assert gate.check_ingest(out["ingest"], out["graph"]) == []
    assert gate.check_scan(out["scan"], edges) == []
    assert gate.check_matrix(out["matrix"]) == []
    assert gate.check_mine(out["mine"], gen.CATALOG_MIN_SUPPORT) == []
    assert gate.check_normalize("MIT\n") == []


def test_gate_catches_a_doctored_graph_edge(catalog):
    gate, out = catalog
    package, version, entries = next(row for row in gate.sampled_rows if row[2])
    lines = out["graph"].splitlines()
    index = next(
        i for i, line in enumerate(lines)
        if line.startswith(f"edge\t{package}\t{version}\t")
    )
    fields = lines[index].split("\t")
    wrong = next(str(v) for v in gate.versions[fields[3]] if str(v) != fields[4])
    lines[index] = "\t".join(fields[:4] + [wrong] + fields[5:])
    errors = gate.check_ingest(out["ingest"], "\n".join(lines) + "\n")
    assert errors and f"{package}@{version}" in errors[0]


def test_gate_catches_a_doctored_matrix_degree(catalog):
    gate, out = catalog
    records = parse_records(out["matrix"])
    target = gate.sampled_ids[0]
    for record in records:
        if record.get("id") == target:
            record["c2"] += 1
    doctored = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    errors = gate.check_matrix(doctored)
    assert len(errors) == 1 and target in errors[0]


def test_gate_catches_a_doctored_pattern_support(catalog):
    gate, out = catalog
    records = parse_records(out["mine"])
    records[len(records) // 2]["support"] += 1
    doctored = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    assert len(gate.check_mine(doctored, gen.CATALOG_MIN_SUPPORT)) == 1


def test_gate_catches_a_wrong_edge_total_in_scan(catalog):
    gate, out = catalog
    edges = gate.ingest_summary(out["ingest"])[1]
    assert gate.check_scan(out["scan"], edges + 1)


def test_checker_fails_output_that_is_not_byte_identical(catalog):
    gate, _ = catalog
    checker = run.Checker(gate, gen.CATALOG_MIN_SUPPORT)
    setup = run.Op("setup", ("normalize", "MIT"))
    assert checker.judge(setup, 0, b"MIT\n", b"")
    assert checker.judge(setup, 0, b"MIT\n", b"")
    assert not checker.judge(setup, 0, b"MIT \n", b"")
    assert not checker.judge(setup, 1, b"MIT\n", b"")
    assert not checker.judge(setup, 0, b"MIT\n", b"Traceback (most recent call last):\n")
    assert (checker.attempted, checker.failed) == (5, 3)


def test_benchmark_json_matches_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
