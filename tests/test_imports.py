"""What the package imports, and when.

Every module uses each name it imports; ``__init__.py`` is exempt. A name
counts as used when it appears as a ``Name`` (which covers the base of an
``Attribute``) or inside a quoted annotation such as ``"AliasTable"``.

``import licterm`` loads no submodule, and each CLI command loads only the
modules it runs. Both are checked in a fresh interpreter per case.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import licterm
from licterm.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "licterm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestUnusedImports:
    def test_names_an_unused_import_with_its_line(self):
        source = "import os\nfrom itertools import islice, chain\n\nchain()\n"
        assert unused_imports(source) == [(1, "os"), (2, "islice")]

    def test_attribute_base_and_quoted_annotation_count_as_uses(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from .dataset import AliasTable\n"
            "def f(table: 'AliasTable | None' = None) -> str:\n"
            "    return os.path.sep\n"
        )
        assert unused_imports(source) == []

    def test_the_package_has_modules_to_check(self):
        assert {"cli.py", "expression.py", "mining.py"} <= {p.name for p in MODULES}


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports licterm from this checkout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _last_line(code: str, *argv: str):
    """The value ``code`` prints as the last line of its stdout, in a fresh interpreter."""
    done = _python("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Both cost every command start-up time; neither may come back through any module.
    code = "import sys, licterm.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = _python("-c", code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


SNAPSHOT = "\n".join(
    "\t".join(fields)
    for fields in [
        ("web", "1.0.0", "2021-04-01", "MIT", "styles@^1.0.0;legacy@*"),
        ("web", "2.0.0", "2022-02-01", "GPL-3.0-only", "styles@^1.0.0"),
        ("styles", "1.2.0", "2020-06-01", "CC-BY-4.0", ""),
        ("legacy", "0.9.0", "2019-01-01", "SEE LICENSE IN LICENSE.txt", ""),
    ]
) + "\n"


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """A snapshot and the graph file ``ingest`` builds from it."""
    root = tmp_path_factory.mktemp("imports")
    snapshot, graph = root / "snap.dat", root / "graph.dat"
    snapshot.write_text(SNAPSHOT, encoding="utf-8")
    assert main(["ingest", str(snapshot), "-o", str(graph)]) == 0
    return str(snapshot), str(graph)


# The licterm modules every command loads: the package, the CLI and its errors.
BASE_MODULES = {"licterm", "licterm.cli", "licterm.errors"}
# What parsing an expression needs, and what normalizing one against the dataset needs.
EXPRESSION_MODULES = {"_frozen", "expression"}
DATA_MODULES = EXPRESSION_MODULES | {"dataset", "model"}
SCAN_MODULES = DATA_MODULES | {"conflicts", "registry", "scan", "semver"}
REPORT_MODULES = (
    "import sys\n"
    "from licterm.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(repr((code, sorted(m for m in sys.modules if m.startswith('licterm')),"
    " 'json' in sys.modules)))\n"
)


# (command line, licterm modules it loads beyond BASE_MODULES, whether it loads json)
COMMAND_CASES = [
    (["normalize", "MIT"], DATA_MODULES, False),
    (["normalize", "MIT", "--dataset", "{dataset}"], DATA_MODULES, False),
    (["parse-expr", "MIT OR ISC"], EXPRESSION_MODULES, False),
    (["explain", "MIT"], DATA_MODULES, False),
    (["check", "MIT", "CC-BY-4.0"], DATA_MODULES | {"conflicts"}, False),
    (["check", "MIT", "CC-BY-4.0", "--format", "records"], DATA_MODULES | {"conflicts"}, True),
    (["matrix"], DATA_MODULES | {"conflicts"}, False),
    (["matrix", "--format", "records"], DATA_MODULES | {"conflicts"}, True),
    (["mine", "--min-support", "10"], DATA_MODULES | {"mining"}, False),
    (["ingest", "{snapshot}", "-o", "{output}"], EXPRESSION_MODULES | {"registry", "semver"},
     False),
    (["changes", "{snapshot}"], DATA_MODULES | {"registry", "semver"}, False),
    (["scan", "{graph}"], SCAN_MODULES, False),
    (["scan", "{graph}", "--format", "records"], SCAN_MODULES, True),
]


@pytest.mark.parametrize(
    "argv, extra, loads_json", COMMAND_CASES, ids=[" ".join(c[0]) for c in COMMAND_CASES]
)
def test_each_command_loads_only_the_modules_it_runs(
    argv, extra, loads_json, pipeline_files, tmp_path
):
    snapshot, graph = pipeline_files
    dataset = str(PACKAGE / "data" / "licenses.dat")
    output = str(tmp_path / "out.dat")
    argv = [a.format(snapshot=snapshot, graph=graph, output=output, dataset=dataset) for a in argv]
    code, modules, json_loaded = _last_line(REPORT_MODULES, *argv)
    assert code in (0, 4)
    assert set(modules) == BASE_MODULES | {f"licterm.{m}" for m in extra}
    assert json_loaded is loads_json


# Every name ``licterm`` exported when ``__init__`` imported each module,
# by the module that defines it. ``scan`` (the function) is left out:
# ``licterm.scan`` is the submodule, and the function is ``licterm.scan.scan``.
EXPORTS = {
    "model": ("Attitude", "CopyleftClass", "LicenseProfile", "Term", "TermKind"),
    "dataset": ("AliasTable", "Dataset", "bundled_aliases", "bundled_dataset",
                "bundled_known_ids", "dumps_dataset", "known_licenses", "load_aliases",
                "load_dataset"),
    "expression": ("And", "ExpressionSyntaxError", "KnownLicenses", "LicenseRef",
                   "NormalizationOutcome", "Or", "Unresolvable", "UnresolvableReason",
                   "normalize", "parse_expression", "render"),
    "conflicts": ("ConflictFinding", "ConflictMatrix", "ConflictType", "ExpressionVerdict",
                  "build_matrix", "check_expressions", "check_profiles", "explain"),
    "mining": ("FrequentPattern", "common_term_report", "dedup_similar", "mine"),
    "semver": ("Semver", "VersionRange", "parse_range", "resolve_range"),
    "registry": ("DependencyGraph", "LicenseChange", "VersionRecord", "build_graph",
                 "license_changes", "parse_snapshot"),
    "scan": ("ScanReport", "rank_pairs"),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestPackageExports:
    def test_import_loads_no_submodule(self):
        code = "import sys, licterm; print(sorted(m for m in sys.modules if 'licterm' in m))"
        assert _last_line(code) == ["licterm"]

    @pytest.mark.parametrize("module, name", EXPORTED, ids=[n for _, n in EXPORTED])
    def test_each_name_is_its_module_object(self, module, name):
        assert getattr(licterm, name) is getattr(importlib.import_module(f"licterm.{module}"), name)

    def test_dir_lists_every_name_and_submodule(self):
        assert {name for _, name in EXPORTED} | set(EXPORTS) <= set(dir(licterm))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            licterm.no_such_name
        with pytest.raises(ImportError):
            from licterm import no_such_name  # noqa: F401

    @pytest.mark.parametrize(
        "prelude",
        [
            "import licterm.scan, licterm.cli",
            "import licterm.cli",
            "import licterm.cli; licterm.cli.scan",
            "import licterm; licterm.scan",
        ],
    )
    def test_scan_is_the_submodule_in_any_import_order(self, prelude):
        code = (
            f"{prelude}\n"
            "import sys, licterm, licterm.cli\n"
            "from licterm import scan\n"
            "submodule = sys.modules['licterm.scan']\n"
            "print(repr((licterm.scan is submodule, scan is submodule,"
            " licterm.cli.scan is submodule.scan)))\n"
        )
        assert _last_line(code) == (True, True, True)


class TestPatchBeforeLoad:
    """A name of ``licterm.cli`` can be replaced before its module is loaded."""

    def test_replaced_name_runs_until_restored(self, pipeline_files, tmp_path):
        # As a tracer does: patch, run, restore, run again.
        code = (
            "import sys\n"
            "import licterm.cli as cli\n"
            "calls = []\n"
            "def spy(records):\n"
            "    calls.append(len(records))\n"
            "    from licterm.registry import build_graph\n"
            "    return build_graph(records)\n"
            "loaded = 'licterm.registry' in sys.modules\n"
            "setattr(cli, 'build_graph', spy)\n"
            "first = cli.main(['ingest', sys.argv[1], '-o', sys.argv[2]])\n"
            "kept = cli.build_graph is spy\n"
            "import licterm.registry\n"
            "setattr(cli, 'build_graph', licterm.registry.build_graph)\n"
            "second = cli.main(['ingest', sys.argv[1], '-o', sys.argv[2]])\n"
            "print(repr((loaded, first, kept, second, calls)))\n"
        )
        result = _last_line(code, pipeline_files[0], str(tmp_path / "graph.dat"))
        assert result == (False, 0, True, 0, [4])

    def test_reading_a_name_first_gives_the_original(self):
        # Every name, dataset's and expression's included: bench/tracing.py reads
        # and patches them before any command has run.
        code = (
            "import importlib, licterm.cli as cli\n"
            "names = [(m, n) for m, names in cli._LAZY.items() for n in names]\n"
            "print(repr((sorted(n for _, n in names), sorted(n for m, n in names\n"
            "    if getattr(cli, n) is not getattr(importlib.import_module(m, 'licterm'), n)))))\n"
        )
        names, not_original = _last_line(code)
        assert {"JSONEncoder", "build_graph", "load_dataset", "normalize"} <= set(names)
        assert not_original == []

    def test_unknown_name_raises_attribute_error(self):
        import licterm.cli as cli

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cli.no_such_name

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "{snapshot}", "-o", "{output}"],
            ["scan", "{graph}"],
            ["scan", "{graph}", "--format", "records"],
            ["changes", "{snapshot}", "--format", "records"],
            ["matrix"],
            ["matrix", "--format", "records"],
            ["mine", "--min-support", "10"],
            ["mine", "--min-support", "10", "--format", "records"],
        ],
        ids=" ".join,
    )
    def test_module_run_matches_in_process_main(self, argv, pipeline_files, tmp_path, capsys):
        snapshot, graph = pipeline_files
        outputs = []
        for name in ("child.dat", "main.dat"):
            output = str(tmp_path / name)
            outputs.append([a.format(snapshot=snapshot, graph=graph, output=output) for a in argv])
        child = _python("-m", "licterm.cli", *outputs[0])
        code = main(outputs[1])
        captured = capsys.readouterr()
        assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)
        if argv[0] == "ingest":
            assert (tmp_path / "child.dat").read_bytes() == (tmp_path / "main.dat").read_bytes()
