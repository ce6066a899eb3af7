"""In-process traced run: spans and counters around each layer's public calls.

The tracer patches the names that ``licterm.cli``, ``licterm.registry``
and ``licterm.scan`` import (``build_graph``, ``resolve_range``,
``normalize``, ``check_expressions`` and so on) with timing wrappers,
runs the workload's CLI commands through ``licterm.cli.main`` in this
process, and restores the originals afterwards. The program itself is
not edited.

Spans (name, start, end, parent, run id) are kept in memory and written
out as JSON when the run ends. Calls that happen thousands of times per
command (``resolve_range``, ``normalize``, ``check_expressions``,
``parse_range``) are aggregated into one span per (name, parent) with a
call count. Each wrapped function keeps a counter named after it; a
function that was never called reads 0 and is listed as such.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import time
import traceback
from collections import Counter, defaultdict

from licterm.expression import Unresolvable

LAYERS = ("registry", "semver", "expression", "conflicts", "scan", "mining", "dataset", "cli")
UNRESOLVED_REASONS = ("unknown-package", "no-match", "unparsable-range")
UNRESOLVABLE_REASONS = ("no-license", "file-reference", "url", "hash-like", "unknown-name")


def _set(key, value_of):
    def observe(tracer, args, result):
        tracer.counts[key] = value_of(args, result)
    return observe


def _observe_graph(tracer, args, result):
    tracer.counts["registry.edges"] = len(result.edges)
    reasons = Counter(u.reason for u in result.unresolved)
    for reason in UNRESOLVED_REASONS:
        tracer.counts[f"registry.unresolved.{reason}"] = reasons[reason]


def _observe_normalize(tracer, args, result):
    tracer.keys["expression.normalize"].add(args[0])
    if isinstance(result, Unresolvable):
        tracer.counts[f"expression.unresolvable.{result.reason.value}"] += 1


def _observe_check(tracer, args, result):
    tracer.keys["conflicts.check_expressions"].add((args[0], args[1]))


def _observe_resolve(tracer, args, result):
    # Within one build_graph call each package's version list is one object,
    # so (range text, list identity) is the (package, range) a memo would key on.
    tracer.keys["semver.resolve_range"].add((getattr(args[0], "raw", repr(args[0])), id(args[1])))


def _observe_scan(tracer, args, result):
    tracer.counts["scan.conflicted_edges"] = result.conflicted_edges
    tracer.counts["scan.unknown_license_edges"] = result.unknown_license_edges


# (module, attribute, span name, aggregated, observer)
TARGETS = (
    ("licterm.cli", "parse_snapshot", "registry.parse_snapshot", False,
     _set("registry.records", lambda a, r: len(r))),
    ("licterm.cli", "build_graph", "registry.build_graph", False, _observe_graph),
    ("licterm.cli", "write_graph", "registry.write_graph", False,
     _set("registry.graph_bytes", lambda a, r: os.path.getsize(a[2]))),
    ("licterm.cli", "read_graph", "registry.read_graph", False, None),
    ("licterm.cli", "license_changes", "registry.license_changes", False,
     _set("registry.changes", lambda a, r: len(r))),
    ("licterm.cli", "scan", "scan.scan", False, _observe_scan),
    ("licterm.cli", "rank_pairs", "scan.rank_pairs", False, None),
    ("licterm.cli", "build_matrix", "conflicts.build_matrix", False,
     _set("conflicts.matrix_pairs", lambda a, r: len(r.degrees) * (len(r.degrees) - 1))),
    ("licterm.cli", "mine", "mining.mine", False, _set("mining.patterns", lambda a, r: len(r))),
    ("licterm.cli", "dedup_similar", "mining.dedup_similar", False,
     _set("mining.kept", lambda a, r: len(r))),
    ("licterm.cli", "normalize", "expression.normalize", True, _observe_normalize),
    ("licterm.cli", "load_dataset", "dataset.load_dataset", False,
     _set("dataset.profiles", lambda a, r: len(r))),
    ("licterm.cli", "bundled_dataset", "dataset.bundled_dataset", False,
     _set("dataset.profiles", lambda a, r: len(r))),
    ("licterm.cli", "bundled_known_ids", "dataset.bundled_known_ids", False, None),
    ("licterm.cli", "known_licenses", "dataset.known_licenses", False, None),
    ("licterm.cli", "bundled_aliases", "dataset.bundled_aliases", False, None),
    ("licterm.registry", "parse_range", "semver.parse_range", True, None),
    ("licterm.registry", "resolve_range", "semver.resolve_range", True, _observe_resolve),
    ("licterm.registry", "normalize", "expression.normalize", True, _observe_normalize),
    ("licterm.scan", "normalize", "expression.normalize", True, _observe_normalize),
    ("licterm.scan", "check_expressions", "conflicts.check_expressions", True, _observe_check),
)
FUNCTIONS = sorted({name for _, _, name, _, _ in TARGETS} | {"cli.main", "semver.VersionRange.satisfies"})


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.stack: list[list] = []  # open frames: [span id, seconds of child spans]
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()  # (command, layer) -> seconds
        self.command_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.command = ""
        self.missing: list[str] = []
        self._next_id = 0

    def wrap(self, fn, name: str, aggregated: bool = False, observe=None):
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[(self.command, layer)] += elapsed - frame[1]
            parent_id = parent[0] if parent is not None else None
            if aggregated:
                entry = self.aggregates.setdefault((name, parent_id), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
            else:
                self.spans.append({
                    "id": frame[0], "name": name, "start": start, "end": end,
                    "parent": parent_id, "run": self.run_id, "command": self.command,
                })
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module_name, attribute, name, aggregated, observe in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attribute}")
                    continue
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(original, name, aggregated, observe))
            version_range = importlib.import_module("licterm.semver").VersionRange
            satisfies = version_range.satisfies
            saved.append((version_range, "satisfies", satisfies))
            calls = self.calls

            def counted(rng, version):
                calls["semver.VersionRange.satisfies"] += 1
                return satisfies(rng, version)

            version_range.satisfies = counted
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def run_command(self, main, argv: list[str]):
        self.command = argv[0]
        start = time.perf_counter()
        result = self.wrap(main, "cli.main")(argv)
        self.command_seconds[self.command] += time.perf_counter() - start
        self.spans[-1]["argv"] = argv
        return result

    def span_records(self) -> list[dict]:
        aggregated = [
            {"name": name, "parent": parent, "run": self.run_id, "calls": calls, "seconds": seconds}
            for (name, parent), (calls, seconds) in self.aggregates.items()
        ]
        return self.spans + aggregated

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass."""
        s, c, k = self.seconds, self.calls, self.keys
        resolve_calls = c["semver.resolve_range"]
        check_calls = c["conflicts.check_expressions"]
        semver_in = {cmd: self.self_seconds[(cmd, "semver")] for cmd in ("ingest", "scan")}
        pipeline = self.command_seconds["ingest"] + self.command_seconds["scan"]
        m = {
            "registry.parse_s": s["registry.parse_snapshot"],
            "registry.records": self.counts["registry.records"],
            "registry.build_graph_s": s["registry.build_graph"],
            "registry.edges": self.counts["registry.edges"],
            "semver.resolve_calls": resolve_calls,
            "semver.resolve_s": s["semver.resolve_range"],
            "semver.parse_range_s": s["semver.parse_range"],
            "semver.versions_examined": c["semver.VersionRange.satisfies"],
            "semver.examined_per_edge": _ratio(c["semver.VersionRange.satisfies"], resolve_calls),
            "semver.distinct_ranges_ratio": _ratio(len(k["semver.resolve_range"]), resolve_calls),
            "semver.ingest_share": _ratio(semver_in["ingest"], self.command_seconds["ingest"]),
            "semver.pipeline_share": _ratio(sum(semver_in.values()), pipeline),
            "registry.write_graph_s": s["registry.write_graph"],
            "registry.graph_bytes": self.counts["registry.graph_bytes"],
            "registry.read_graph_s": s["registry.read_graph"],
            "expression.normalize_calls": c["expression.normalize"],
            "expression.normalize_s": s["expression.normalize"],
            "expression.distinct_raw": len(k["expression.normalize"]),
            "conflicts.check_calls": check_calls,
            "conflicts.check_s": s["conflicts.check_expressions"],
            "conflicts.distinct_pairs_ratio": _ratio(len(k["conflicts.check_expressions"]), check_calls),
            "scan.scan_s": s["scan.scan"],
            "scan.rank_s": s["scan.rank_pairs"],
            "scan.conflicted_edges": self.counts["scan.conflicted_edges"],
            "scan.unknown_license_edges": self.counts["scan.unknown_license_edges"],
            "registry.changes_s": s["registry.license_changes"],
            "registry.changes": self.counts["registry.changes"],
            "dataset.load_s": sum(s[n] for n in FUNCTIONS if n.startswith("dataset.")),
            "dataset.profiles": self.counts["dataset.profiles"],
            "conflicts.matrix_s": s["conflicts.build_matrix"],
            "conflicts.matrix_pairs": self.counts["conflicts.matrix_pairs"],
            "mining.mine_s": s["mining.mine"],
            "mining.patterns": self.counts["mining.patterns"],
            "mining.dedup_s": s["mining.dedup_similar"],
            "mining.kept_ratio": _ratio(self.counts["mining.kept"], self.counts["mining.patterns"]),
        }
        for reason in UNRESOLVED_REASONS:
            m[f"registry.unresolved.{reason}"] = self.counts[f"registry.unresolved.{reason}"]
        for reason in UNRESOLVABLE_REASONS:
            m[f"expression.unresolvable.{reason}"] = self.counts[f"expression.unresolvable.{reason}"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for (_, lay), v in self.self_seconds.items() if lay == layer)
        return m


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def run_pass(argvs: list[list[str]], tracer: Tracer | None):
    """Run each command through ``licterm.cli.main`` in this process.

    Returns (seconds, [(argv, exit code, stdout, stderr)]). With a tracer
    the targets are patched for the pass; without one the code runs as
    shipped. A command that raises gets exit code None and its traceback
    on stderr, so the gate counts it as failed and the pass goes on.
    """
    main = importlib.import_module("licterm.cli").main
    results = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = tracer.run_command(main, argv) if tracer else main(argv)
                except Exception:
                    code = None
                    traceback.print_exc()
            results.append((argv, code, out.getvalue(), err.getvalue()))
        elapsed = time.perf_counter() - start
    return elapsed, results
