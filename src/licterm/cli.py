"""Command-line interface.

Exit codes: 0 success or no conflict, 2 usage error, 3 unresolvable
input or too many OR choices to check, 4 conflicts found, 5 data
error, 141 (128 + SIGPIPE) when the reader of stdout closed it early,
which ends the command quietly. The bundled dataset and alias table are
used unless overridden with ``--dataset`` / ``--aliases`` or the
``LICTERM_DATASET`` environment variable. An empty path, given to either
flag or as any other file argument, is a usage error. Each command
walks its items once and gives ``_out`` each item's JSON record and
table line (``mine``, with up to hundreds of thousands of items,
branches on the format once instead), so ``--format records`` (one JSON
object per line, for piping) emits the items of the human table in its
order; headers are table-only, and ``check`` writes its table-format
warnings to stderr. Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cached_property
from importlib import import_module
from itertools import islice
from typing import TYPE_CHECKING

from . import __version__
from .errors import ExpressionTooComplex, LictermError

if TYPE_CHECKING:
    from .dataset import AliasTable, Dataset
    from .expression import KnownLicenses

# The names handlers use from modules that not every command runs, by
# module. A handler binds its modules' names on entry (``_load``), so each
# command imports only what it runs; ``__getattr__`` binds them when read
# from outside, so a caller can replace ``licterm.cli.build_graph`` before
# any command has run. A name that is already bound is never rebound.
_LAZY = {
    ".conflicts": ("ConflictType", "build_matrix", "check_expressions", "explain"),
    ".dataset": ("bundled_aliases", "bundled_dataset", "bundled_known_ids", "dumps_profile",
                 "known_licenses", "load_aliases", "load_dataset"),
    ".expression": ("And", "ExpressionSyntaxError", "LicenseRef", "Or", "Unresolvable",
                    "normalize", "parse_expression", "render"),
    ".mining": ("InvalidThreshold", "check_thresholds", "dedup_similar", "mine"),
    ".registry": ("build_graph", "license_changes", "parse_snapshot", "read_graph", "write_graph"),
    ".scan": ("rank_pairs", "scan"),
    "json": ("JSONEncoder",),
}


def _bind(module: str) -> None:
    source = import_module(module, __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(source, name))


def _load(args, *modules: str) -> None:
    """Bind the names of ``modules``. When ``args`` asks for records, bind
    ``json``'s too and give ``args`` the one encoder all its records share."""
    for module in modules:
        _bind(module)
    if getattr(args, "format", None) == "records":
        _bind("json")
        args.encode = JSONEncoder(sort_keys=True).encode


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNRESOLVABLE = 3
EXIT_CONFLICTS = 4
EXIT_DATA = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command killed by it

DATASET_ENV = "LICTERM_DATASET"


class _Context:
    """Lazily loaded dataset, alias table, and id registry."""

    def __init__(self, args):
        self._dataset_path = getattr(args, "dataset", None) or os.environ.get(DATASET_ENV)
        self._aliases_path = getattr(args, "aliases", None)

    @cached_property
    def dataset(self) -> Dataset:
        return load_dataset(self._dataset_path) if self._dataset_path else bundled_dataset()

    @cached_property
    def known(self) -> KnownLicenses:
        return known_licenses(self.dataset, bundled_known_ids())

    @cached_property
    def aliases(self) -> AliasTable:
        if self._aliases_path:
            return load_aliases(self._aliases_path, self.known)
        return bundled_aliases(self.known)


def _out(args, record: dict | None, line: str | None) -> None:
    """Print an item as ``args.format`` asks; ``None`` means no form in that format."""
    if args.format == "records":
        if record is not None:
            print(args.encode(record))
    elif line is not None:
        print(line)


# --- subcommand handlers -----------------------------------------------------


def _cmd_normalize(args) -> int:
    _load(args, ".dataset", ".expression")
    ctx = _Context(args)
    outcome = normalize(args.raw, ctx.aliases, ctx.known)
    print(outcome)
    return EXIT_UNRESOLVABLE if isinstance(outcome, Unresolvable) else EXIT_OK


def _cmd_parse_expr(args) -> int:
    _load(args, ".expression")
    try:
        expr = parse_expression(args.expr)
    except ExpressionSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVABLE
    print(_parenthesized(expr))
    return EXIT_OK


def _parenthesized(expr) -> str:
    if isinstance(expr, (And, Or)):
        op = "AND" if isinstance(expr, And) else "OR"
        return f"({_parenthesized(expr.left)} {op} {_parenthesized(expr.right)})"
    return render(expr)


def _cmd_check(args) -> int:
    _load(args, ".conflicts", ".dataset", ".expression")
    ctx = _Context(args)
    sides = []
    for raw, role in ((args.parent, "parent"), (args.dep, "dependency")):
        outcome = normalize(raw, ctx.aliases, ctx.known)
        if isinstance(outcome, Unresolvable):
            reason = outcome.reason.value
            print(f"{role} license is unresolvable ({reason}): {raw}", file=sys.stderr)
            return EXIT_UNRESOLVABLE
        sides.append(outcome)
    verdict = check_expressions(*sides, ctx.dataset, args.strict_not_mentioned)
    if args.format == "table":
        for warning in verdict.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    for finding in verdict.findings:
        record = {
            "kind": "finding",
            "type": finding.ctype.value,
            "term": finding.term.value,
            "parent": finding.parent_id,
            "dep": finding.dep_id,
            "parent_attitude": finding.parent_attitude.value,
            "dep_attitude": finding.dep_attitude.value,
        }
        _out(args, record, explain(finding))
    for warning in verdict.warnings:
        _out(args, {"kind": "warning", "message": warning}, None)
    record = {
        "kind": "verdict",
        "conflict_free": verdict.conflict_free,
        "parent": str(verdict.parent_choice),
        "dep": str(verdict.dep_choice),
        "unknown": list(verdict.unknown_ids),
    }
    line = f"no conflicts: {verdict.parent_choice} may depend on {verdict.dep_choice}"
    _out(args, record, line if verdict.conflict_free else None)
    return EXIT_OK if verdict.conflict_free else EXIT_CONFLICTS


def _cmd_matrix(args) -> int:
    _load(args, ".conflicts", ".dataset")
    ctx = _Context(args)
    matrix = build_matrix(ctx.dataset, args.strict_not_mentioned)
    pairs = {ctype.value: matrix.pairs[ctype] for ctype in ConflictType}
    _out(
        args,
        {"kind": "totals", **{f"{t.lower()}_pairs": n for t, n in pairs.items()}},
        "conflicting ordered pairs: " + " ".join(f"{t}={n}" for t, n in pairs.items()),
    )
    _out(args, None, f"{'license':<24} {'C1':>5} {'C2':>5} {'C3':>5}")
    for spdx_id in sorted(matrix.degrees):
        c1, c2, c3 = matrix.degrees[spdx_id]
        _out(
            args,
            {"kind": "degree", "id": spdx_id, "c1": c1, "c2": c2, "c3": c3},
            f"{spdx_id:<24} {c1:>5} {c2:>5} {c3:>5}",
        )
    return EXIT_OK


def _cmd_mine(args) -> int:
    _load(args, ".dataset", ".mining")
    jaccard = None if args.no_dedup else args.jaccard
    try:
        check_thresholds(args.min_support, jaccard)
    except InvalidThreshold as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    patterns = mine(_Context(args).dataset, args.min_support, jaccard)
    if jaccard is not None:
        # mine runs the dedup test inside its search, so this pass drops nothing;
        # bench/tracing.py still times the dedup layer through this name.
        patterns = dedup_similar(patterns, jaccard)
    patterns = [p for p in patterns if len(p.items) >= args.min_size]
    # One branch per format, so each pattern is spelled only in the form printed.
    if args.format == "records":
        for p in patterns:
            print(args.encode({"kind": "pattern", "items": sorted(p.items),
                          "support": p.support_count, "licenses": list(p.sorted_ids())}))
    else:
        print(f"{len(patterns)} patterns (min support {args.min_support})")
        for p in patterns:
            ids = ", ".join(islice(p.sorted_ids(), 4))
            print(f"{p.support_count:>4}  {' '.join(p.sorted_items())}  [{ids}]")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    _load(args, ".registry")
    records = parse_snapshot(args.snapshot)
    graph = build_graph(records)
    write_graph(graph, records, args.output)
    print(f"nodes={len(records)} edges={len(graph.edges)} unresolved={len(graph.unresolved)}")
    return EXIT_OK


def _cmd_changes(args) -> int:
    _load(args, ".dataset", ".registry")
    ctx = _Context(args)
    records = parse_snapshot(args.snapshot)
    changes = license_changes(records, ctx.aliases, ctx.known)
    _out(args, None, f"{len(changes)} license changes")
    for c in changes:
        old, new, version = str(c.from_outcome), str(c.to_outcome), str(c.at_version)
        _out(
            args,
            {
                "kind": "change",
                "package": c.package,
                "from": old,
                "to": new,
                "at_version": version,
                "classification": c.classification,
            },
            f"{c.package} {old} -> {new} at {version} [{c.classification}]",
        )
    return EXIT_OK


def _cmd_scan(args) -> int:
    _load(args, ".dataset", ".registry", ".scan", ".conflicts")
    ctx = _Context(args)
    graph, records = read_graph(args.graph)
    report = scan(graph, records, ctx.dataset, args.strict_not_mentioned, ctx.aliases, ctx.known)
    rows = rank_pairs(report, args.top)
    per_type = {ctype.value: report.edges_with_findings[ctype] for ctype in ConflictType}
    _out(
        args,
        {
            "kind": "summary",
            "total_edges": report.total_edges,
            "conflicted_edges": report.conflicted_edges,
            "unknown_license_edges": report.unknown_license_edges,
            **{f"{t.lower()}_edges": n for t, n in per_type.items()},
        },
        f"edges={report.total_edges} conflicted={report.conflicted_edges} "
        + " ".join(f"{t}={n}" for t, n in per_type.items())
        + f" unknown-license={report.unknown_license_edges}",
    )
    for ctype in ConflictType:
        _out(args, None, f"top {ctype.value} pairs (total {per_type[ctype.value]}):")
        for parent, dep, count in rows[ctype]:
            _out(
                args,
                {"kind": "pair", "type": ctype.value, "parent": parent, "dep": dep, "edges": count},
                f"  {parent} -> {dep}: {count}",
            )
    _out(args, None, "usage by year:")
    for (year, bucket), count in sorted(report.usage.items()):
        _out(
            args,
            {"kind": "usage", "year": year, "license": bucket, "count": count},
            f"  {year} {bucket}: {count}",
        )
    return EXIT_CONFLICTS if report.conflicted_edges else EXIT_OK


def _cmd_explain(args) -> int:
    _load(args, ".dataset", ".expression")
    ctx = _Context(args)
    outcome = normalize(args.license, ctx.aliases, ctx.known)
    if not isinstance(outcome, LicenseRef):
        print(f"cannot resolve {args.license!r} to a single license id", file=sys.stderr)
        return EXIT_UNRESOLVABLE
    profile = ctx.dataset.profiles.get(outcome.id)
    if profile is None:
        print(f"{outcome.id} is a known id but has no profile in the dataset", file=sys.stderr)
        return EXIT_UNRESOLVABLE
    if outcome.or_later or outcome.exception:
        print(f"warning: {outcome} is not modeled; showing the base license", file=sys.stderr)
    print(dumps_profile(profile), end="")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _path(text: str) -> str:
    if not text:  # would read as "not given", or name the current directory
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    dataset_help = f"dataset file (default: bundled; ${DATASET_ENV})"
    sub.add_argument("--dataset", type=_path, help=dataset_help)
    sub.add_argument("--aliases", type=_path, help="alias table file (default: bundled)")


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("table", "records"),
        default="table",
        help="human table or one JSON record per line",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="licterm",
        description="Term-level license compatibility checking and scanning.",
    )
    parser.add_argument("--version", action="version", version=f"licterm {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("normalize", help="resolve a raw license string")
    p.add_argument("raw")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_normalize)

    p = commands.add_parser("parse-expr", help="parse an SPDX expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_parse_expr)

    p = commands.add_parser("check", help="check a parent expression against a dependency")
    p.add_argument("parent")
    p.add_argument("dep")
    p.add_argument("--strict-not-mentioned", action="store_true")
    _add_data_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_check)

    p = commands.add_parser("matrix", help="all-pairs conflict counts and degrees")
    p.add_argument("--strict-not-mentioned", action="store_true")
    _add_data_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_matrix)

    p = commands.add_parser("mine", help="mine frequent term patterns")
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--min-size", type=_positive_int, default=1)
    p.add_argument("--jaccard", type=float, default=0.9, help="dedup threshold")
    p.add_argument("--no-dedup", action="store_true")
    _add_data_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_mine)

    p = commands.add_parser("ingest", help="build a dependency graph from a snapshot")
    p.add_argument("snapshot", type=_path)
    p.add_argument("-o", "--output", type=_path, required=True)
    p.set_defaults(func=_cmd_ingest)

    p = commands.add_parser("changes", help="license changes across versions")
    p.add_argument("snapshot", type=_path)
    _add_data_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_changes)

    p = commands.add_parser("scan", help="scan a dependency graph for conflicts")
    p.add_argument("graph", type=_path)
    p.add_argument("--strict-not-mentioned", action="store_true")
    p.add_argument("--top", type=_positive_int, default=10)
    _add_data_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_scan)

    p = commands.add_parser("explain", help="dump a license profile")
    p.add_argument("license")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's records, edges and trees hold no reference cycles, so the
    # cyclic collector would only rescan them. Library callers keep it on.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away (``licterm matrix | head``): stop quietly, and
        # point stdout at devnull so the flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_BROKEN_PIPE
    except (ExpressionTooComplex, LictermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_UNRESOLVABLE if isinstance(exc, ExpressionTooComplex) else EXIT_DATA
    finally:
        if collecting:
            gc.enable()
    if argv is None:  # invoked as a console script
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
