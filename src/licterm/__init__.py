"""Term-level software license compatibility toolkit.

Models licenses as attitudes over 22 rights and obligations, parses and
normalizes SPDX license expressions, detects rights / obligation /
copyleft conflicts between licenses and across dependency graphs, and
mines frequent term patterns from license datasets.

``import licterm`` loads no submodule: each submodule below, and each
name it exports, is imported on first use (PEP 562). ``licterm.scan`` is
the submodule; the dependency-graph scan is ``licterm.scan.scan``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "model": ("Attitude", "CopyleftClass", "LicenseProfile", "Term", "TermKind"),
    "dataset": (
        "AliasTable", "Dataset", "bundled_aliases", "bundled_dataset", "bundled_known_ids",
        "dumps_dataset", "known_licenses", "load_aliases", "load_dataset",
    ),
    "expression": (
        "And", "ExpressionSyntaxError", "KnownLicenses", "LicenseRef", "NormalizationOutcome",
        "Or", "Unresolvable", "UnresolvableReason", "normalize", "parse_expression", "render",
    ),
    "conflicts": (
        "ConflictFinding", "ConflictMatrix", "ConflictType", "ExpressionVerdict",
        "build_matrix", "check_expressions", "check_profiles", "explain",
    ),
    "mining": ("FrequentPattern", "common_term_report", "dedup_similar", "mine"),
    "semver": ("Semver", "VersionRange", "parse_range", "resolve_range"),
    "registry": (
        "DependencyGraph", "LicenseChange", "VersionRecord", "build_graph", "license_changes",
        "parse_snapshot",
    ),
    "scan": ("ScanReport", "rank_pairs"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
