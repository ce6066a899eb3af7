"""Term-level software license compatibility toolkit.

Models licenses as attitudes over 22 rights and obligations, parses and
normalizes SPDX license expressions, detects rights / obligation /
copyleft conflicts between licenses and across dependency graphs, and
mines frequent term patterns from license datasets.
"""

from .model import Attitude, CopyleftClass, LicenseProfile, Term, TermKind
from .dataset import (
    AliasTable,
    Dataset,
    bundled_aliases,
    bundled_dataset,
    bundled_known_ids,
    dumps_dataset,
    known_licenses,
    load_aliases,
    load_dataset,
)
from .expression import (
    And,
    ExpressionSyntaxError,
    KnownLicenses,
    LicenseRef,
    NormalizationOutcome,
    Or,
    Unresolvable,
    UnresolvableReason,
    normalize,
    parse_expression,
    render,
)
from .conflicts import (
    ConflictFinding,
    ConflictMatrix,
    ConflictType,
    ExpressionVerdict,
    build_matrix,
    check_expressions,
    check_profiles,
    explain,
)
from .mining import FrequentPattern, common_term_report, dedup_similar, mine
from .semver import Semver, VersionRange, parse_range, resolve_range
from .registry import (
    DependencyGraph,
    LicenseChange,
    VersionRecord,
    build_graph,
    license_changes,
    parse_snapshot,
)
from .scan import ScanReport, rank_pairs, scan

__version__ = "0.1.0"
