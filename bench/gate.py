"""Correctness gate: checks the CLI's outputs against independent oracles.

The expensive checks run on seeded samples, once per distinct output,
outside any timed region. Every check returns a list of error strings;
an empty list means the output passed.

* ``ingest``: sampled records are re-resolved with ``oracle_resolve``
  against the snapshot's own versions, and every dependency entry of a
  sampled record must appear in the graph file with the oracle's
  outcome; edge and unresolved totals must add up to the snapshot.
* ``scan``: ``total_edges`` equals the ingest edge count, and every
  single-id x single-id pair row is confirmed by
  ``oracle_check_profiles``. Compound-expression pairs are left
  unpinned because OR semantics are due to change.
* ``matrix``: the degrees of sampled licenses are recomputed from
  ``oracle_check_profiles`` over all their ordered pairs.
* ``mine``: the support and supporting set of every pattern are
  recounted by brute force.
* ``normalize``: ``MIT`` must normalize to itself.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter, defaultdict

from licterm.dataset import bundled_dataset
from licterm.model import Attitude, CopyleftClass, LicenseProfile, Term
from licterm.semver import RangeSyntaxError, Semver, parse_range
from oracles import oracle_check_profiles, oracle_resolve

RECORD_SAMPLE = 300
DEGREE_SAMPLE = 6
_INGEST_RE = re.compile(r"^nodes=(\d+) edges=(\d+) unresolved=(\d+)$")
_SINGLE_ID_RE = re.compile(r"^[A-Za-z0-9.-]+$")


def load_profiles(generated) -> dict[str, LicenseProfile]:
    """The profiles a workload's commands run against.

    ``generated`` is the generator's id -> (terms, copyleft) mapping, or
    None for the bundled dataset.
    """
    if generated is None:
        return dict(bundled_dataset().profiles)
    return {
        spdx_id: LicenseProfile(
            spdx_id, f"Synthetic {spdx_id}",
            {Term(t): Attitude(a) for t, a in terms.items()}, CopyleftClass(copyleft),
        )
        for spdx_id, (terms, copyleft) in generated.items()
    }


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def profile_items(profile: LicenseProfile) -> frozenset[str]:
    return frozenset(
        f"{term.value}={attitude.value}"
        for term, attitude in profile.terms.items()
        if attitude is not Attitude.NOT_MENTIONED
    )


class Gate:
    """Oracle checks for one workload's inputs."""

    def __init__(self, snapshot_text: str, profiles: dict[str, LicenseProfile], seed: int):
        self.profiles = profiles
        self.rows = []  # (package, version, [(dep name, range)])
        self.versions: dict[str, list[Semver]] = defaultdict(list)
        self.dep_entries = 0
        for line in snapshot_text.splitlines():
            package, version, _, _, deps = line.split("\t")
            entries = [tuple(e.rpartition("@")[::2]) for e in deps.split(";") if e]
            self.rows.append((package, version, entries))
            self.versions[package].append(Semver.parse(version))
            self.dep_entries += len(entries)
        rng = random.Random(f"gate:{seed}")
        self.sampled_rows = rng.sample(self.rows, min(RECORD_SAMPLE, len(self.rows)))
        self.sampled_ids = rng.sample(sorted(profiles), min(DEGREE_SAMPLE, len(profiles)))

    @staticmethod
    def ingest_summary(stdout: str) -> tuple[int, int, int] | None:
        """(nodes, edges, unresolved) from the ``ingest`` summary line."""
        match = _INGEST_RE.match(stdout.strip())
        return tuple(map(int, match.groups())) if match else None

    def _expected_entries(self, entries) -> Counter:
        expected: Counter = Counter()
        for name, range_text in entries:
            if name not in self.versions:
                expected[("unresolved", name, range_text, "unknown-package")] += 1
                continue
            try:
                rng = parse_range(range_text)
            except RangeSyntaxError:
                expected[("unresolved", name, range_text, "unparsable-range")] += 1
                continue
            target = oracle_resolve(rng, self.versions[name])
            if target is None:
                expected[("unresolved", name, range_text, "no-match")] += 1
            else:
                expected[("edge", name, str(target), range_text)] += 1
        return expected

    def check_ingest(self, stdout: str, graph_text: str) -> list[str]:
        summary = self.ingest_summary(stdout)
        if summary is None:
            return [f"ingest: unexpected summary {stdout.strip()!r}"]
        nodes, edges, unresolved = summary
        errors = []
        if nodes != len(self.rows):
            errors.append(f"ingest: {nodes} nodes for {len(self.rows)} records")
        if edges + unresolved != self.dep_entries:
            errors.append(
                f"ingest: {edges} edges + {unresolved} unresolved != {self.dep_entries} entries"
            )
        by_record: dict[tuple[str, str], Counter] = defaultdict(Counter)
        counts = Counter()
        for line in graph_text.splitlines():
            fields = line.split("\t")
            counts[fields[0]] += 1
            if fields[0] == "edge":
                by_record[(fields[1], fields[2])][("edge", fields[3], fields[4], fields[5])] += 1
            elif fields[0] == "unresolved":
                by_record[(fields[1], fields[2])][("unresolved", fields[3], fields[4], fields[5])] += 1
        if (counts["node"], counts["edge"], counts["unresolved"]) != (nodes, edges, unresolved):
            errors.append(f"ingest: graph file line counts {dict(counts)} disagree with summary")
        for package, version, entries in self.sampled_rows:
            expected = self._expected_entries(entries)
            got = by_record.get((package, version), Counter())
            if got != expected:
                errors.append(
                    f"ingest: {package}@{version}: graph has {sorted(got.elements())}, "
                    f"oracle gives {sorted(expected.elements())}"
                )
        return errors

    def check_scan(self, stdout: str, ingest_edges: int) -> list[str]:
        records = parse_records(stdout)
        summaries = [r for r in records if r["kind"] == "summary"]
        if len(summaries) != 1:
            return [f"scan: expected one summary record, got {len(summaries)}"]
        summary = summaries[0]
        errors = []
        if summary["total_edges"] != ingest_edges:
            errors.append(f"scan: total_edges {summary['total_edges']} != ingest edges {ingest_edges}")
        checked = summary["total_edges"] - summary["unknown_license_edges"]
        if not 0 <= summary["conflicted_edges"] <= checked:
            errors.append(f"scan: conflicted_edges {summary['conflicted_edges']} out of range")
        for ctype in ("c1", "c2", "c3"):
            if summary[f"{ctype}_edges"] > summary["conflicted_edges"]:
                errors.append(f"scan: {ctype}_edges exceeds conflicted_edges")
        for row in records:
            if row["kind"] != "pair":
                continue
            parent, dep = row["parent"], row["dep"]
            if not (_SINGLE_ID_RE.match(parent) and _SINGLE_ID_RE.match(dep)):
                continue
            if parent not in self.profiles or dep not in self.profiles:
                errors.append(f"scan: pair {parent} -> {dep} names a license without a profile")
                continue
            found = {f[0] for f in oracle_check_profiles(self.profiles[parent], self.profiles[dep])}
            if row["type"] not in found:
                errors.append(f"scan: oracle finds no {row['type']} for {parent} -> {dep}")
        return errors

    def check_matrix(self, stdout: str) -> list[str]:
        degrees = {
            r["id"]: (r["c1"], r["c2"], r["c3"])
            for r in parse_records(stdout)
            if r["kind"] == "degree"
        }
        if set(degrees) != set(self.profiles):
            return ["matrix: degree rows do not cover the dataset"]
        errors = []
        for spdx_id in self.sampled_ids:
            neighbors = {"C1": set(), "C2": set(), "C3": set()}
            profile = self.profiles[spdx_id]
            for other_id, other in self.profiles.items():
                if other_id == spdx_id:
                    continue
                both_ways = oracle_check_profiles(profile, other) + oracle_check_profiles(other, profile)
                for finding in both_ways:
                    neighbors[finding[0]].add(other_id)
            expected = tuple(len(neighbors[t]) for t in ("C1", "C2", "C3"))
            if degrees[spdx_id] != expected:
                errors.append(f"matrix: degrees of {spdx_id} are {degrees[spdx_id]}, oracle {expected}")
        return errors

    def check_mine(self, stdout: str, min_support: int) -> list[str]:
        patterns = [r for r in parse_records(stdout) if r["kind"] == "pattern"]
        if not patterns:
            return ["mine: no patterns"]
        items_of = {i: profile_items(p) for i, p in self.profiles.items()}
        errors = []
        for pattern in patterns:
            items = frozenset(pattern["items"])
            supporting = sorted(i for i, have in items_of.items() if items <= have)
            if pattern["support"] != len(supporting) or pattern["licenses"] != supporting:
                errors.append(
                    f"mine: {sorted(items)} claims support {pattern['support']}, "
                    f"brute force counts {len(supporting)}"
                )
            elif pattern["support"] < min_support:
                errors.append(f"mine: {sorted(items)} is below min support {min_support}")
        return errors

    @staticmethod
    def check_normalize(stdout: str) -> list[str]:
        return [] if stdout == "MIT\n" else [f"normalize: MIT gave {stdout!r}"]
