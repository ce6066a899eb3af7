"""Seeded input generators for the benchmark workloads.

Every generator draws only from ``random.Random`` seeded with the
workload seed, so the same seed gives byte-identical files and a
different seed gives different ones. The program under test sees only
the files written here.

* ``ecosystem-wide``: a registry-shaped snapshot (many packages, few
  versions each, skewed popularity, heavy-tailed raw licenses).
* ``ecosystem-deep``: few packages with many versions and the full npm
  range grammar, so semver resolution dominates.
* ``license-catalog``: a 453-profile dataset built from license
  families with mutations, plus a small snapshot over its ids.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
import random
from pathlib import Path

WORKLOADS = ("ecosystem-wide", "ecosystem-deep", "license-catalog")

RIGHTS = (
    "distribute", "modify", "commercial-use", "private-use", "hold-liable",
    "place-warranty", "use-trademark", "use-patent-claims", "sublicense",
    "relicense", "statically-link",
)
OBLIGATIONS = (
    "include-copyright", "include-license", "include-notice", "include-original",
    "include-install-instructions", "disclose-source", "state-changes",
    "give-credit", "rename", "contact-author", "compensate-for-damages",
)

# Raw license spellings of the wide snapshot with their weights: ids,
# aliases, compound expressions and unresolvable forms, as seen in
# registry metadata. The long tail is added by _tail_license.
COMMON_LICENSES = (
    ("MIT", 300), ("ISC", 60), ("Apache-2.0", 70), ("BSD-3-Clause", 30),
    ("BSD-2-Clause", 20), ("mit", 12), ("MIT License", 10), ("Apache 2.0", 8),
    ("apache2", 4), ("Apache License, Version 2.0", 5), ("BSD", 6),
    ("GPL-3.0-only", 8), ("GPL-3.0", 5), ("GPLv2", 3), ("GPL-2.0-or-later", 3),
    ("LGPL-3.0-only", 4), ("LGPL-2.1", 3), ("MPL-2.0", 6), ("AGPL-3.0-only", 2),
    ("Unlicense", 6), ("CC0-1.0", 5), ("0BSD", 4), ("WTFPL", 2), ("Zlib", 2),
    ("Artistic-2.0", 2), ("CC-BY-4.0", 3), ("EPL-1.0", 1), ("MIT OR Apache-2.0", 12),
    ("(MIT OR Apache-2.0)", 3), ("MIT AND Zlib", 2), ("BSD-3-Clause OR GPL-2.0-only", 2),
    ("Apache-2.0 WITH LLVM-exception", 2), ("GPL-2.0-only WITH Classpath-exception-2.0", 1),
    ("GPL-3.0+", 1), ("UNLICENSED", 15), ("", 12), ("SEE LICENSE IN LICENSE", 8),
    ("SEE LICENSE IN LICENSE.md", 3), ("https://opensource.org/licenses/MIT", 2),
    ("Proprietary", 3),
)
SEED_IDS = (
    "MIT", "ISC", "Apache-2.0", "BSD-2-Clause", "BSD-3-Clause", "0BSD", "Zlib",
    "Unlicense", "WTFPL", "Artistic-2.0", "CC0-1.0", "CC-BY-4.0", "MPL-2.0",
    "EPL-1.0", "LGPL-3.0-only", "GPL-2.0-only", "GPL-3.0-only", "AGPL-3.0-only",
)
# The license list of the acceptance suite's synthetic snapshot.
DEEP_LICENSES = (
    "MIT", "mit", "ISC", "Apache-2.0", "apache2", "GPL-3.0-only", "CC-BY-4.0",
    "MPL-2.0", "MIT OR Apache-2.0", "UNLICENSED", "SEE LICENSE IN LICENSE.txt",
    "EPL-2.0", "Something Custom",
)

WIDE_RECORDS = 20_000
WIDE_MEAN_VERSIONS = 8
# 18 packages of ~167 versions: deep enough that resolution dominates,
# small enough that a 35 s run holds five ingests.
DEEP_RECORDS = 3_000
DEEP_PACKAGES = 18
CATALOG_RECORDS = 1_500
CATALOG_PACKAGES = 200
# Family sizes of the catalog: a few large families (GPL-, BSD-, CC-like)
# and a long tail, as in real license lists. They sum to 453.
FAMILY_SIZES = (70, 52, 40, 32, 28, 24, 21, 19, 17, 15, 14, 13, 12, 11, 10, 9,
                8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3)
FAMILY_SEED = "license-families"
# Support level of `mine` on the catalog: about 6.7k patterns, ~300 after dedup.
CATALOG_MIN_SUPPORT = 70
# Support level of `mine` on the bundled 25-profile dataset.
BUNDLED_MIN_SUPPORT = 5


def _date(rng: random.Random, start_year: int, end_year: int) -> dt.date:
    start = dt.date(start_year, 1, 1).toordinal()
    end = dt.date(end_year, 12, 28).toordinal()
    return dt.date.fromordinal(rng.randint(start, end))


def _row(package, version, published, license_raw, deps) -> str:
    return "\t".join((package, version, published.isoformat(), license_raw, ";".join(deps)))


def _vstr(triple) -> str:
    return "%d.%d.%d" % triple


# --- ecosystem-wide ------------------------------------------------------------


def _version_chain(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    major, minor, patch = rng.choice((0, 0, 1, 1, 1, 2, 3)), rng.randint(0, 5), rng.randint(0, 3)
    chain = []
    for _ in range(n):
        chain.append((major, minor, patch))
        r = rng.random()
        if r < 0.6:
            patch += 1
        elif r < 0.9:
            minor, patch = minor + 1, 0
        else:
            major, minor, patch = major + 1, 0, 0
    return chain


def _tail_license(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        base = rng.choice(SEED_IDS)
        return "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in base)
    if kind == 1:
        return f"Custom License {rng.randrange(10_000)}"
    if kind == 2:
        return f"SEE LICENSE IN docs/LICENSE-{rng.randrange(1000)}.txt"
    if kind == 3:
        return f"https://example.org/licenses/{rng.randrange(10_000)}"
    if kind == 4:
        return "%032x" % rng.getrandbits(128)
    a, b = rng.sample(SEED_IDS, 2)
    return f"({a} or {b})" if kind == 5 else f"{a} AND {b}"


def _wide_range(rng: random.Random, chain) -> str:
    major, minor, patch = rng.choice(chain)
    r = rng.random()
    if r < 0.56:
        return f"^{major}.{minor}.{patch}"
    if r < 0.77:
        return f"~{major}.{minor}.{patch}"
    if r < 0.84:
        return f"{major}.{minor}.{patch}"
    if r < 0.89:
        return f">={major}.{minor}.{patch}"
    if r < 0.93:
        return rng.choice((f"{major}.x", f"{major}.{minor}.x"))
    if r < 0.95:
        return "*"
    if r < 0.98:
        other = rng.choice(chain)
        return f"^{major}.{minor}.{patch} || ^{_vstr(other)}"
    return f">={major}.{minor}.{patch} <{major + 1}.0.0"


def _wide_snapshot(rng: random.Random) -> str:
    # Versions per package: the quantiles of a geometric distribution with
    # the given mean, dealt out in random order, so the seed moves which
    # package gets how many versions but not the distribution itself.
    p = 1 / WIDE_MEAN_VERSIONS
    packages = WIDE_RECORDS // WIDE_MEAN_VERSIONS
    counts = [
        max(1, math.ceil(math.log(1 - (i + 0.5) / packages) / math.log(1 - p)))
        for i in range(packages)
    ]
    counts[-1] += WIDE_RECORDS - sum(counts)
    rng.shuffle(counts)
    chains: list[tuple[str, list]] = []
    for index, n in enumerate(counts):
        name = f"@org{index % 97}/p{index:04d}" if rng.random() < 0.05 else f"p{index:04d}"
        chains.append((name, _version_chain(rng, n)))
    # Popularity: a Zipf-like weight over a shuffled package order.
    order = list(range(len(chains)))
    rng.shuffle(order)
    weights = [0.0] * len(chains)
    for rank, index in enumerate(order):
        weights[index] = 1 / (rank + 1) ** 0.7
    cum = list(itertools.accumulate(weights))
    names = [n for n, _ in chains]
    lic_raw, lic_weights = zip(*COMMON_LICENSES)
    lic_cum = list(itertools.accumulate(lic_weights))

    def license_raw() -> str:
        if rng.random() < 0.08:
            return _tail_license(rng)
        return rng.choices(lic_raw, cum_weights=lic_cum)[0]

    rows = []
    for index, (name, chain) in enumerate(chains):
        current = license_raw()
        switch_at = rng.randrange(1, len(chain)) if len(chain) > 1 and rng.random() < 0.15 else -1
        published = _date(rng, 2012, 2022)
        for position, triple in enumerate(chain):
            if position == switch_at:
                current = license_raw()
            published += dt.timedelta(days=rng.randint(1, 60))
            deps = []
            seen = {index}
            for _ in range(rng.choices(range(7), (15, 15, 20, 20, 15, 10, 5))[0]):
                r = rng.random()
                if r < 0.007:
                    deps.append(f"ghost-{rng.randrange(500)}@^1.0.0")
                    continue
                target = rng.choices(range(len(chains)), cum_weights=cum)[0]
                if target in seen:
                    continue
                seen.add(target)
                target_chain = chains[target][1]
                if r < 0.013:
                    spec = rng.choice(("latest", "github:user/repo", "file:../local", "next"))
                elif r < 0.02:
                    spec = f"^{max(t[0] for t in target_chain) + 1}.0.0"
                else:
                    spec = _wide_range(rng, target_chain)
                deps.append(f"{names[target]}@{spec}")
            rows.append(_row(name, _vstr(triple), published, current, deps))
    return "\n".join(rows) + "\n"


# --- ecosystem-deep ------------------------------------------------------------

_PRE_POOL = ("alpha", "beta", "rc", "0", "1", "2", "11", "alpha.1", "beta.2", "rc.1")


def _deep_partial(rng: random.Random, anchor) -> str:
    major, minor, patch = anchor
    forms = (
        f"{major}.{minor}.{patch}", f"{major}.{minor}", f"{major}",
        f"{major}.x", f"{major}.{minor}.x", "*",
    )
    return rng.choice(forms)


def _deep_simple(rng: random.Random, versions) -> str:
    anchor_text = rng.choice(versions)
    anchor = tuple(int(p) for p in anchor_text.split("-")[0].split("."))
    kind = rng.random()
    if kind < 0.1 and "-" in anchor_text:
        # Prerelease-anchored comparator: admits prereleases of this triple.
        return rng.choice((">=", "^", "~", "")) + anchor_text
    if kind < 0.35:
        return rng.choice(("^", "~")) + _deep_partial(rng, anchor)
    if kind < 0.6:
        return rng.choice((">", ">=", "<", "<=", "=")) + _deep_partial(rng, anchor)
    if kind < 0.7:
        low = _vstr(anchor)
        high = _vstr((anchor[0] + rng.randint(0, 2), rng.randint(0, 9), rng.randint(0, 9)))
        return f"{low} - {high}"
    if kind < 0.75:
        return f"{anchor[0] + 5}.0.0"  # above every version: no match
    return _deep_partial(rng, anchor)


def _deep_range(rng: random.Random, versions) -> str:
    if rng.random() < 0.04:
        return rng.choice(("latest", "git+https://example.org/x.git", "1.2.3 -", "^x.y"))
    conj = " ".join(_deep_simple(rng, versions) for _ in range(rng.randint(1, 2)))
    if rng.random() < 0.25:
        return f"{conj} || {_deep_simple(rng, versions)}"
    return conj


def _deep_snapshot(rng: random.Random) -> str:
    packages = [f"lib{i:02d}" for i in range(DEEP_PACKAGES)]
    versions: dict[str, list[str]] = {}
    for index, package in enumerate(packages):
        count = DEEP_RECORDS // DEEP_PACKAGES + (index < DEEP_RECORDS % DEEP_PACKAGES)
        releases = rng.sample(
            [(a, b, c) for a in range(5) for b in range(10) for c in range(10)],
            count - count // 4,
        )
        chosen = [_vstr(t) for t in releases]
        seen = set(chosen)
        while len(chosen) < count:
            pre = ".".join(rng.choice(_PRE_POOL) for _ in range(rng.randint(1, 2)))
            text = f"{_vstr(rng.choice(releases))}-{pre}"
            if text not in seen:
                seen.add(text)
                chosen.append(text)
        rng.shuffle(chosen)
        versions[package] = chosen
    rows = []
    for package in packages:
        for version in versions[package]:
            deps = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.05:
                    deps.append(f"ghost-pkg@{_deep_range(rng, versions[packages[0]])}")
                    continue
                target = rng.choice(packages)
                deps.append(f"{target}@{_deep_range(rng, versions[target])}")
            rows.append(
                _row(package, version, _date(rng, 2015, 2023), rng.choice(DEEP_LICENSES), deps)
            )
    return "\n".join(rows) + "\n"


# --- license-catalog -----------------------------------------------------------


def _base_profile(rng: random.Random) -> tuple[dict[str, str], str]:
    terms = {}
    for term in RIGHTS:
        if term in ("distribute", "modify", "commercial-use", "private-use"):
            weights = (90, 5, 5)
        elif term == "hold-liable":
            weights = (2, 85, 13)
        else:
            weights = (30, 25, 45)
        terms[term] = rng.choices(("can", "cannot", "not-mentioned"), weights)[0]
    for term in OBLIGATIONS:
        p = 0.9 if term in ("include-copyright", "include-license") else 0.3
        terms[term] = "must" if rng.random() < p else "not-mentioned"
    copyleft = rng.choices(("none", "weak", "strong"), (60, 20, 20))[0]
    return terms, copyleft


def _mutate(rng: random.Random, terms: dict[str, str]) -> dict[str, str]:
    out = dict(terms)
    for term in out:
        if rng.random() < 0.04:
            choices = ("can", "cannot", "not-mentioned") if term in RIGHTS else ("must", "not-mentioned")
            out[term] = rng.choice(choices)
    return out


def catalog_profiles(rng: random.Random) -> dict[str, tuple[dict[str, str], str]]:
    """Profile id -> (term -> attitude, copyleft class).

    The family bases and their members' mutations come from a fixed
    stream, so `matrix` and `mine` do the same work for every seed (with
    seeded mutations, the mined pattern count varied by up to 18% and
    the mining time by up to 30% between seeds). The seed draws the
    order of the profiles in the file, and the snapshot.
    """
    fixed = random.Random(FAMILY_SEED)
    members = []
    for family, size in enumerate(FAMILY_SIZES):
        base, copyleft = _base_profile(fixed)
        for member in range(size):
            members.append((f"Fam{family:02d}-v{member}", (_mutate(fixed, base), copyleft)))
    rng.shuffle(members)
    return dict(members)


def _catalog_text(profiles) -> str:
    blocks = ["dataset-version: bench\nprovenance: synthetic license families\n"]
    for spdx_id, (terms, copyleft) in profiles.items():
        lines = [f"spdx-id: {spdx_id}", f"full-name: Synthetic {spdx_id}", f"copyleft: {copyleft}"]
        lines += [f"{term}: {terms[term]}" for term in RIGHTS + OBLIGATIONS]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _catalog_snapshot(rng: random.Random, ids: list[str]) -> str:
    packages = [f"c{i:03d}" for i in range(CATALOG_PACKAGES)]
    chains = {}
    total = 0
    for index, package in enumerate(packages):
        n = CATALOG_RECORDS // CATALOG_PACKAGES + (index < CATALOG_RECORDS % CATALOG_PACKAGES)
        chains[package] = _version_chain(rng, n)
        total += n
    rows = []
    for package in packages:
        current = rng.choice(ids)
        published = _date(rng, 2015, 2022)
        for triple in chains[package]:
            if rng.random() < 0.05:
                current = f"{rng.choice(ids)} OR {rng.choice(ids)}"
            published += dt.timedelta(days=rng.randint(1, 90))
            deps = []
            for target in rng.sample(packages, rng.randint(0, 4)):
                if target != package:
                    deps.append(f"{target}@^{_vstr(rng.choice(chains[target]))}")
            rows.append(_row(package, _vstr(triple), published, current, deps))
    return "\n".join(rows) + "\n"


# --- entry point -----------------------------------------------------------------


def write_workload(name: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files; return their paths and sizes."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    # A fixed per-workload salt keeps the three streams distinct for one seed.
    rng = random.Random(f"{name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict = {"dataset": None, "profiles": None}
    if name == "ecosystem-wide":
        text = _wide_snapshot(rng)
    elif name == "ecosystem-deep":
        text = _deep_snapshot(rng)
    else:
        profiles = catalog_profiles(rng)
        dataset = out_dir / "catalog.dat"
        dataset.write_text(_catalog_text(profiles), encoding="utf-8")
        files.update(dataset=dataset, profiles=profiles)
        text = _catalog_snapshot(rng, list(profiles))
    snapshot = out_dir / "snapshot.tsv"
    snapshot.write_text(text, encoding="utf-8")
    files["snapshot"] = snapshot
    files["records"] = text.count("\n")
    return files
