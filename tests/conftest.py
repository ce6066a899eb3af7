import random

import pytest

from licterm.dataset import bundled_aliases, bundled_dataset, bundled_known_ids, known_licenses
from licterm.expression import And, LicenseRef, Or
from licterm.model import (
    Attitude,
    CopyleftClass,
    LicenseProfile,
    OBLIGATION_TERMS,
    RIGHT_TERMS,
    TERM_ORDER,
    Term,
)


@pytest.fixture(scope="session")
def seed_dataset():
    return bundled_dataset()


@pytest.fixture(scope="session")
def known(seed_dataset):
    return known_licenses(seed_dataset, bundled_known_ids())


@pytest.fixture(scope="session")
def aliases(known):
    return bundled_aliases(known)


def make_terms(**attitudes: str) -> dict[Term, Attitude]:
    """Build a total term mapping from keyword overrides.

    Keys are term ids with ``-`` replaced by ``_``; values are attitude
    spellings (``"can"``, ``"cannot"``, ``"must"``). Unlisted terms
    default to not-mentioned.
    """
    terms = {t: Attitude.NOT_MENTIONED for t in TERM_ORDER}
    by_key = {t.value.replace("-", "_"): t for t in TERM_ORDER}
    for key, value in attitudes.items():
        term = by_key.get(key)
        if term is None:
            raise KeyError(f"unknown term {key!r}")
        terms[term] = Attitude(value)
    return terms


RIGHT_CHOICES = (Attitude.CAN, Attitude.CANNOT, Attitude.NOT_MENTIONED)
OBLIGATION_CHOICES = (Attitude.MUST, Attitude.NOT_MENTIONED)


def random_profile(rng: random.Random, spdx_id: str) -> LicenseProfile:
    terms = {}
    for term in RIGHT_TERMS:
        terms[term] = rng.choice(RIGHT_CHOICES)
    for term in OBLIGATION_TERMS:
        terms[term] = rng.choice(OBLIGATION_CHOICES)
    return LicenseProfile(
        spdx_id=spdx_id,
        full_name=f"Test License {spdx_id}",
        terms=terms,
        copyleft=rng.choice(tuple(CopyleftClass)),
    )


_TREE_IDS = ("MIT", "Apache-2.0", "ISC", "GPL-3.0-only", "X-1.0", "Zlib")


def random_expression(rng: random.Random, depth: int = 0):
    """Random expression tree; leaves may carry '+' and exceptions."""
    if depth >= 4 or rng.random() < 0.4:
        ref = LicenseRef(
            rng.choice(_TREE_IDS),
            or_later=rng.random() < 0.15,
            exception=("Classpath-exception-2.0" if rng.random() < 0.1 else None),
        )
        return ref
    node = And if rng.random() < 0.5 else Or
    return node(random_expression(rng, depth + 1), random_expression(rng, depth + 1))
