"""The package's value types: construction, equality, hashing and immutability.

Six of them are named tuples. The other eleven are plain classes that
compare only with instances of their own class, so an expression tree
or an unresolvable outcome is never a tuple and never equals one.
"""

import copy
import pickle
from collections import Counter

import pytest

from licterm.conflicts import (
    ConflictFinding,
    ConflictMatrix,
    ConflictType,
    ExpressionVerdict,
    check_expressions,
)
from licterm.dataset import AliasTable, Dataset, dumps_profile, loads_dataset
from licterm.expression import And, LicenseRef, Or, Unresolvable, UnresolvableReason
from licterm.mining import FrequentPattern
from licterm.model import Attitude, CopyleftClass, LicenseProfile, Term
from licterm.registry import DependencyGraph, Edge, LicenseChange
from licterm.scan import ScanReport
from licterm.semver import Comparator, Semver, VersionRange, parse_range, resolve_range

from conftest import make_terms

MIT = LicenseRef("MIT")
GPL = LicenseRef("GPL-2.0-only", True, "Classpath-exception-2.0")
TERMS = make_terms(distribute="can")
PROFILE = LicenseProfile("X-1.0", "X License 1.0", TERMS, CopyleftClass.WEAK)
V1 = Semver(1, 0, 0)
AT_LEAST_V1 = Comparator(">=", V1)

# Each class with positional arguments for every constructor parameter, in order.
CASES = [
    (LicenseProfile, ("X-1.0", "X License 1.0", TERMS, CopyleftClass.WEAK, "a note")),
    (Dataset, ({"X-1.0": PROFILE}, "7", "here")),
    (AliasTable, ({"mit license": "MIT"},)),
    (LicenseRef, ("GPL-2.0-only", True, "Classpath-exception-2.0")),
    (And, (MIT, GPL)),
    (Or, (MIT, GPL)),
    (Unresolvable, (UnresolvableReason.URL, "https://example.org/license")),
    (ExpressionVerdict, ((ConflictType.C2,), MIT, GPL, ((MIT, None),), ((GPL, None),), True)),
    (ConflictFinding, (ConflictType.C1, Term.SUBLICENSE, "A", "B", Attitude.CAN, Attitude.CANNOT)),
    (ConflictMatrix, ({ConflictType.C1: 2}, {"A": (1, 0, 0)})),
    (FrequentPattern, (frozenset({"distribute=can"}), 0b101, ("A", "B", "C"))),
    (Semver, (1, 2, 3, ("rc", "1"), "build.5")),
    (Comparator, (">=", V1)),
    (VersionRange, (">=1.0.0", ((AT_LEAST_V1,),))),
    (DependencyGraph, ((Edge(0, 1, "^1.0.0"),), ())),
    (LicenseChange, ("pkg", MIT, Unresolvable(UnresolvableReason.NO_LICENSE, ""), V1, "x")),
    (ScanReport, (3, {ConflictType.C1: 1}, 1, 0, {ConflictType.C1: Counter()}, {(2020, "A"): 2})),
]
NAMED_TUPLES = {
    ConflictFinding, ConflictMatrix, DependencyGraph, LicenseChange, ScanReport, Comparator
}
IDS = [cls.__name__ for cls, _ in CASES]

# The defaults of each class with optional parameters, after its required ones.
DEFAULTS = [
    (LicenseProfile, 4, {"notes": ""}),
    (Dataset, 1, {"version": "0", "provenance": "unknown"}),
    (AliasTable, 0, {"entries": {}}),
    (LicenseRef, 1, {"or_later": False, "exception": None}),
    (Semver, 3, {"prerelease": (), "build": ""}),
]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
class TestEveryClass:
    def test_keyword_and_positional_construction_agree(self, cls, args):
        kwargs = dict(zip(cls._fields, args, strict=True))
        by_position, by_keyword = cls(*args), cls(**kwargs)
        assert by_position == by_keyword and not by_position != by_keyword
        for name, value in kwargs.items():
            if (cls, name) == (LicenseProfile, "terms"):  # a view of the stored masks
                assert getattr(by_keyword, name) == value
            else:
                assert getattr(by_keyword, name) is value

    def test_equal_values_hash_alike(self, cls, args):
        one, other = cls(*args), cls(*copy.deepcopy(args))
        assert one == other
        if _hashable(args):
            assert hash(one) == hash(other)
        else:  # a dict field makes the instance unhashable, as the dict is
            with pytest.raises(TypeError):
                hash(one)

    def test_a_different_first_field_is_unequal(self, cls, args):
        changed = ("other",) + args[1:]
        assert cls(*args) != cls(*changed)

    def test_fields_cannot_be_assigned_or_added(self, cls, args):
        obj = cls(*args)
        with pytest.raises(AttributeError):
            setattr(obj, cls._fields[0], args[0])
        with pytest.raises(AttributeError):
            obj.extra = 1
        with pytest.raises(AttributeError):
            delattr(obj, cls._fields[-1])
        assert getattr(obj, cls._fields[0]) is args[0]

    def test_copy_and_pickle_round_trip(self, cls, args):
        obj = cls(*args)
        assert copy.copy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj

    def test_named_tuples_are_exactly_the_plain_records(self, cls, args):
        assert isinstance(cls(*args), tuple) is (cls in NAMED_TUPLES)


@pytest.mark.parametrize(
    "cls, required, defaults", DEFAULTS, ids=[cls.__name__ for cls, _, _ in DEFAULTS]
)
def test_defaults(cls, required, defaults):
    args = dict(CASES)[cls][:required]
    obj = cls(*args)
    assert {name: getattr(obj, name) for name in defaults} == defaults
    assert obj == cls(*args, *defaults.values())


def test_each_alias_table_gets_its_own_empty_entries():
    assert AliasTable().entries is not AliasTable().entries


class TestTreesAreNotTuples:
    def test_and_and_or_over_the_same_operands_differ(self):
        assert And(MIT, GPL) != Or(MIT, GPL)
        assert Or(MIT, GPL) != And(MIT, GPL)
        assert hash(And(MIT, GPL)) == hash(And(MIT, GPL))

    @pytest.mark.parametrize("cls", [LicenseRef, And, Or, Unresolvable])
    def test_never_a_tuple_nor_equal_to_one(self, cls):
        args = dict(CASES)[cls]
        obj = cls(*args)
        assert not isinstance(obj, tuple)
        assert obj != args and args != obj
        assert obj != list(args)


def _loaded_profile() -> LicenseProfile:
    """The positional ``CASES`` profile, read back from its record: a profile built from masks."""
    return loads_dataset(dumps_profile(LicenseProfile(*dict(CASES)[LicenseProfile]))).profiles["X-1.0"]


class TestLoadedProfile:
    def test_equals_the_positional_profile_of_its_terms_view(self):
        loaded = _loaded_profile()
        assert "terms" not in vars(loaded)
        positional = LicenseProfile(
            loaded.spdx_id, loaded.full_name, loaded.terms, loaded.copyleft, loaded.notes
        )
        assert loaded == positional and positional == loaded and not loaded != positional
        assert positional == LicenseProfile(*dict(CASES)[LicenseProfile])
        assert loaded.masks == positional.masks
        assert repr(loaded) == repr(positional)

    def test_copy_and_pickle_round_trip(self):
        loaded = _loaded_profile()
        assert pickle.loads(pickle.dumps(loaded)) == loaded
        assert copy.copy(loaded) == loaded and copy.deepcopy(loaded) == loaded

    @pytest.mark.parametrize("name", LicenseProfile._fields + ("masks",))
    def test_fields_and_views_cannot_be_assigned(self, name):
        loaded = _loaded_profile()
        with pytest.raises(AttributeError):
            setattr(loaded, name, getattr(loaded, name))
        with pytest.raises(AttributeError):
            delattr(loaded, name)
        with pytest.raises(AttributeError):
            loaded.extra = 1


class TestComputedOnce:
    def _check(self, obj, name):
        first = getattr(obj, name)
        assert vars(obj)[name] is first
        assert getattr(obj, name) is first

    def test_profile_masks(self):
        self._check(LicenseProfile(*dict(CASES)[LicenseProfile]), "masks")

    @pytest.mark.parametrize("name", ["masks", "terms"])
    def test_loaded_profile_views(self, name):
        self._check(_loaded_profile(), name)

    @pytest.mark.parametrize("name", ["findings", "warnings", "unknown_ids"])
    def test_verdict_properties(self, seed_dataset, name):
        verdict = check_expressions(MIT, LicenseRef("GPL-3.0-only"), seed_dataset)
        self._check(verdict, name)

    def test_semver_key_and_range_bounds_are_set_at_construction(self):
        version = Semver(1, 2, 3, ("rc", "1"))
        assert version.key == (1, 2, 3, False, ((1, 0, "rc"), (0, 1, "")))
        assert version.key is version.key
        rng = parse_range(">=1.0.0 <2.0.0")
        assert rng.bounds is rng.bounds and len(rng.bounds) == 1


# The classes that are not named tuples and have no cached view: they take slots.
SLOTTED = [Dataset, AliasTable, LicenseRef, And, Or, Unresolvable, FrequentPattern, Semver, VersionRange]


@pytest.mark.parametrize("cls", SLOTTED, ids=[cls.__name__ for cls in SLOTTED])
def test_value_types_without_a_cached_view_have_no_dict(cls):
    assert not hasattr(cls(*dict(CASES)[cls]), "__dict__")


def test_version_range_satisfies_can_be_patched_on_the_class(monkeypatch):
    satisfies = VersionRange.satisfies
    calls = []

    def counted(rng, version):
        calls.append(version)
        return satisfies(rng, version)

    monkeypatch.setattr(VersionRange, "satisfies", counted)
    prerelease = Semver.parse("1.0.0-rc.2")
    assert resolve_range(parse_range(">=1.0.0-rc.1"), [prerelease]) == prerelease
    assert calls == [prerelease]
