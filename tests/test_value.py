"""The value-type contract of `capkit.value.value_type`, one case per value
type: equality and hash on the compared fields only, never across classes,
immutability, pickle and copy round trips, and cached properties computed
once.  A runtime scan of every capkit class checks that each one gets its
`__eq__` from `object`, from a standard-library base or from the decorator.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
from functools import cached_property

import pytest

import capkit
from capkit.abgroup import (AbelianGroup, Homomorphism, Subgroup,
                            identity_hom, power_hom)
from capkit.catalog import get_group
from capkit.fixtures import TableRow, reference_table
from capkit.gmodule import (GModule, GroupAlgebraElement,
                            RelativeExtensionDatum, catalog_relative_data)
from capkit.heuristics import RankDistribution, predicted_rank_distribution
from capkit.pcgroup import CapitulationEntry, PcGroup, SubgroupDescriptor
from capkit.quadform import (ClassGroupStructure, Discriminant, QuadForm,
                             class_group_structure)

from algebra_oracles import algebra_one


def heisenberg():
    """A fresh group of order 27 ([g2, g1] = g3), with nothing cached, so
    that its subgroups pickle."""
    return PcGroup(3, 3, {}, {(1, 0): ((2, 1),)})


def _abelian():
    return AbelianGroup((3, 9)), AbelianGroup((9,))


def _homomorphism():
    A = AbelianGroup((3, 9))
    return power_hom(A, 2), identity_hom(A)


def _subgroup():
    A = AbelianGroup((3, 9))
    return Subgroup.from_generators(A, [(1, 0)]), Subgroup.trivial(A)


def _descriptor():
    G = heisenberg()  # elements are numbers; g1 = 9, g2 = 3, g3 = 1
    return G.subgroup([9, 1]), G.subgroup([3, 1])


def _entry():
    full = Subgroup.full(AbelianGroup((3, 3)))
    return CapitulationEntry(1, full, 0), CapitulationEntry(1, full, None)


def _discriminant():
    return Discriminant(-23), Discriminant(-31)


def _quadform():
    return QuadForm(2, 1, 3), QuadForm(1, 1, 6)


def _structure():
    return (class_group_structure(Discriminant(-23)),
            class_group_structure(Discriminant(-31)))


def _algebra_element():
    C2 = AbelianGroup((2,))
    return (GroupAlgebraElement.make(C2, 3, 2, {(1,): 2}),
            algebra_one(C2, 3, 2))


def _gmodule():
    A, C2 = AbelianGroup((5,)), AbelianGroup((2,))
    return (GModule(A, C2, (Homomorphism(A, A, [[4]]),)),
            GModule(A, C2, (identity_hom(A),)))


def _datum():
    first, second = catalog_relative_data(get_group("H27"))[:2]
    return first, second


def _table_row():
    first, second = reference_table()[:2]
    return first, second


def _distribution():
    return (predicted_rank_distribution(3, kmax=3),
            predicted_rank_distribution(5, kmax=3))


# (class, builder of two unequal values, fields left out of equality with
# a replacement value, cached properties)
CASES = [
    (AbelianGroup, _abelian, {}, ()),
    (Homomorphism, _homomorphism, {}, ()),
    (Subgroup, _subgroup, {}, ()),
    (SubgroupDescriptor, _descriptor, {}, ("transversal",)),
    (CapitulationEntry, _entry, {}, ()),
    (Discriminant, _discriminant, {}, ()),
    (QuadForm, _quadform, {}, ()),
    (ClassGroupStructure, _structure, {}, ("forms", "generators")),
    (GroupAlgebraElement, _algebra_element, {}, ()),
    (GModule, _gmodule, {}, ()),
    (RelativeExtensionDatum, _datum, {}, ("_violations",)),
    (TableRow, _table_row, {}, ()),
    (RankDistribution, _distribution, {}, ()),
]
IDS = [case[0].__name__ for case in CASES]


def fields(value):
    """The constructor arguments of value, read back from its fields."""
    names = inspect.signature(type(value)).parameters
    return {name: getattr(value, name) for name in names}


def clone(value, **changes):
    """A fresh instance built from value's fields."""
    return type(value)(**dict(fields(value), **changes))


@pytest.mark.parametrize("cls, build, loose, cached", CASES, ids=IDS)
class TestValueType:
    def test_equal_fields_give_equal_values(self, cls, build, loose, cached):
        a, b = build()
        assert type(a) is cls and type(b) is cls
        twin = clone(a)
        assert twin is not a
        assert twin == a and not twin != a and hash(twin) == hash(a)
        # the hash a frozen dataclass gives: that of the compared fields
        compared = tuple(v for k, v in fields(a).items() if k not in loose)
        assert hash(a) == hash(compared)
        assert a != b and not a == b
        assert repr(a).startswith(cls.__name__ + "(")

    def test_never_equal_across_classes(self, cls, build, loose, cached):
        a, _ = build()
        for other in (type("Sub", (cls,), {}), type("Other", (), {})):
            imitation = object.__new__(other)
            vars(imitation).update(vars(a))
            assert a != imitation and imitation != a

    def test_fields_cannot_be_assigned_or_deleted(self, cls, build, loose,
                                                  cached):
        a, _ = build()
        for name, value in fields(a).items():
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is value
        with pytest.raises(AttributeError):
            a.unknown = 1

    def test_pickle_and_copy_round_trip(self, cls, build, loose, cached):
        a, _ = build()
        assert copy.copy(a) == a and hash(copy.copy(a)) == hash(a)
        # a descriptor's PcGroup compares by identity, so its deep copy is
        # only equal to another one copied with the same group
        for deep in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            first, second = deep((a, clone(a)))
            assert type(first) is cls
            assert first == second and hash(first) == hash(second)
            if cls is not SubgroupDescriptor:
                assert first == a and hash(first) == hash(a)

    def test_uncompared_fields_change_nothing(self, cls, build, loose,
                                              cached):
        a, _ = build()
        for name, value in loose.items():
            other = clone(a, **{name: value})
            assert getattr(other, name) is value
            assert other == a and hash(other) == hash(a)

    def test_cached_properties_are_computed_once(self, cls, build, loose,
                                                 cached, monkeypatch):
        a, _ = build()
        for name in cached:
            calls = []
            func = vars(cls)[name].func

            # each property's own list: one cached property may read another
            def counted(self, func=func, calls=calls):
                calls.append(self)
                return func(self)

            prop = cached_property(counted)
            prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, prop)
            fresh = clone(a)
            first = getattr(fresh, name)
            assert getattr(fresh, name) is first and name in vars(fresh)
            assert calls == [fresh]


def capkit_classes():
    for info in pkgutil.iter_modules(capkit.__path__):
        module = importlib.import_module("capkit." + info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_equality_comes_from_object_stdlib_or_value_type():
    # the runtime side of test_source's check that no class body defines
    # __eq__ or __hash__
    decorated, found = set(), []
    for cls in capkit_classes():
        owner = next(k for k in cls.__mro__ if "__eq__" in vars(k))
        eq = vars(owner)["__eq__"]
        if owner is object or not owner.__module__.startswith("capkit"):
            continue
        if eq.__module__ == "capkit.value" and owner is cls:
            decorated.add(cls)
        else:
            found.append(cls.__qualname__)
    assert found == []
    assert decorated == {case[0] for case in CASES}
