"""The semantics the engine relies on in its records and structures.

Value records (fits, connections, distributions, tower nodes, construction
reports, catalog entries) are immutable tuples: equal fits compare and hash
equal, and a structure keeps one fit per tol.  A structure is equal only to itself,
so two structures with equal arrays keep separate caches, and the arrays a
structure keeps stay read-only.
"""

import importlib
import pkgutil

import pytest
from conftest import family

import kmgeom
from kmgeom.catalog import family_3d
from kmgeom.contact import NullityReport, nullity_fit
from kmgeom.legendre import eigendistributions
from kmgeom.tower import sasakian_structure, second_bilegendrian_analysis, sequence


def _records():
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    return {
        "NullityReport": fit,
        "AffineConnection": s.levi_civita(),
        "LegendreDistribution": eigendistributions(s)[0],
        "CatalogEntry": family_3d(1.0, 2.0),
        "TowerNode": sequence(s, 2)[1],
        "SasakianPackage": sasakian_structure(s),
        "SecondPairAnalysis": second_bilegendrian_analysis(s),
    }


def test_equal_fits_compare_and_hash_equal_and_share_a_cache_entry():
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    again = nullity_fit(family(1.0, 2.0))
    assert fit is not again and fit == again and hash(fit) == hash(again)
    assert NullityReport(*fit) == fit
    assert nullity_fit(s) is nullity_fit(s)


@pytest.mark.parametrize("name, record", list(_records().items()), ids=list(_records()))
def test_a_record_rejects_attribute_assignment(name, record):
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_structures_with_equal_arrays_are_distinct_keys():
    a, b = family(1.0, 2.0), family(1.0, 2.0)
    assert a != b and a == a
    assert {a: 1, b: 2} == {a: 1, b: 2} and len({a, b}) == 2
    nullity_fit(a)
    assert a._cache and not b._cache


def test_kept_arrays_stay_read_only():
    s = family(1.0, 2.0)
    kept = [s.phi, s.g, s.h, s.form.basis, s.levi_civita().gamma, s.nabla_phi()]
    for arr in kept:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_no_kmgeom_class_is_a_dataclass():
    for info in pkgutil.iter_modules(kmgeom.__path__):
        module = importlib.import_module(f"kmgeom.{info.name}")
        for obj in vars(module).values():
            assert not (isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")), obj
