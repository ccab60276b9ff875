"""Built-in fixtures: expected values and their provenance checks."""

import numpy as np
import pytest

from kmgeom.catalog import (
    broken_jacobi_3d,
    family_3d,
    get_entry,
    list_entries,
    nilpotent_h_5d,
    scaled_metric_invalid_3d,
    tangent_bundle_constants,
)
from kmgeom.contact import boeckx_invariant, nullity_fit, validate_contact
from kmgeom.errors import GeometryError, NonPositiveLambda
from kmgeom.lie_model import jacobi_residual

from conftest import GRID_DS, GRID_LAMBDAS


def test_family_grid_fit_matches_closed_form():
    for lam in GRID_LAMBDAS:
        for d in GRID_DS:
            entry = family_3d(lam, d)
            fit = nullity_fit(entry.structure)
            assert fit.kappa == pytest.approx(entry.expected["kappa"], abs=1e-8)
            assert fit.mu == pytest.approx(entry.expected["mu"], abs=1e-8)
            if fit.boeckx is not None:
                assert fit.boeckx == pytest.approx(entry.expected["boeckx"], abs=1e-8)
            assert fit.class_tag == entry.expected["class"]


def test_family_rejects_nonpositive_lambda():
    with pytest.raises(NonPositiveLambda):
        family_3d(0.0, 1.0)
    with pytest.raises(NonPositiveLambda):
        family_3d(-1.0, 0.0)


def test_nilpotent_5d_expectations():
    entry = nilpotent_h_5d()
    assert jacobi_residual(entry.model) <= 1e-12
    assert validate_contact(entry.structure).valid
    h = entry.structure.h
    assert np.max(np.abs(h)) > 0.5
    assert np.max(np.abs(h @ h)) <= 1e-12
    fit = nullity_fit(entry.structure)
    assert fit.kappa == pytest.approx(-1.0, abs=1e-9)
    assert fit.spectral_type == "nilpotent"


def test_heisenberg_expectations():
    entry = get_entry("heisenberg-3d")
    assert validate_contact(entry.structure).valid
    assert np.max(np.abs(entry.structure.h)) == 0.0
    fit = nullity_fit(entry.structure)
    # para-Sasakian: the kappa~ = -1 nullity form with h~ = 0
    assert fit.kappa == pytest.approx(-1.0, abs=1e-12)
    assert fit.mu is None
    assert fit.spectral_type == "zero"


@pytest.mark.parametrize(
    "c,expected",
    [(0.0, (0.0, 0.0, 1.0)), (-1.0, (-3.0, 2.0, 0.0)), (1.0, (1.0, -2.0, None))],
)
def test_tangent_bundle_constants(c, expected):
    kappa, mu, inv = tangent_bundle_constants(c)
    assert (kappa, mu) == pytest.approx(expected[:2])
    if expected[2] is None:
        assert inv is None
    else:
        assert inv == pytest.approx(expected[2])


def test_tangent_bundle_invariant_sign():
    # the invariant drops below 1 exactly for negative curvature
    for c in (-3.0, -0.5, -0.01):
        assert tangent_bundle_constants(c)[2] < 1.0
    for c in (0.5, 2.0, 10.0):
        assert tangent_bundle_constants(c)[2] > 1.0


def test_tangent_bundle_matches_boeckx_invariant():
    for c in np.linspace(-4.0, 6.0, 20):
        if abs(c - 1.0) < 1e-9:
            continue
        kappa, mu, inv = tangent_bundle_constants(float(c))
        assert boeckx_invariant(kappa, mu) == pytest.approx(inv, abs=1e-10)


def test_negative_fixtures():
    assert jacobi_residual(broken_jacobi_3d().model) > 0.1
    rep = validate_contact(scaled_metric_invalid_3d().structure)
    assert not rep.valid
    assert rep["deta_compatibility"] > 0.1


def test_get_entry_and_listing():
    names = list_entries()
    assert "nilpotent-h-5d" in names and "family-3d" in names
    entry = get_entry("family-3d-class-I")
    assert entry.expected["class"] == "I"
    entry = get_entry("family-3d", lam=2.0, d=1.0)
    assert entry.expected["kappa"] == pytest.approx(-3.0)
    with pytest.raises(KeyError):
        get_entry("nonexistent")
    # a missing (lambda, d) is an argument error, not the lambda <= 0 of NonPositiveLambda
    for pair in ({}, {"lam": 2.0}, {"d": 1.0}):
        with pytest.raises(TypeError, match="family-3d requires lam and d") as exc:
            get_entry("family-3d", **pair)
        assert not isinstance(exc.value, GeometryError)
    with pytest.raises(NonPositiveLambda, match="lambda must be positive, got 0.0"):
        get_entry("family-3d", lam=0.0, d=1.0)
