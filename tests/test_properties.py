"""Property-based and grid invariants: algebraic laws of the substrate and
exactness of the nullity machinery across the parameter family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmgeom.catalog import heisenberg, nilpotent_h_5d
from kmgeom.contact import nullity_fit
from kmgeom.legendre import classify_class, eigendistributions
from kmgeom.lie_model import ContactForm, LieModel, d_one_form, lie_derivative_endo

from conftest import GRID_DS, GRID_LAMBDAS, family
from reference import bracket

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def random_model(raw: np.ndarray) -> LieModel:
    return LieModel(c=raw - raw.transpose(1, 0, 2))


@settings(max_examples=100, deadline=None)
@given(
    raw=arrays(np.float64, (4, 4, 4), elements=finite),
    u=arrays(np.float64, (4,), elements=finite),
    v=arrays(np.float64, (4,), elements=finite),
    w=arrays(np.float64, (4,), elements=finite),
    a=finite,
)
def test_bracket_bilinear_antisymmetric(raw, u, v, w, a):
    m = random_model(raw)
    assert np.allclose(bracket(m, u, v), -bracket(m, v, u), atol=1e-8)
    assert np.allclose(
        bracket(m, a * u + w, v),
        a * bracket(m, u, v) + bracket(m, w, v),
        atol=1e-6,
    )


@settings(max_examples=50, deadline=None)
@given(
    raw=arrays(np.float64, (3, 3, 3), elements=finite),
    s_mat=arrays(np.float64, (3, 3), elements=finite),
    t_mat=arrays(np.float64, (3, 3), elements=finite),
    xi=arrays(np.float64, (3,), elements=finite),
)
def test_lie_derivative_is_a_derivation_of_composition(raw, s_mat, t_mat, xi):
    form = ContactForm(random_model(raw), xi, np.eye(3)[2])
    lhs = lie_derivative_endo(form, s_mat @ t_mat)
    rhs = lie_derivative_endo(form, s_mat) @ t_mat + s_mat @ lie_derivative_endo(form, t_mat)
    assert np.allclose(lhs, rhs, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    raw=arrays(np.float64, (3, 3, 3), elements=finite),
    eta=arrays(np.float64, (3,), elements=finite),
)
def test_d_one_form_antisymmetric(raw, eta):
    deta = d_one_form(random_model(raw), eta)
    assert np.allclose(deta, -deta.T, atol=1e-9)


def _catalog_contact_structures():
    return [family(lam, d) for lam in (0.5, 1.0, 2.0) for d in (-2.0, 0.0, 1.0, 2.0)]


def test_reeb_contractions_exact_on_catalog_models():
    # structure constants are exact floats: i_xi d eta = 0 and eta(xi) = 1 hold exactly
    structures = _catalog_contact_structures()
    structures.append(nilpotent_h_5d().structure)
    structures.append(heisenberg(3, "paracontact").structure)
    for s in structures:
        assert np.all(s.form.d_eta @ s.xi == 0.0)
        assert float(s.eta @ s.xi) == 1.0


def test_nullity_fit_exact_on_grid():
    for lam in GRID_LAMBDAS:
        for d in GRID_DS:
            fit = nullity_fit(family(lam, d))
            assert abs(fit.kappa - (1 - lam**2)) <= 1e-8
            assert abs(fit.mu - (2 - 2 * d)) <= 1e-8


def test_classification_consistent_on_grid():
    # Pang-based and invariant-based class tags agree everywhere, boundaries included
    for lam in GRID_LAMBDAS:
        for d in list(GRID_DS) + [lam, -lam]:
            s = family(lam, d)
            fit = nullity_fit(s)
            assert classify_class(s) == fit.class_tag


def test_eigendistributions_orthogonal_on_grid():
    for lam in (0.5, 1.5, 3.0):
        for d in (-1.0, 0.5, 2.0):
            s = family(lam, d)
            d_pos, d_neg = eigendistributions(s)
            cross = d_pos.vectors @ s.g @ d_neg.vectors.T
            assert np.max(np.abs(cross)) <= 1e-9
            for ld in (d_pos, d_neg):
                gram = ld.vectors @ s.g @ ld.vectors.T
                assert np.allclose(gram, np.eye(s.n), atol=1e-9)


@pytest.mark.parametrize("lam,d", [(1.0, 0.5), (2.0, -1.0)])
def test_nullity_report_internal_consistency(lam, d):
    fit = nullity_fit(family(lam, d))
    assert fit.lam**2 + fit.kappa == pytest.approx(1.0, abs=1e-12)
    assert fit.boeckx == pytest.approx((1 - fit.mu / 2) / fit.lam, abs=1e-12)
