"""Structure-constant substrate: the reference bracket, Jacobi, d of one-forms, Lie derivatives and
the contact form (M, eta, xi)."""

import numpy as np
import pytest

from kmgeom.errors import DimensionMismatch
from kmgeom.lie_model import (
    ContactForm,
    LieModel,
    d_one_form,
    jacobi_residual,
    lie_derivative_endo,
)

from conftest import family
from reference import bracket

E5 = np.eye(5)
E3 = np.eye(3)


def abelian(dim=3):
    return LieModel(c=np.zeros((dim, dim, dim)))


def test_bracket_5d_x1_x2(model_5d):
    # [X1, X2] = 2 X2 in the 5-dim fixture
    m = model_5d.model
    assert np.allclose(bracket(m, E5[0], E5[1]), 2.0 * E5[1])
    assert np.allclose(bracket(m, E5[1], E5[0]), -2.0 * E5[1])


def test_bracket_vanishes_on_equal_arguments(model_5d):
    m = model_5d.model
    v = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    assert np.allclose(bracket(m, v, v), 0.0)


def test_bracket_family_x_y():
    s = family(1.0, 0.0)
    assert np.allclose(bracket(s.model, E3[0], E3[1]), 2.0 * E3[2])


def test_bracket_dimension_mismatch(model_5d):
    with pytest.raises(DimensionMismatch):
        bracket(model_5d.model, np.ones(3), np.ones(5))


def test_antisymmetry_enforced_at_construction():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the (1, 0) counterpart
    with pytest.raises(DimensionMismatch):
        LieModel(c=c)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_constants_rejected_at_construction(dim, value):
    # at dim 2 there is no Jacobi triple, so a NaN must not reach jacobi_residual
    c = np.zeros((dim, dim, dim))
    c[0, 1, 1], c[1, 0, 1] = value, -value
    with pytest.raises(DimensionMismatch):
        LieModel(c=c)


@pytest.mark.parametrize("lam,d", [(1, 0), (1, 2), (2, 1), (0.5, -2), (3, 3)])
def test_jacobi_family(lam, d):
    assert jacobi_residual(family(lam, d).model) <= 1e-12


def test_jacobi_5d(model_5d):
    assert jacobi_residual(model_5d.model) <= 1e-12


def test_jacobi_abelian():
    assert jacobi_residual(abelian()) == 0.0


def test_jacobi_detects_violation():
    c = np.zeros((3, 3, 3))

    def setb(i, j, k, v):
        c[i, j, k] = v
        c[j, i, k] = -v

    setb(0, 1, 2, 2.0)
    setb(1, 2, 0, 1.0)
    setb(2, 0, 0, 1.0)
    assert jacobi_residual(LieModel(c=c)) > 0.1


def test_d_one_form_5d(model_5d):
    m = model_5d.model
    eta = E5[4]
    deta = d_one_form(m, eta)
    # d eta(X1, Y1) = -eta([X1, Y1])/2 = -eta(2 xi)/2 = -1
    assert deta[0, 2] == pytest.approx(-1.0)
    # d eta(xi, X1) = -eta([xi, X1])/2 = -eta(-2 Y1)/2 = 0
    assert deta[4, 0] == 0.0
    assert np.allclose(deta, -deta.T)


def test_d_one_form_abelian():
    assert np.allclose(d_one_form(abelian(), np.array([1.0, 2.0, 3.0])), 0.0)


def test_lie_derivative_of_identity_vanishes(model_5d):
    form = ContactForm(model_5d.model, np.array([0.3, -1.0, 2.0, 0.0, 1.0]), E5[4])
    assert np.allclose(lie_derivative_endo(form, np.eye(5)), 0.0)


def test_lie_derivative_5d_structure_tensor(model_5d):
    s = model_5d.structure
    lphi = lie_derivative_endo(s.form, s.phi)
    # (L_xi phi~) X1 is proportional to Y1 (here -4 Y1), and (L_xi phi~) Y1 = 0
    image = lphi @ E5[0]
    assert abs(image[2]) > 0.5
    off = image.copy()
    off[2] = 0.0
    assert np.allclose(off, 0.0)
    assert np.allclose(lphi @ E5[2], 0.0)


def test_lie_derivative_family_gives_twice_h():
    s = family(1.0, 0.0)
    lphi = lie_derivative_endo(s.form, s.phi)
    assert np.allclose(lphi, 2.0 * s.h)
    assert np.allclose(s.h @ E3[0], E3[0])  # h X = X at lambda = 1



def test_contact_form_keeps_what_eta_and_xi_determine(model_5d):
    """d eta, ad xi, an orthonormal basis of ker(eta) and the projector along xi,
    computed once on construction and read-only."""
    s = model_5d.structure
    form = s.form
    np.testing.assert_array_equal(form.d_eta, d_one_form(s.model, s.eta))
    np.testing.assert_array_equal(form.ad_xi, s.model.ad(s.xi))
    assert form.basis.shape == (4, 5)
    np.testing.assert_allclose(form.basis @ form.basis.T, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(form.basis @ s.eta, 0.0, atol=1e-15)
    np.testing.assert_array_equal(form.projector, np.eye(5) - np.outer(s.xi, s.eta))
    for a in (form.xi, form.eta, form.d_eta, form.ad_xi, form.basis, form.projector):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(ValueError):  # nor can the array a view looks into be written
        form.basis.base[0, 0] = 1.0


def test_contact_form_copies_its_input():
    xi = E3[2].copy()
    form = ContactForm(abelian(), xi, xi)
    xi[0] = 5.0
    assert form.xi[0] == form.eta[0] == 0.0 and xi.flags.writeable
