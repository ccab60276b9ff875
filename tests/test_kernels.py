"""Whole-array tensor kernels against their pointwise references, and
non-finite honesty: a NaN anywhere in a residual must never read as a pass."""

import os
import subprocess
import sys

import numpy as np
import pytest

import kmgeom
from kmgeom.catalog import heisenberg_3d, nilpotent_h_5d
from kmgeom.contact import (
    ContactMetricStructure,
    blair_identity_suite,
    classification_flags,
    nijenhuis_norm,
    nullity_fit,
)
from kmgeom.legendre import involutivity_residual
from kmgeom.lie_model import LieModel
from kmgeom.paracontact import (
    ParacontactMetricStructure,
    canonical_pc_connection,
    integrability_and_parasasaki,
)
from kmgeom.riemann import (
    AffineConnection,
    connection_identity_suite,
    curvature,
    curvature_xi,
    levi_civita,
    nijenhuis_tensor,
    on_pairs,
)
from kmgeom.tower import canonical_paracontact

from conftest import CLASS_PARAMS, family, heisenberg_model, twisted_contact_3d

# Fixed before the array kernels replaced the basis-pair loops.
KERNEL_TOL = 1e-13


def changed_basis(s: ContactMetricStructure, seed: int) -> ContactMetricStructure:
    """The same structure in the basis P e_a, P a random well-conditioned matrix."""
    p = np.eye(s.dim) + 0.3 * np.random.default_rng(seed).standard_normal((s.dim, s.dim))
    p_inv = np.linalg.inv(p)
    c = np.einsum("ia,jb,ijk,lk->abl", p, p, s.model.c, p_inv)
    return ContactMetricStructure(
        model=LieModel(c=c), phi=p_inv @ s.phi @ p, xi=p_inv @ s.xi, eta=s.eta @ p, g=p.T @ s.g @ p
    )


def _tensors(s):
    """(model, phi, xi, eta, g, h, eps) of a contact (eps = +1) or paracontact (-1) structure."""
    if isinstance(s, ContactMetricStructure):
        return s.model, s.phi, s.xi, s.eta, s.g, s.h, 1.0
    return s.model, s.phi_t, s.xi, s.eta, s.g_t, s.h_t, -1.0


KERNEL_CASES = {
    **{f"family-{tag}": lambda p=p: family(*p) for tag, p in CLASS_PARAMS.items()},
    "heisenberg-3d": lambda: heisenberg_3d().structure,
    "nilpotent-h-5d": lambda: nilpotent_h_5d().structure,
    "heisenberg-11-contact": lambda: heisenberg_model(11),
    "heisenberg-11-paracontact": lambda: heisenberg_model(11, "paracontact"),
    "not-nullity": lambda: twisted_contact_3d(a=0.7, r=-1.3),
    "family-I-changed-basis": lambda: changed_basis(family(*CLASS_PARAMS["I"]), 1),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernels_match_pointwise_references(name):
    m, phi, xi, eta, g, h, eps = _tensors(KERNEL_CASES[name]())
    conn = levi_civita(m, g)
    e = np.eye(m.dim)
    deta = -0.5 * np.einsum("ijk,k->ij", m.c, eta)

    def nij(u, v):
        return (
            phi @ phi @ m.bracket(u, v)
            + m.bracket(phi @ u, phi @ v)
            - phi @ m.bracket(phi @ u, v)
            - phi @ m.bracket(u, phi @ v)
            + 2.0 * eps * (u @ deta @ v) * xi
        )

    def pairs(f):
        return np.array([[f(e[i], e[j], i, j) for j in range(m.dim)] for i in range(m.dim)])

    expected = {
        "curvature_xi": pairs(lambda x, y, i, j: curvature(m, conn, x, y, xi)),
        "nabla_endo_all(phi)": pairs(lambda x, y, i, j: conn.nabla_endo(i, phi) @ y),
        "nabla_endo_all(h)": pairs(lambda x, y, i, j: conn.nabla(x, h @ y) - h @ conn.nabla(x, y)),
        "nabla_bilinear_all(g)": np.array([conn.nabla_bilinear(i, g) for i in range(m.dim)]),
        "nijenhuis_tensor": pairs(lambda x, y, i, j: nij(x, y)),
        "on_pairs(c, phi, h)": pairs(lambda x, y, i, j: m.bracket(phi @ x, h @ y)),
    }
    got = {
        "curvature_xi": curvature_xi(m, conn, xi),
        "nabla_endo_all(phi)": conn.nabla_endo_all(phi),
        "nabla_endo_all(h)": conn.nabla_endo_all(h),
        "nabla_bilinear_all(g)": conn.nabla_bilinear_all(g),
        "nijenhuis_tensor": nijenhuis_tensor(m, phi, xi, eta, eps),
        "on_pairs(c, phi, h)": on_pairs(m.c, phi.T, h.T),
    }
    for kernel, want in expected.items():
        assert got[kernel].shape == want.shape, kernel
        assert np.max(np.abs(got[kernel] - want)) <= KERNEL_TOL, kernel


# ------------------------------------------------------------- non-finite input

# numpy warns when a determinant guard meets the NaN; the residuals are the test
nan_input = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


def _with_nan(a, index):
    a = np.array(a, dtype=float)
    a[index] = np.nan
    return a


def test_nan_connection_fails_metric_compatibility():
    s = family(1.0, 2.0)
    gamma = _with_nan(s.levi_civita().gamma, (1, 0, 0))
    rep = connection_identity_suite(s.model, AffineConnection(gamma=gamma), s.g)
    assert np.isnan(rep["metric_compatibility"])
    assert not rep.valid


def test_nan_phi_is_not_sasakian():
    s = heisenberg_model(3)
    fit = nullity_fit(s)
    assert classification_flags(s, fit)["sasakian"]
    bad = ContactMetricStructure(model=s.model, phi=_with_nan(s.phi, (0, 0)), xi=s.xi, eta=s.eta, g=s.g)
    nij, side = nijenhuis_norm(bad)
    assert np.isnan(nij)
    assert not side.valid
    assert not classification_flags(bad, fit)["sasakian"]


@nan_input
def test_nan_metric_fails_blair_identities():
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    g = _with_nan(s.g, (0, 1))
    bad = ContactMetricStructure(model=s.model, phi=s.phi, xi=s.xi, eta=s.eta, g=g)
    rep = blair_identity_suite(bad, fit.kappa, fit.mu)
    assert np.isnan(rep["nabla_phi_identity"])


@nan_input
def test_nan_metric_is_not_para_sasakian():
    s = heisenberg_model(3, "paracontact")
    assert integrability_and_parasasaki(s)["para_sasakian"]
    bad = ParacontactMetricStructure(
        model=s.model, phi_t=s.phi_t, xi=s.xi, eta=s.eta, g_t=_with_nan(s.g_t, (0, 0))
    )
    flags = integrability_and_parasasaki(bad)
    assert not flags["para_sasakian"]
    assert np.isnan(flags["para_sasaki_residual"])
    _, rep = canonical_pc_connection(bad)
    assert np.isnan(rep["phi_derivative_identity"])


def test_nan_vector_is_not_involutive():
    s = heisenberg_model(5)
    vectors = _with_nan(np.eye(5)[:2], (1, 0))
    assert np.isnan(involutivity_residual(s.model, s.eta, s.xi, vectors))


@nan_input
def test_nan_metric_fails_levi_civita_relation():
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    g = _with_nan(s.g, (0, 1))
    bad = ContactMetricStructure(model=s.model, phi=s.phi, xi=s.xi, eta=s.eta, g=g)
    _, checks = canonical_paracontact(bad, fit)
    assert np.isnan(checks["levi_civita_relation"])
    assert not checks.valid


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(kmgeom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kmgeom; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "False"
