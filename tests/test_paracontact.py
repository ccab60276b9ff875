"""Paracontact validation, h~ spectral types, nullity fit, canonical connection."""

import numpy as np
import pytest

from kmgeom import catalog
from kmgeom.contact import (
    ParacontactMetricStructure,
    canonical_connection,
    integrability_and_parasasaki,
    nijenhuis_norm,
    nullity_fit,
    validate_contact,
)
from kmgeom.errors import InternalInconsistency
from kmgeom.tower import sequence

from conftest import family
from reference import nabla_endo


def canonical(lam, d):
    return sequence(family(lam, d), 2)[1].structure


def test_validate_5d(model_5d):
    rep = validate_contact(model_5d.structure)
    assert rep.valid, rep.failures()
    assert rep.notes["paracontact_signature"].startswith("signature (3,2,0)")


def test_validate_rejects_flipped_pairing(model_5d):
    st = model_5d.structure
    g_bad = st.g.copy()
    g_bad[0, 2] = g_bad[2, 0] = -1.0
    bad = ParacontactMetricStructure(st.form, st.phi, g_bad)
    rep = validate_contact(bad)
    assert not rep.valid
    assert rep["deta_compatibility"] > 0.1


def test_validate_rejects_wrong_eigenrank():
    # phi~ with (phi~)^2 = I - eta (x) xi but a 2-dimensional +1 eigenspace
    st = catalog.heisenberg(3, "paracontact").structure
    bad = ParacontactMetricStructure(st.form, np.diag([1.0, 1.0, 0.0]), st.g)
    rep = validate_contact(bad)
    assert rep["plus_one_eigenrank"] >= 1.0
    assert rep["minus_one_eigenrank"] >= 1.0


def test_validate_canonical_family():
    rep = validate_contact(canonical(1.0, 0.0))
    assert rep.valid, rep.failures()


def test_h_tilde_5d_nilpotent(model_5d):
    st = model_5d.structure
    e = np.eye(5)
    image = st.h @ e[0]
    # h~ X1 is proportional to Y1 (value -2 Y1 under this engine's conventions)
    assert image[2] == pytest.approx(-2.0)
    off = image.copy()
    off[2] = 0.0
    assert np.allclose(off, 0.0)
    assert np.max(np.abs(st.h)) > 0.5
    assert np.max(np.abs(st.h @ st.h)) <= 1e-12


def test_h_tilde_zero_on_k_paracontact(heisenberg):
    assert np.max(np.abs(heisenberg.structure.h)) == 0.0


def test_h_tilde_eigenvalues_canonical_class_i():
    st = canonical(1.0, 2.0)
    vals = sorted(np.real(np.linalg.eigvals(st.h)))
    assert vals == pytest.approx([-np.sqrt(3), 0.0, np.sqrt(3)], abs=1e-9)


@pytest.mark.parametrize(
    "lam,d,expected_type,expected_s",
    [(1.0, 0.0, "complex_pair", -1.0), (1.0, 2.0, "real_pair", 3.0)],
)
def test_spectral_type_canonical(lam, d, expected_type, expected_s):
    fit = nullity_fit(canonical(lam, d))
    assert fit.spectral_type == expected_type
    assert fit.h_square_scalar == pytest.approx(expected_s, abs=1e-9)
    if expected_type == "real_pair":
        assert fit.lam == pytest.approx(np.sqrt(expected_s), abs=1e-9)


def test_h_square_scalar_5d(model_5d):
    # at tol 1e-12 the fit raises unless the residual of h~^2 = s phi~^2 is <= 1e-12
    fit = nullity_fit(model_5d.structure, tol=1e-12)
    assert fit.h_square_scalar == pytest.approx(0.0, abs=1e-12)


def _not_proportional():
    """H_3's paracontact tensors with h~ = diag(1, 0, 0) set in place of the h~ they
    give: h~^2 is not a multiple of phi~^2, while the curvature still fits the
    kappa~ = -1 form."""
    st = catalog.heisenberg(3, "paracontact").structure
    bad = ParacontactMetricStructure(st.form, st.phi, st.g)
    bad.h = np.diag([1.0, 0.0, 0.0])
    return bad, st


def test_fit_raises_when_h_square_is_not_proportional_to_phi_square():
    bad, _ = _not_proportional()
    with pytest.raises(InternalInconsistency,
                       match=r"^h~\^2 is not proportional to phi~\^2 \(residual 5\.000e-01\)$"):
        nullity_fit(bad)


def test_a_stack_member_keeps_its_inconsistency():
    bad, good = _not_proportional()
    fits = nullity_fit([bad, good])
    assert isinstance(fits[0], InternalInconsistency)
    assert str(fits[0]) == "h~^2 is not proportional to phi~^2 (residual 5.000e-01)"
    alone = catalog.heisenberg(3, "paracontact").structure
    assert fits[1] == nullity_fit(alone)
    assert fits[1].spectral_type == "zero"


def test_para_nullity_fit_5d(model_5d):
    fit = nullity_fit(model_5d.structure)
    assert fit.kappa == pytest.approx(-1.0, abs=1e-9)
    assert fit.residual <= 1e-9
    assert fit.spectral_type == "nilpotent"
    assert fit.h_square_vs_kappa_residual <= 1e-9
    assert fit.curvature_reflection_residual <= 1e-9


@pytest.mark.parametrize(
    "lam,d,kappa_t,stype",
    [(1.0, 0.0, -2.0, "complex_pair"), (1.0, 2.0, 2.0, "real_pair")],
)
def test_para_nullity_fit_canonical(lam, d, kappa_t, stype):
    fit = nullity_fit(canonical(lam, d))
    assert fit.kappa == pytest.approx(kappa_t, abs=1e-9)
    assert fit.mu == pytest.approx(2.0, abs=1e-9)
    assert fit.spectral_type == stype
    if stype == "real_pair":
        # lambda~^2 = 1 + kappa~
        assert fit.lam**2 == pytest.approx(1.0 + kappa_t, abs=1e-9)


def test_canonical_pc_connection_5d(model_5d):
    _, rep, _ = canonical_connection(model_5d.structure)
    assert rep.valid, rep.failures()


def test_canonical_pc_connection_parallelizes_integrable_phi():
    st = canonical(1.0, 2.0)
    conn, rep, _ = canonical_connection(st)
    assert rep.valid, rep.failures()
    worst = max(np.max(np.abs(nabla_endo(conn, i, st.phi))) for i in range(3))
    assert worst <= 1e-12


def test_pc_torsion_reduces_when_h_vanishes(heisenberg):
    st = heisenberg.structure
    conn, rep, _ = canonical_connection(st)
    assert rep.valid, rep.failures()
    tors = conn.torsion(st.model)
    basis = np.eye(3)
    for i in range(3):
        for j in range(3):
            expected = 2.0 * (basis[i] @ st.g @ (st.phi @ basis[j])) * st.xi
            actual = np.einsum("i,j,ijk->k", basis[i], basis[j], tors)
            assert np.allclose(actual, expected, atol=1e-12)


def test_integrability_5d(model_5d):
    flags = integrability_and_parasasaki(model_5d.structure)
    assert flags["integrable"]
    assert not flags["para_sasakian"]  # h~ != 0 rules out para-Sasakian


@pytest.mark.parametrize("lam,d", [(1.0, 0.0), (1.0, 2.0), (2.0, 1.0)])
def test_integrability_canonical_family(lam, d):
    flags = integrability_and_parasasaki(canonical(lam, d))
    assert flags["integrable"]


def test_heisenberg_is_para_sasakian(heisenberg):
    flags = integrability_and_parasasaki(heisenberg.structure)
    assert flags["para_sasakian"]
    assert flags["integrable"]
    # the curvature form the covariant condition forces: the kappa~ = -1 nullity form
    fit = nullity_fit(heisenberg.structure)
    assert fit.kappa == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual <= 1e-12


# paracontact nullity spaces with h~ != 0
H_TILDE_NONZERO = {
    "nilpotent-h-5d": lambda: catalog.nilpotent_h_5d().structure,
    "class-I-node-1": lambda: canonical(1.0, 2.0),
    "class-I-node-2": lambda: sequence(family(1.0, 2.0), 3)[2].structure,
    "class-II-node-1": lambda: canonical(1.0, 0.0),
}


@pytest.mark.parametrize("case", list(H_TILDE_NONZERO))
def test_nijenhuis_phi_shift_carries_the_sign(case):
    """phi~ N(X, Y) + N(phi~ X, Y) = 2 eps eta(X) h~ Y: read with eps = +1, the side
    identity failed on every paracontact nullity space with h~ != 0 (8.0 on
    nilpotent-h-5d, 12.0 and 6.93 on nodes 1 and 2 of family_3d(1, 2), 4.0 on node 1
    of family_3d(1, 0))."""
    s = H_TILDE_NONZERO[case]()
    assert s.eps < 0 and s.h.any()
    assert nijenhuis_norm(s)[1]["nijenhuis_phi_shift"] <= 1e-12
