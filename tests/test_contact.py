"""Contact metric validation, h, Nijenhuis torsion, nullity fit, Boeckx invariant,
and the eps = +1 member of the canonical connection (generalized Tanaka-Webster)."""

import numpy as np
import pytest

from kmgeom.contact import (
    ContactMetricStructure,
    blair_identity_suite,
    boeckx_invariant,
    canonical_connection,
    classification_flags,
    integrability_and_parasasaki,
    nijenhuis_norm,
    nullity_fit,
    validate_contact,
)
from kmgeom.catalog import STANDARD_FAMILY_PARAMS, family_3d, heisenberg, nilpotent_h_5d
from kmgeom.report import max_abs
from kmgeom.errors import NotNullity, SasakianDegenerate
from kmgeom.tower import sequence

from conftest import CLASS_PARAMS, family, twisted_contact_3d
from reference import nabla_endo


def test_validate_family_class_ii():
    rep = validate_contact(family(1.0, 0.0))
    assert rep.valid
    assert rep.worst[1] <= 1e-12


def test_validate_rejects_scaled_metric():
    s = family(1.0, 0.0)
    bad = ContactMetricStructure(s.form, s.phi, 2.0 * s.g)
    rep = validate_contact(bad)
    assert not rep.valid
    # compatibility with d eta is scale-breaking
    assert rep["deta_compatibility"] > 0.1


def test_validate_rejects_paracontact_tensors(model_5d):
    st = model_5d.structure
    fake = ContactMetricStructure(st.form, st.phi, st.g)
    rep = validate_contact(fake)
    assert rep["phi_square"] > 1.0  # phi~^2 has the opposite sign


def test_h_eigenstructure_family():
    e = np.eye(3)
    s = family(1.0, 0.0)
    assert np.allclose(s.h @ e[0], e[0])
    assert np.allclose(s.h @ e[1], -e[1])
    assert np.allclose(s.h @ e[2], 0.0)
    s21 = family(2.0, 1.0)
    assert sorted(np.linalg.eigvalsh(s21.h)) == pytest.approx([-2.0, 0.0, 2.0])


def test_h_vanishes_on_sasakian_fixture(sasakian_fixture):
    assert np.max(np.abs(sasakian_fixture.h)) <= 1e-12


def test_nijenhuis_norm():
    worst, side = nijenhuis_norm(family(1.0, 0.0))
    assert worst > 0.1  # kappa < 1 forces nonvanishing torsion
    assert side.valid, side.failures()


def test_nijenhuis_vanishes_on_sasakian_fixture(sasakian_fixture):
    worst, side = nijenhuis_norm(sasakian_fixture)
    assert worst <= 1e-9
    assert side.valid


@pytest.mark.parametrize(
    "lam,d,kappa,mu",
    [(1.0, 0.0, 0.0, 2.0), (1.0, 2.0, 0.0, -2.0), (2.0, 1.0, -3.0, 0.0)],
)
def test_nullity_fit_family(lam, d, kappa, mu):
    fit = nullity_fit(family(lam, d))
    assert fit.kappa == pytest.approx(kappa, abs=1e-9)
    assert fit.mu == pytest.approx(mu, abs=1e-9)
    assert fit.residual <= 1e-9
    assert fit.lam == pytest.approx(np.sqrt(1 - kappa))


def test_nullity_fit_sasakian(sasakian_fixture):
    fit = nullity_fit(sasakian_fixture)
    assert fit.kappa == pytest.approx(1.0, abs=1e-9)
    assert fit.mu is None
    assert fit.boeckx is None
    assert fit.class_tag == "Sasakian"


@pytest.mark.xfail(strict=True, reason=(
    "the kappa band and the h = 0 band disagree near lambda = 0: the fit of family_3d(1e-5, 0) "
    "reads class Sasakian (kappa = 1 - 1e-10) with mu = 2.0000000000019997 and k_contact False "
    "(|h| = 1e-5); ROADMAP item 13"))
def test_a_sasakian_class_has_an_indeterminate_mu_near_lambda_zero():
    s = family(1e-5, 0.0)
    fit = nullity_fit(s)
    assert fit.class_tag != "Sasakian" or (fit.mu is None and classification_flags(s)["k_contact"])


def test_nullity_fit_rejects_twisted_structure():
    s = twisted_contact_3d()
    assert validate_contact(s).valid  # genuinely contact metric ...
    with pytest.raises(NotNullity):  # ... but not a nullity space
        nullity_fit(s)


def test_boeckx_invariant_values():
    c = 4.0
    assert boeckx_invariant(c * (2 - c), -2 * c) == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert boeckx_invariant(0.0, 2.0) == 0.0
    with pytest.raises(SasakianDegenerate):
        boeckx_invariant(1.0, 0.0)


def test_boeckx_invariant_names_the_sasakian_band():
    """kappa = 1 - 1e-10 is below 1: the message names the band it is in."""
    with pytest.raises(SasakianDegenerate) as exc:
        boeckx_invariant(1.0 - 1e-10, 2.0)
    assert str(exc.value) == ("Boeckx invariant undefined in the Sasakian band "
                              "(kappa >= 1 - tol), kappa = 0.9999999999")


@pytest.mark.parametrize("lam,d", [(1.0, 0.0), (2.0, 1.0)])
def test_blair_identities_family(lam, d):
    s = family(lam, d)
    rep = blair_identity_suite(s)
    assert rep.valid, rep.failures()


def test_blair_identities_sasakian_specialization(sasakian_fixture):
    s = sasakian_fixture
    # with h = 0 the first identity reduces to (nabla_X phi) Y = g(X,Y) xi - eta(Y) X;
    # the suite runs at the fit's kappa = 1, with the indeterminate mu read as 0
    fit = nullity_fit(s)
    assert fit.mu is None and fit.kappa == pytest.approx(1.0, abs=1e-12)
    rep = blair_identity_suite(s)
    assert rep.valid, rep.failures()
    conn = s.levi_civita()
    worst = 0.0
    basis = np.eye(s.dim)
    for i in range(s.dim):
        d_phi = nabla_endo(conn, i, s.phi)
        for j in range(s.dim):
            rhs = (basis[i] @ s.g @ basis[j]) * s.xi - s.eta[j] * basis[i]
            worst = max(worst, np.max(np.abs(d_phi @ basis[j] - rhs)))
    assert worst <= 1e-9


def _suite_cases():
    """(name, structure) of paracontact and derived structures: tower nodes 1 and 2
    of each class (no node 2 at |I_M| = 1) and three paracontact models."""
    for cls, (lam, d) in CLASS_PARAMS.items():
        nodes = sequence(family(lam, d), 2 if cls in ("IV", "V") else 3)
        yield f"class-{cls}-node-1", nodes[1].structure
        if cls not in ("IV", "V"):
            yield f"class-{cls}-node-2", nodes[2].structure
    yield "heisenberg-5-paracontact", heisenberg(5, "paracontact").structure
    yield "heisenberg-3d", heisenberg(3, "paracontact").structure
    yield "nilpotent-h-5d", nilpotent_h_5d().structure


SUITE_CASES = dict(_suite_cases())


@pytest.mark.parametrize("name", SUITE_CASES)
def test_blair_identities_both_signs(name):
    # the eps-signed suite holds on contact (class II node 2) and paracontact
    # (kappa, mu)-spaces alike; mu is indeterminate, and read as 0, where h = 0
    rep = blair_identity_suite(SUITE_CASES[name])
    assert rep.valid, rep.failures()


def test_classification_flags():
    s = family(1.0, 0.0)
    flags = classification_flags(s)
    assert flags == {"sasakian": False, "k_contact": False, "tw_parallel": True}
    s = family(1.0, 2.0)
    flags = classification_flags(s)
    assert not flags["tw_parallel"]  # mu = -2


def test_classification_flags_sasakian(sasakian_fixture):
    flags = classification_flags(sasakian_fixture)
    assert flags["sasakian"] and flags["k_contact"] and not flags["tw_parallel"]


# contact (kappa, mu)-spaces: the five class points and the Sasakian H_d
TW_CASES = {**{name: family_3d(*p).structure for name, p in STANDARD_FAMILY_PARAMS.items()},
            **{f"heisenberg-{dim}-contact": heisenberg(dim).structure for dim in (5, 11, 21)}}


@pytest.mark.parametrize("name", TW_CASES)
def test_canonical_connection_contact(name):
    # the eps = +1 member is Tanno's generalized Tanaka-Webster connection: parallel
    # eta, xi and g, the phi-derivative shift and the torsion closed form all hold
    _, rep, _ = canonical_connection(TW_CASES[name])
    assert rep.entries and all(v <= 1e-12 for v in rep.entries.values()), rep.entries


@pytest.mark.parametrize("name", TW_CASES)
def test_contact_nullity_spaces_are_cr_integrable(name):
    # both criteria read 0 (measured 0.0 on every case), so they agree and nothing raises
    flags = integrability_and_parasasaki(TW_CASES[name])
    assert flags["integrable"]
    assert flags["nijenhuis_d_residual"] <= 1e-12
    assert flags["pc_parallel_phi_residual"] <= 1e-12


def test_h_zero_closed_form_is_the_sasakian_one():
    assert integrability_and_parasasaki(heisenberg(5).structure)["para_sasakian"]
    for p in STANDARD_FAMILY_PARAMS.values():
        assert not integrability_and_parasasaki(family_3d(*p).structure)["para_sasakian"]


@pytest.mark.parametrize("lam,d,expected", [
    (1.0, 0.0, 0.0), (0.5, 0.0, 0.0),  # mu = 2
    (1.0, 2.0, 4.0), (0.7, 0.3, 0.42), (1.3, -0.2, 0.52),  # lambda |2 - mu|
])
def test_tanaka_webster_derivative_of_h(lam, d, expected):
    # |nabla* h| in the catalog basis vanishes exactly at mu = 2 and scales with lambda
    s = family_3d(lam, d).structure
    conn, _, _ = canonical_connection(s)
    assert max_abs(conn.nabla_endo_all(s.h)) == pytest.approx(expected, abs=1e-12)
