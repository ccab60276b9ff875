"""Legendre distributions, Pang forms, Libermann maps, the induced paracontact
structure and the bi-Legendrian connection.

The Legendre functions take one basis: each distribution of a bi-Legendrian pair is
validated by a call of its own, and the pair raises its first failure in the order
(+lambda, -lambda)."""

import re
import warnings

import numpy as np
import pytest

from kmgeom import DEFAULT_TOL, legendre
from kmgeom.catalog import family_3d, heisenberg, rebased
from kmgeom.contact import ContactMetricStructure, canonical_connection, nullity_fit
from kmgeom.errors import (
    ClassificationMismatch,
    DegeneratePang,
    DimensionMismatch,
    InvalidPangPair,
    NotIntegrable,
    NotTransversal,
    SasakianDegenerate,
)
from kmgeom.legendre import (
    LegendreDistribution,
    bilegendrian_connection,
    classify_class,
    eigendistributions,
    involutivity_residual,
    legendre_distribution,
    legendre_pair_constants,
    libermann_map,
)
from kmgeom.lie_model import ContactForm, LieModel
from kmgeom.tower import second_bilegendrian_analysis, sequence

from conftest import CLASS_PARAMS, _random_basis, family
from reference import bracket

E3 = np.eye(3)


def test_eigendistributions_family_class_ii():
    s = family(1.0, 0.0)
    d_pos, d_neg = eigendistributions(s)
    assert np.allclose(np.abs(d_pos.vectors), [[1.0, 0.0, 0.0]])
    assert np.allclose(np.abs(d_neg.vectors), [[0.0, 1.0, 0.0]])


def test_eigendistribution_eigenvalues_lambda_two():
    s = family(2.0, 1.0)
    d_pos, d_neg = eigendistributions(s)
    for v in d_pos.vectors:
        assert np.allclose(s.h @ v, 2.0 * v)
    for v in d_neg.vectors:
        assert np.allclose(s.h @ v, -2.0 * v)


def test_eigendistributions_reject_sasakian(sasakian_fixture):
    fit = nullity_fit(sasakian_fixture)
    with pytest.raises(SasakianDegenerate):
        eigendistributions(sasakian_fixture)


@pytest.mark.parametrize(
    "lam,d,coeff_pos,coeff_neg",
    [
        (1.0, 2.0, 6.0, 2.0),    # 2 lam - mu + 2 and -2 lam - mu + 2, mu = -2
        (1.0, 1.0, 4.0, 0.0),    # class IV boundary: negative side flat
        (1.0, 0.0, 2.0, -2.0),
    ],
)
def test_pang_closed_form_values(lam, d, coeff_pos, coeff_neg):
    s = family(lam, d)
    d_pos, d_neg = eigendistributions(s)
    g_pos = d_pos.vectors @ s.g @ d_pos.vectors.T
    g_neg = d_neg.vectors @ s.g @ d_neg.vectors.T
    assert np.allclose(d_pos.pang, coeff_pos * g_pos, atol=1e-9)
    assert np.allclose(d_neg.pang, coeff_neg * g_neg, atol=1e-9)


@pytest.mark.parametrize("tag,params", sorted(CLASS_PARAMS.items()))
def test_classify_all_five_classes(tag, params):
    s = family(*params)
    fit = nullity_fit(s)
    assert classify_class(s) == tag == fit.class_tag


@pytest.mark.parametrize("tag,params",
                         [*sorted(CLASS_PARAMS.items()), ("I", (1.0, 1.0 + 1.5e-9))])
def test_definiteness_reads_the_kept_pang_eigenvalues(tag, params):
    """The definiteness of each eigendistribution, read from the eigenvalues its Legendre
    validation kept, is the one a second eigvalsh of pi + pi^T, in units of 4 lambda,
    gives: the two rescalings differ by powers of two, so the values agree bitwise.  At
    I_M - 1 = 1.5e-9, D(-lambda) reads 1.5e-9 in units of 2 lambda, positive at tol 1e-9
    and flat in any other unit twice as large."""
    s = family(*params)
    lam = nullity_fit(s).lam
    for ld in eigendistributions(s):
        eig = np.linalg.eigvalsh(ld.pang + ld.pang.T) / (4.0 * lam)
        assert np.array_equal(ld.pang_eig / (2.0 * lam), eig)
        assert ld.definiteness == legendre._definiteness(eig, DEFAULT_TOL)


def test_classify_mismatch_detection(monkeypatch):
    s = family(1.0, 0.0)
    fit = nullity_fit(s)
    wrong = type(fit)(
        kappa=fit.kappa, mu=fit.mu, residual=fit.residual,
        lam=fit.lam, boeckx=fit.boeckx, class_tag="I",
    )
    monkeypatch.setattr(legendre, "nullity_fit", lambda *args: wrong)
    with pytest.raises(ClassificationMismatch):
        classify_class(s)


def test_libermann_closed_form_second_pair():
    # for the h~ eigenpair of a class-I space, Lambda on the opposite
    # eigendistribution is h~_1 / (2 lambda~^2); here lambda~^2 = 3
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    ana = second_bilegendrian_analysis(s)
    node = sequence(s, 3)[2]
    lam_map = libermann_map(s, ana.d_plus, ana.d_minus)
    h_t1 = node.structure.h
    proj_minus = ana.d_minus.span_projector()
    assert np.allclose(lam_map @ proj_minus, (h_t1 / 6.0) @ proj_minus, atol=1e-9)
    # kernel convention and the defining properties
    assert np.allclose(lam_map @ s.xi, 0.0)
    assert np.max(np.abs(lam_map @ lam_map)) <= 1e-9
    for v in ana.d_plus.vectors:
        assert np.allclose(lam_map @ bracket(s.model, s.xi, v), 0.5 * v, atol=1e-9)


def test_libermann_rejects_flat_pang():
    s = family(1.0, 1.0)  # class IV: the negative eigendistribution is flat
    d_pos, d_neg = eigendistributions(s)
    with pytest.raises(DegeneratePang):
        libermann_map(s, d_neg, d_pos)


def _conjugate(s, ld):
    """phi L, built as a Legendre distribution of its own (which validates it), and
    max|g(L, phi L)|."""
    vectors = ld.vectors @ s.phi.T
    return legendre_distribution(s.form, vectors), np.max(np.abs(ld.vectors @ s.g @ vectors.T))


@pytest.mark.parametrize("lam,d", [*CLASS_PARAMS.values(), (0.7, 0.3)])
def test_phi_maps_each_eigendistribution_orthogonally_onto_the_other(lam, d):
    # in the bi-Legendrian structure of a (kappa, mu)-space, phi D(lambda) = D(-lambda),
    # g-orthogonal to D(lambda); phi^2 = -I on the contact distribution maps it back
    s = family(lam, d)
    d_pos, d_neg = eigendistributions(s)
    for ld, other in ((d_pos, d_neg), (d_neg, d_pos)):
        q, ortho = _conjugate(s, ld)
        assert ortho <= 1e-12
        assert np.allclose(q.span_projector(), other.span_projector(), atol=1e-12)
        back, _ = _conjugate(s, q)
        assert np.allclose(back.span_projector(), ld.span_projector(), atol=1e-12)


@pytest.mark.parametrize("lam,d", [*CLASS_PARAMS.values(), (0.7, 0.3), (2.0, 1.0), (0.5, -2.0)])
def test_psi_image_is_canonical_paracontact(lam, d):
    # the eigenpair induces h / lambda, and its bi-Legendrian connection is the
    # canonical connection of tower node 1
    s = family(lam, d)
    conn, rep = bilegendrian_connection(s)
    assert rep["induced_is_canonical"] <= 1e-9
    assert rep["induced_integrable"] <= 1e-9
    assert rep.valid, rep.failures()
    node1 = sequence(s, 2)[1].structure
    assert np.max(np.abs(conn.gamma - canonical_connection(node1)[0].gamma)) <= 1e-9


def test_bilegendrian_connection_rejects_sasakian():
    with pytest.raises(SasakianDegenerate):
        bilegendrian_connection(heisenberg(5).structure)


def test_bilegendrian_connection_parallelism():
    _, rep = bilegendrian_connection(family(1.0, 0.0))
    assert rep.valid, rep.failures()
    for key in ("parallel_g", "parallel_phi", "parallel_h"):
        assert rep[key] <= 1e-9


def test_bilegendrian_pang_parallel_class_i():
    _, rep = bilegendrian_connection(family(1.0, 2.0))
    assert rep["parallel_pang_l1"] <= 1e-9
    assert rep["parallel_pang_l2"] <= 1e-9
    assert rep["torsion_mixed_pair"] <= 1e-9


def test_legendre_pair_constants():
    assert legendre_pair_constants(2.0, 6.0) == (0.0, -2.0)
    assert legendre_pair_constants(4.0, 4.0) == (1.0, -2.0)  # a = b: the Sasakian member
    # the constants alone: whether a pair is Sasakian (a = b) is the caller's to read
    assert legendre_pair_constants(1e-16, 2e-16) == (1.0, 2.0 - 1.5e-16)
    kappa, mu = legendre_pair_constants(8.0, 2.0)
    assert kappa == pytest.approx(-1.25)
    assert mu == pytest.approx(-3.0)
    beyond = [(1e200, 1e-200), (-1e200, 1e200), (1e308, 1e308), np.array([1e200, 1e-200])]
    for a, b in beyond:  # numpy floats too, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPangPair, match=r"beyond the float range$"):
                legendre_pair_constants(a, b)
    # kappa = 1 and a finite mu: only the paracontact kappa they regenerate overflows
    assert legendre_pair_constants(1e155, 1e155) == (1.0, 2.0 - 1e155)


def test_legendre_distribution_rejects_non_isotropic_basis(model_5d):
    # span{X1, Y1} pairs nontrivially under d eta
    e = np.eye(5)
    with pytest.raises(NotTransversal):
        legendre_distribution(model_5d.structure.form, np.vstack([e[0], e[2]]))


@pytest.mark.parametrize("dim", [3, 5])
def test_nan_xi_gives_a_degenerate_pang_form(dim):
    """A NaN xi never forms a Pang form: its contact form, which every Legendre
    function takes, rejects it at the door with DimensionMismatch, not DegeneratePang,
    the label "flat" (n = 1), a LAPACK error or a warning."""
    s = family(1.0, 2.0) if dim == 3 else heisenberg(dim).structure
    xi = s.xi.copy()
    xi[0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="structure tensors must be finite"):
            ContactForm(s.model, xi, s.eta)


def test_eigendistributions_name_the_sasakian_band():
    """The fit of family_3d(1e-5, 2e-5) reads kappa = 0.9999999998999999, below 1 but
    in the Sasakian band: the message of the one non-Sasakian guard names the band, not
    kappa >= 1."""
    s = family(1e-5, 2e-5)
    with pytest.raises(SasakianDegenerate) as exc:
        eigendistributions(s)
    assert str(exc.value) == (
        "construction requires a non-Sasakian structure: the fit puts this one in the Sasakian "
        "band (kappa >= 1 - tol, or mu indeterminate), kappa = 0.9999999999")


def test_libermann_map_rejects_a_nan_pang_form_without_a_warning():
    s = family(1.0, 2.0)
    d_pos, d_neg = eigendistributions(s)
    nan_form = LegendreDistribution(d_pos.vectors, np.full((1, 1), np.nan), "flat", np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePang, match="singular"):
            libermann_map(s, nan_form, d_neg)


# ------------------------------------------------- one basis per call, one call per distribution


def _assert_validates_alone(s, ld):
    """``ld``'s basis, validated by a call of its own, gives ``ld``'s Pang data and an
    involutive span."""
    alone = legendre_distribution(s.form, ld.vectors)
    np.testing.assert_allclose(alone.vectors, ld.vectors, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(alone.pang, ld.pang, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(alone.pang_eig, ld.pang_eig, rtol=0.0, atol=1e-12)
    residual = involutivity_residual(s.form, ld.vectors)
    assert isinstance(residual, float) and residual <= DEFAULT_TOL
    return alone, residual


@pytest.mark.parametrize("seed, cls", enumerate(sorted(CLASS_PARAMS)))
def test_eigenpair_bases_validate_alone_in_any_basis(seed, cls):
    """The +-lambda pair of each class, in the model basis and in two bases of
    condition 10: each distribution validates alone, and the pair reads the class."""
    entry = family_3d(*CLASS_PARAMS[cls])
    rng = np.random.default_rng(seed)
    for t in [entry.structure] + [rebased(entry, _random_basis(rng, 3, 10.0)).structure
                                  for _ in range(2)]:
        pair = eigendistributions(t)
        for ld in pair:
            _assert_validates_alone(t, ld)
        assert legendre._CLASS_BY_PATTERN[tuple(ld.definiteness for ld in pair)] == cls


@pytest.mark.parametrize("cls", ["I", "III"])
def test_second_pair_bases_validate_alone(cls):
    s = family(*CLASS_PARAMS[cls])
    analysis = second_bilegendrian_analysis(s)
    for name, ld in (("plus", analysis.d_plus), ("minus", analysis.d_minus)):
        alone, residual = _assert_validates_alone(s, ld)
        assert alone.definiteness == ld.definiteness
        assert residual == analysis.checks[f"{name}_involutive"]


@pytest.mark.parametrize("n", [2, 5, 20])
def test_heisenberg_pair_in_a_shuffled_basis(n):
    """(span{X_i}, span{Y_i}) of H_{2n+1}, with the model basis and the order of
    each distribution's vectors shuffled."""
    rng = np.random.default_rng(n)
    dim = 2 * n + 1
    h, sigma = heisenberg(dim).structure, rng.permutation(dim)  # the basis f_a = e_sigma(a)
    form = ContactForm(LieModel(c=h.model.c[np.ix_(sigma, sigma, sigma)]), h.xi[sigma], h.eta[sigma])
    s = ContactMetricStructure(form, h.phi[np.ix_(sigma, sigma)], h.g[np.ix_(sigma, sigma)])
    e = np.eye(dim)[sigma].T  # row k: e_k in the f_a
    xs, ys = e[:n], e[n : 2 * n]
    for basis in (xs[rng.permutation(n)], ys[rng.permutation(n)]):
        assert legendre_distribution(s.form, basis).definiteness == "flat"  # xi central
        assert involutivity_residual(s.form, basis) == 0.0
    # a mixed span is not isotropic: d eta(X_1, Y_1) = -1
    mixed = np.vstack([xs[:1], ys[:1], xs[2:]])
    with pytest.raises(NotTransversal, match="d eta does not vanish"):
        legendre_distribution(s.form, mixed)


def test_each_bad_basis_raises_its_own_message():
    """On H_5: a dependent, a non-annihilated and a non-isotropic basis."""
    s = heisenberg(5).structure
    e = np.eye(5)
    xs = e[:2]
    assert legendre_distribution(s.form, xs).definiteness == "flat"
    bad = [
        (np.vstack([xs[:-1], 2.0 * xs[:1]]), "basis vectors are linearly dependent"),
        (np.vstack([xs[:-1], xs[-1:] + 0.5 * e[-1]]),
         "basis not tangent to the contact distribution (5.000e-01)"),
        (np.vstack([xs[:-1], xs[-1:] + e[2:3]]), "d eta does not vanish on the span (1.000e+00)"),
    ]
    for basis, message in bad:
        with pytest.raises(NotTransversal) as exc:
            legendre_distribution(s.form, basis)
        assert str(exc.value) == message


def test_a_stack_of_bases_is_a_dimension_mismatch():
    """A (B, n, dim) array is not one basis: both functions reject it at the door."""
    s = heisenberg(5).structure
    bases = np.stack([np.eye(5)[:2], np.eye(5)[2:4]])
    for call in (legendre_distribution, involutivity_residual):
        with pytest.raises(DimensionMismatch, match=r"in one basis: \(2, 2, 5\)"):
            call(s.form, bases)


def test_eigendistributions_raise_the_first_failure_in_order(monkeypatch):
    """eigendistributions validates D(+lambda), then D(-lambda), each Legendre before
    involutive, and raises the first failure: the calls stop there."""
    real = legendre.legendre_distribution
    cases = [
        ((0, 1), (0.0, 0.0), NotTransversal, "distribution 0", ["L0"]),
        ((1,), (0.0, 0.0), NotTransversal, "distribution 1", ["L0", "I0", "L1"]),
        ((1,), (1.0, 0.0), NotIntegrable, "residual 1.000e+00", ["L0", "I0"]),
        ((0,), (1.0, 1.0), NotTransversal, "distribution 0", ["L0"]),
        ((), (0.0, 1.0), NotIntegrable, "residual 1.000e+00", ["L0", "I0", "L1", "I1"]),
    ]
    for failing, residuals, error, message, calls in cases:
        made = []

        def validate(form, basis, tol, failing=failing, made=made):
            k = sum(c.startswith("L") for c in made)
            made.append(f"L{k}")
            if k in failing:
                raise NotTransversal(f"distribution {k}")
            return real(form, basis, tol)

        def involutive(form, basis, residuals=residuals, made=made):
            k = sum(c.startswith("L") for c in made) - 1
            made.append(f"I{k}")
            return residuals[k]

        monkeypatch.setattr(legendre, "legendre_distribution", validate)
        monkeypatch.setattr(legendre, "involutivity_residual", involutive)
        with pytest.raises(error, match=re.escape(message)):  # a fresh structure: no kept pair
            eigendistributions(family(*CLASS_PARAMS["I"]))
        assert made == calls
