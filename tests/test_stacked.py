"""Stacked verification: the structures of a tower are validated and fitted as
one stack, the two distributions of a bi-Legendrian pair are validated as one
stack of bases, and every member gets what it gets alone.

A member's fresh copy (same arrays, empty cache) verified on its own is the
reference; a degenerate metric in one member must stay with it.
"""

import re

import numpy as np
import pytest

from kmgeom import legendre
from kmgeom.catalog import d_homothetic, family_3d, heisenberg, rebased
from kmgeom.contact import ContactMetricStructure, nullity_fit, validate_contact
from kmgeom.errors import DegenerateMetric, DimensionMismatch, NotIntegrable, NotTransversal
from kmgeom.legendre import eigendistributions, involutivity_residual, legendre_distribution
from kmgeom.lie_model import LieModel
from kmgeom.tower import _canonical_pair, second_bilegendrian_analysis, sequence

from conftest import CLASS_PARAMS, _random_basis, family

# classes I-V and a mu = 2 point
POINTS = [*CLASS_PARAMS.values(), (2.0, 0.0)]
FIT_FIELDS = ("kappa", "mu", "residual", "lam", "boeckx", "class_tag", "spectral_type",
              "h_square_scalar", "h_square_vs_kappa_residual", "curvature_reflection_residual")


def _fresh(s, **arrays):
    """A copy of ``s`` with an empty cache, its arrays replaced by ``arrays``."""
    fields = {name: np.array(getattr(s, name)) for name in ("phi", "xi", "eta", "g")}
    fields.update(arrays)
    return type(s)(s.model, fields["phi"], s.xi, s.eta, fields["g"])


def _assert_close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        assert a == pytest.approx(b, abs=1e-12, nan_ok=True)
    else:
        assert a == b


def _assert_node_matches_alone(node):
    alone = _fresh(node.structure)
    checks, fit = validate_contact(alone), nullity_fit(alone)
    tower_only = {"predicted_kappa_delta", "predicted_mu_delta"}
    assert [k for k in node.checks.entries if k not in tower_only] == list(checks.entries)
    for name, value in checks.entries.items():
        _assert_close(node.checks[name], value)
    assert {k: v for k, v in node.checks.notes.items() if k not in tower_only} == checks.notes
    for name in FIT_FIELDS:
        _assert_close(getattr(node.fit, name), getattr(fit, name))


@pytest.mark.parametrize("lam,d", POINTS)
def test_tower_nodes_match_their_structures_verified_alone(lam, d):
    s = family(lam, d)
    fit = nullity_fit(s)
    # classes IV and V have nodes 0 and 1 only
    n_nodes = 2 if fit.class_tag in ("IV", "V") else 6
    nodes = sequence(s, n_nodes)
    assert len(nodes) == n_nodes
    for node in nodes[1:]:
        _assert_node_matches_alone(node)
    if fit.class_tag in ("I", "III"):  # the construction pair exists for |I_M| > 1
        st, node2 = _canonical_pair(family(lam, d), 1e-9)
        assert node2.index == 2
        _assert_node_matches_alone(node2)
        alone = _fresh(st)
        for name in FIT_FIELDS:
            _assert_close(getattr(nullity_fit(st), name), getattr(nullity_fit(alone), name))


def _paracontact_stack(lam=1.0, d=2.0):
    """Fresh copies of the four distinct paracontact nodes of a class-I tower."""
    return [_fresh(node.structure) for node in sequence(family(lam, d), 5)[1:]]


def _verify(stack):
    return validate_contact(stack), nullity_fit(stack)


def _assert_members_identical(a, b):
    (reps_a, fits_a), (reps_b, fits_b) = a, b
    for rep_a, rep_b, fit_a, fit_b in zip(reps_a, reps_b, fits_a, fits_b):
        assert rep_a.entries == rep_b.entries and rep_a.notes == rep_b.notes
        assert fit_a == fit_b


def test_degenerate_metric_in_one_member_stays_with_it():
    stack = _paracontact_stack()
    clean = _verify(stack)
    bad = 1
    g = np.array(stack[bad].g)
    g[0, :] = g[:, 0] = 0.0
    stack = _paracontact_stack()
    stack[bad] = _fresh(stack[bad], g=g)
    reps, fits = _verify(stack)
    # what the member gets alone: an inf nabla_xi entry, and DegenerateMetric from the fit
    alone = _fresh(stack[bad])
    rep_alone = validate_contact(alone)
    assert reps[bad].entries == rep_alone.entries and reps[bad].notes == rep_alone.notes
    assert reps[bad]["nabla_xi_identity"] == np.inf
    with pytest.raises(DegenerateMetric):
        nullity_fit(alone)
    assert isinstance(fits[bad], DegenerateMetric)
    with pytest.raises(DegenerateMetric):
        stack[bad].levi_civita()
    keep = [b for b in range(len(stack)) if b != bad]
    _assert_members_identical(([clean[0][b] for b in keep], [clean[1][b] for b in keep]),
                              ([reps[b] for b in keep], [fits[b] for b in keep]))


def test_stack_members_keep_their_own_cache():
    stack = _paracontact_stack()
    nullity_fit(stack)
    for s in stack:
        conn = s.levi_civita()
        assert s.levi_civita() is conn  # filled by the stacked pass, read by later calls
        assert conn.gamma.shape == (3, 3, 3)


def test_a_stack_holds_one_kind_on_one_model():
    nodes = sequence(family(1.0, 0.5), 3)  # contact, paracontact, contact
    with pytest.raises(DimensionMismatch):
        validate_contact([nodes[0].structure, nodes[1].structure])
    with pytest.raises(DimensionMismatch):
        nullity_fit([nodes[0].structure, family(1.0, 0.5)])  # same kind, another model


def test_a_stack_holds_one_contact_form():
    """A D-homothetic image shares the model but not eta and xi, which the stacked fit and
    validation read from the first member: either order raises, so no member is certified
    or rejected at the other's form (stacked behind its image, s fitted mu = -0.5, and the
    valid image, behind s, read as invalid)."""
    entry = family_3d(1.0, 2.0)
    image, s = d_homothetic(entry, 2.0).structure, entry.structure
    assert image.model is s.model
    for stack in ([image, s], [s, image]):
        with pytest.raises(DimensionMismatch, match=r"\(M, eta, xi\)"):
            nullity_fit(stack)
        with pytest.raises(DimensionMismatch, match=r"\(M, eta, xi\)"):
            validate_contact(stack)
    assert nullity_fit(s).mu == pytest.approx(-2.0) and validate_contact(image).valid


# ---------------------------------------------------------------- bi-Legendrian pairs


def _assert_members_match_alone(s, bases):
    """Each member of a stacked Legendre validation equals its basis validated alone;
    returns the stacked distributions."""
    bases = np.asarray(bases)
    stacked = legendre_distribution(s.model, s.eta, s.xi, bases)
    residuals = involutivity_residual(s.model, s.eta, s.xi, bases)
    assert len(stacked) == len(residuals) == len(bases)
    for basis, ld, residual in zip(bases, stacked, residuals):
        alone = legendre_distribution(s.model, s.eta, s.xi, basis)
        assert np.allclose(ld.vectors, alone.vectors, rtol=0.0, atol=1e-12)
        assert np.allclose(ld.pang, alone.pang, rtol=0.0, atol=1e-12)
        assert ld.definiteness == alone.definiteness
        assert np.allclose(ld.pang_eig, alone.pang_eig, rtol=0.0, atol=1e-12)
        assert isinstance(residual, float)
        assert residual == pytest.approx(involutivity_residual(s.model, s.eta, s.xi, basis),
                                         abs=1e-12)
    return stacked


def _eigenbases(s):
    return np.stack([ld.vectors for ld in eigendistributions(s)])


@pytest.mark.parametrize("seed, cls", enumerate(sorted(CLASS_PARAMS)))
def test_eigenpair_members_match_their_bases_validated_alone(seed, cls):
    """The +-lambda pair of each class, in the model basis and in two bases of
    condition 10."""
    entry = family_3d(*CLASS_PARAMS[cls])
    rng = np.random.default_rng(seed)
    for t in [entry.structure] + [rebased(entry, _random_basis(rng, 3, 10.0)).structure
                                  for _ in range(2)]:
        _assert_members_match_alone(t, _eigenbases(t))


@pytest.mark.parametrize("cls", ["I", "III"])
def test_second_pair_members_match_their_bases_validated_alone(cls):
    s = family(*CLASS_PARAMS[cls])
    analysis = second_bilegendrian_analysis(s)
    bases = [analysis.d_plus.vectors, analysis.d_minus.vectors]
    stacked = _assert_members_match_alone(s, bases)
    for ld, want in zip(stacked, (analysis.d_plus, analysis.d_minus)):
        assert np.allclose(ld.pang, want.pang, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 20])
def test_heisenberg_pair_in_a_shuffled_basis(n):
    """(span{X_i}, span{Y_i}) of H_{2n+1}, with the model basis and the order of
    each distribution's vectors shuffled."""
    rng = np.random.default_rng(n)
    dim = 2 * n + 1
    h, sigma = heisenberg(dim).structure, rng.permutation(dim)  # the basis f_a = e_sigma(a)
    s = ContactMetricStructure(
        model=LieModel(c=h.model.c[np.ix_(sigma, sigma, sigma)]), phi=h.phi[np.ix_(sigma, sigma)],
        xi=h.xi[sigma], eta=h.eta[sigma], g=h.g[np.ix_(sigma, sigma)],
    )
    e = np.eye(dim)[sigma].T  # row k: e_k in the f_a
    xs, ys = e[:n], e[n : 2 * n]
    bases = np.stack([xs[rng.permutation(n)], ys[rng.permutation(n)]])
    stacked = _assert_members_match_alone(s, bases)
    assert [ld.definiteness for ld in stacked] == ["flat", "flat"]  # xi is central
    assert involutivity_residual(s.model, s.eta, s.xi, bases) == [0.0, 0.0]
    # a mixed span is not isotropic: d eta(X_1, Y_1) = -1
    mixed = np.vstack([xs[:1], ys[:1], xs[2:]])
    with pytest.raises(NotTransversal, match="d eta does not vanish"):
        legendre_distribution(s.model, s.eta, s.xi, mixed)


def _bad_members(n=2):
    """On H_{2n+1}: a Legendre basis, then a dependent, a non-annihilated and a
    non-isotropic one, with the messages they raise alone."""
    s = heisenberg(2 * n + 1).structure
    e = np.eye(2 * n + 1)
    xs = e[:n]
    members = [
        (xs, None),
        (np.vstack([xs[:-1], 2.0 * xs[:1]]), "basis vectors are linearly dependent"),
        (np.vstack([xs[:-1], xs[-1:] + 0.5 * e[-1]]),
         "basis not tangent to the contact distribution (5.000e-01)"),
        (np.vstack([xs[:-1], xs[-1:] + e[n : n + 1]]), "d eta does not vanish on the span"),
    ]
    return s, members


def test_failing_members_get_their_own_exception_in_member_order():
    s, members = _bad_members()
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
        bases = np.stack([members[k][0] for k in order])
        results = legendre_distribution(s.model, s.eta, s.xi, bases)
        for k, result in zip(order, results):
            basis, message = members[k]
            if message is None:
                assert result.definiteness == legendre_distribution(
                    s.model, s.eta, s.xi, basis).definiteness
                continue
            assert isinstance(result, NotTransversal) and str(result).startswith(message)
            with pytest.raises(NotTransversal) as alone:
                legendre_distribution(s.model, s.eta, s.xi, basis)
            assert str(alone.value) == str(result)


def test_a_pair_raises_its_first_members_failure_first(monkeypatch):
    """eigendistributions raises the first failure in the order (+lambda, -lambda),
    a Legendre failure of a member before its involutivity."""
    real = legendre.legendre_distribution

    def failing(*members):
        def stacked(model, eta, xi, bases, tol):
            out = real(model, eta, xi, bases, tol)
            return [NotTransversal(f"member {b}") if b in members else ld
                    for b, ld in enumerate(out)]
        return stacked

    def residuals(values):
        return lambda model, eta, xi, bases: list(values)

    cases = [
        ((0, 1), (0.0, 0.0), NotTransversal, "member 0"),
        ((1,), (0.0, 0.0), NotTransversal, "member 1"),
        ((1,), (1.0, 0.0), NotIntegrable, "residual 1.000e+00"),
        ((0,), (1.0, 1.0), NotTransversal, "member 0"),
        ((), (0.0, 1.0), NotIntegrable, "residual 1.000e+00"),
    ]
    for members, values, error, message in cases:
        monkeypatch.setattr(legendre, "legendre_distribution", failing(*members))
        monkeypatch.setattr(legendre, "involutivity_residual", residuals(values))
        with pytest.raises(error, match=re.escape(message)):  # a fresh structure: no kept pair
            eigendistributions(family(*CLASS_PARAMS["I"]))
