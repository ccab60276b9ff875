"""Stacked verification: the structures of a tower are validated and fitted as
one stack, and every member gets what it gets alone.  (The Legendre functions take
one basis; a bi-Legendrian pair is two calls, tested in ``test_legendre.py``.)

A member's fresh copy (same arrays, empty cache) verified on its own is the
reference; a degenerate metric in one member must stay with it.
"""

import numpy as np
import pytest

from kmgeom.catalog import d_homothetic, family_3d
from kmgeom.contact import nullity_fit, validate_contact
from kmgeom.errors import DegenerateMetric, DimensionMismatch
from kmgeom.tower import sequence

from conftest import CLASS_PARAMS, family

# classes I-V and a mu = 2 point
POINTS = [*CLASS_PARAMS.values(), (2.0, 0.0)]
FIT_FIELDS = ("kappa", "mu", "residual", "lam", "boeckx", "class_tag", "spectral_type",
              "h_square_scalar", "h_square_vs_kappa_residual", "curvature_reflection_residual")


def _fresh(s, **arrays):
    """A copy of ``s`` with an empty cache, its arrays replaced by ``arrays``."""
    fields = {name: np.array(getattr(s, name)) for name in ("phi", "xi", "eta", "g")}
    fields.update(arrays)
    return type(s)(s.form, fields["phi"], fields["g"])


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
        _, node1, node2 = sequence(family(lam, d), 3, 1e-9)
        st = node1.structure
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
