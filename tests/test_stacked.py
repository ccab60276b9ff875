"""Stacked verification: the structures of a tower are validated and fitted as
one stack, and every member gets what it gets alone.

A member's fresh copy (same arrays, empty cache) verified on its own is the
reference; a NaN or a degenerate metric in one member must stay with it.
"""

import numpy as np
import pytest

from kmgeom.contact import nullity_fit, validate_contact
from kmgeom.errors import DegenerateMetric, DimensionMismatch, NotNullity
from kmgeom.tower import _canonical_pair, sequence

from conftest import CLASS_PARAMS, family

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
    # |I_M| = 1 (classes IV and V) has nodes 0 and 1 only
    n_nodes = 2 if abs(abs(fit.boeckx) - 1.0) < 1e-8 else 6
    nodes = sequence(s, n_nodes)
    assert len(nodes) == n_nodes
    for node in nodes[1:]:
        _assert_node_matches_alone(node)
    if abs(fit.boeckx) > 1.0 + 1e-8:  # the construction pair exists for |I_M| > 1
        st, node2 = _canonical_pair(family(lam, d), fit, 1e-9)
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


@pytest.mark.parametrize("field, nan_entries", [
    ("phi", ("phi_square", "deta_compatibility", "metric_compatibility", "phi_xi",
             "eta_circ_phi", "h_phi_anticommute", "nabla_xi_identity")),
    ("g", ("deta_compatibility", "metric_compatibility", "eta_is_g_xi", "h_g_symmetric",
           "nabla_xi_identity")),
])
def test_nan_in_one_member_stays_with_it(field, nan_entries):
    stack = _paracontact_stack()
    clean = _verify(stack)
    assert all(rep.valid for rep in clean[0])
    bad = 2
    arr = np.array(getattr(stack[bad], field))
    arr[0, 1] = np.nan
    stack = _paracontact_stack()
    stack[bad] = _fresh(stack[bad], **{field: arr})
    reps, fits = _verify(stack)
    assert not reps[bad].valid
    for name in nan_entries:
        assert np.isnan(reps[bad][name]), name
    assert isinstance(fits[bad], NotNullity) and np.isnan(fits[bad].residual)
    keep = [b for b in range(len(stack)) if b != bad]
    _assert_members_identical(([clean[0][b] for b in keep], [clean[1][b] for b in keep]),
                              ([reps[b] for b in keep], [fits[b] for b in keep]))


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
        assert s.curvature_xi().shape == (3, 3, 3)


def test_a_stack_holds_one_kind_on_one_model():
    nodes = sequence(family(1.0, 0.5), 3)  # contact, paracontact, contact
    with pytest.raises(DimensionMismatch):
        validate_contact([nodes[0].structure, nodes[1].structure])
    with pytest.raises(DimensionMismatch):
        nullity_fit([nodes[0].structure, family(1.0, 0.5)])  # same kind, another model
