"""Naturality of the constructions: the paper builds each derived structure from phi, h,
lambda = sqrt(1 - kappa) and I_M alone, so each commutes with the two transformations
that keep those relations.

* D-homothetic deformation (Tanno): eta' = a eta, xi' = xi / a, phi' = phi,
  g' = a g + a (a - 1) eta (x) eta gives h' = h / a and lambda' = lambda / a, and keeps
  I_M.  So every tower node phi_k, and phi-bar, is the same endomorphism.
* Change of basis P: the tower of the rebased structure is the rebased tower,
  phi_k' = P^-1 phi_k P.

The second bi-Legendrian pair (classes I and III) is natural in its scalars: under a
D-homothetic deformation by a, lambda~, the default Pang pair (a, b) and the Pang value
scale by 1 / a, the new invariant is kept, and the generated constants follow Tanno's
map kappa -> 1 - (1 - kappa) / a^2, mu -> 2 - (2 - mu) / a; under a change of basis all
seven are unchanged.  These are compared relative to the expected value.

The h-eigenpair is natural too: the projector onto D(lambda) along D(-lambda) + R xi
is unchanged by a D-homothetic deformation (h' = h / a has the same eigenspaces, and
xi' spans the same line) and is P^-1 Pi P in the rebased structure.

Each relation is checked on the five class points, wherever the construction is defined
(the tower has nodes 0 and 1 alone in classes IV and V; phi-bar exists in classes I and
III), to 1e-12 relative to the size of the tensor."""

import numpy as np
import pytest

from kmgeom import DEFAULT_TOL
from kmgeom.catalog import d_homothetic, family_3d, rebased
from kmgeom.contact import nullity_fit
from kmgeom.legendre import _frame, eigendistributions
from kmgeom.tower import sasakian_structure, second_bilegendrian_analysis, sequence

from conftest import CLASS_PARAMS

BOUND = 1e-12
SCALES = np.geomspace(1e-2, 1e2, 5)
SEEDS = range(5)


def _nodes(s) -> int:
    """Nodes 0-5 of the tower, or 0 and 1 in classes IV and V (|I_M| = 1)."""
    return 2 if nullity_fit(s).class_tag in ("IV", "V") else 6


def _close(found: np.ndarray, expected: np.ndarray) -> bool:
    return np.max(np.abs(found - expected)) <= BOUND * max(1.0, np.max(np.abs(expected)))


def _basis_change(seed: int, cond: float, dim: int) -> np.ndarray:
    """P = Q1 diag(geomspace(1, cond)) Q2, Q1 and Q2 orthogonal from seeded normals."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q1 @ np.diag(np.geomspace(1.0, cond, dim)) @ q2


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("cls", CLASS_PARAMS)
def test_the_tower_is_unchanged_by_a_d_homothetic_deformation(cls, a):
    entry = family_3d(*CLASS_PARAMS[cls])
    n_nodes = _nodes(entry.structure)
    nodes = sequence(entry.structure, n_nodes)
    deformed = sequence(d_homothetic(entry, a).structure, n_nodes)
    assert len(deformed) == n_nodes
    for node, moved in zip(nodes, deformed):
        assert moved.kind == node.kind
        assert _close(moved.structure.phi, node.structure.phi), node.index


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("cls", ["I", "III"])
def test_phi_bar_is_unchanged_by_a_d_homothetic_deformation(cls, a):
    entry = family_3d(*CLASS_PARAMS[cls])
    phi_bar = sasakian_structure(entry.structure).structure.phi
    assert _close(sasakian_structure(d_homothetic(entry, a).structure).structure.phi, phi_bar)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cond", [1.0, 10.0])
@pytest.mark.parametrize("cls", CLASS_PARAMS)
def test_the_tower_of_a_rebased_structure_is_the_rebased_tower(cls, cond, seed):
    entry = family_3d(*CLASS_PARAMS[cls])
    p = _basis_change(seed, cond, entry.model.dim)
    n_nodes = _nodes(entry.structure)
    nodes = sequence(entry.structure, n_nodes)
    moved = sequence(rebased(entry, p).structure, n_nodes)
    assert len(moved) == n_nodes
    p_inv = np.linalg.inv(p)
    for node, found in zip(nodes, moved):
        assert found.kind == node.kind
        assert _close(found.structure.phi, p_inv @ node.structure.phi @ p), node.index


PAIR_SCALARS = ("lambda_t", "pang_value", "a", "b", "kappa_new", "mu_new", "new_invariant")


def _pair_scalars(s) -> dict:
    """The seven scalars of the second pair of ``s``, with its default Pang pair."""
    pair = second_bilegendrian_analysis(s)
    return {name: getattr(pair, name) for name in PAIR_SCALARS}


def _relative_close(found: dict, expected: dict) -> bool:
    return all(abs(found[k] - expected[k]) <= BOUND * abs(expected[k]) for k in PAIR_SCALARS)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("cls", ["I", "III"])
def test_the_second_pair_scales_under_a_d_homothetic_deformation(cls, scale):
    entry = family_3d(*CLASS_PARAMS[cls])
    pair = _pair_scalars(entry.structure)
    expected = {**{k: pair[k] / scale for k in ("lambda_t", "pang_value", "a", "b")},
                "kappa_new": 1.0 - (1.0 - pair["kappa_new"]) / scale**2,
                "mu_new": 2.0 - (2.0 - pair["mu_new"]) / scale,
                "new_invariant": pair["new_invariant"]}
    assert _relative_close(_pair_scalars(d_homothetic(entry, scale).structure), expected)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cond", [1.0, 10.0])
@pytest.mark.parametrize("cls", ["I", "III"])
def test_the_second_pair_of_a_rebased_structure_is_unchanged(cls, cond, seed):
    entry = family_3d(*CLASS_PARAMS[cls])
    p = _basis_change(seed, cond, entry.model.dim)
    assert _relative_close(_pair_scalars(rebased(entry, p).structure),
                           _pair_scalars(entry.structure))


def _eigen_projector(s) -> np.ndarray:
    """The projector onto D(lambda) along D(-lambda) + R xi, read from the Legendre
    frame {D(lambda), D(-lambda), xi} of ``eigendistributions(s)``."""
    d_pos, d_neg = eigendistributions(s)
    frame, frame_inv = _frame(d_pos, d_neg, s.xi, DEFAULT_TOL)
    return frame[:, :d_pos.n] @ frame_inv[:d_pos.n]


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("cls", CLASS_PARAMS)
def test_the_h_eigenpair_is_unchanged_by_a_d_homothetic_deformation(cls, a):
    entry = family_3d(*CLASS_PARAMS[cls])
    assert _close(_eigen_projector(d_homothetic(entry, a).structure), _eigen_projector(entry.structure))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cond", [1.0, 10.0])
@pytest.mark.parametrize("cls", CLASS_PARAMS)
def test_the_h_eigenpair_of_a_rebased_structure_is_the_rebased_pair(cls, cond, seed):
    entry = family_3d(*CLASS_PARAMS[cls])
    p = _basis_change(seed, cond, entry.model.dim)
    expected = np.linalg.inv(p) @ _eigen_projector(entry.structure) @ p
    assert _close(_eigen_projector(rebased(entry, p).structure), expected)
