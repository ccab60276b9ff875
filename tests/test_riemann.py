"""Koszul connection and curvature against hand-computed oracles.

The 3-dim family Christoffel symbols below were computed by hand from the
three brackets before the engine existed and are frozen as literals:

    nabla_X Y  = (1 + lambda) xi        nabla_Y X  = (lambda - 1) xi
    nabla_X xi = -(1 + lambda) Y        nabla_Y xi = (1 - lambda) X
    nabla_xi X = (d - 1) Y              nabla_xi Y = (1 - d) X

all other derivatives vanish (g the identity, basis X, Y, xi).
"""

import numpy as np
import pytest

from kmgeom.catalog import family_3d, heisenberg, nilpotent_h_5d
from kmgeom.errors import DegenerateMetric
from kmgeom.lie_model import LieModel
from kmgeom.riemann import levi_civita, on_pairs, signature

from conftest import _random_basis, family
from reference import connection_identity_suite, curvature, curvature_tensor, nabla


def expected_family_gamma(lam, d):
    g = np.zeros((3, 3, 3))
    g[0, 1, 2] = 1 + lam
    g[1, 0, 2] = lam - 1
    g[0, 2, 1] = -(1 + lam)
    g[1, 2, 0] = 1 - lam
    g[2, 0, 1] = d - 1
    g[2, 1, 0] = 1 - d
    return g


@pytest.mark.parametrize("lam,d", [(1.0, 0.0), (2.0, 1.0)])
def test_family_christoffels_match_hand_computation(lam, d):
    s = family(lam, d)
    conn = levi_civita(s.model, s.g)
    assert np.allclose(conn.gamma, expected_family_gamma(lam, d), atol=1e-12)


def test_family_nabla_xi_formula():
    # nabla_X xi = -2Y = -phi X - phi h X at (lambda, d) = (1, 0)
    s = family(1.0, 0.0)
    conn = levi_civita(s.model, s.g)
    assert np.allclose(nabla(conn, np.eye(3)[0], s.xi), [0.0, -2.0, 0.0])


def test_abelian_connection_vanishes():
    m = LieModel(c=np.zeros((3, 3, 3)))
    conn = levi_civita(m, np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(conn.gamma, 0.0)


def test_5d_nabla_xi_identity(model_5d):
    s = model_5d.structure
    conn = levi_civita(s.model, s.g)
    nabla_xi = np.column_stack([nabla(conn, np.eye(5)[i], s.xi) for i in range(5)])
    assert np.max(np.abs(nabla_xi - (-s.phi + s.phi @ s.h))) <= 1e-12


def test_curvature_antisymmetry_in_first_pair():
    s = family(1.5, 0.5)
    conn = levi_civita(s.model, s.g)
    u = np.array([1.0, 2.0, -1.0])
    w = np.array([0.5, 0.0, 2.0])
    assert np.allclose(curvature(s.model, conn, u, u, w), 0.0)


@pytest.mark.parametrize(
    "lam,d,coeff",
    [
        (1.0, 0.0, 2.0),   # kappa + mu lambda = 0 + 2*1
        (1.0, 2.0, -2.0),  # kappa + mu lambda = 0 + (-2)*1
    ],
)
def test_family_r_x_xi_xi(lam, d, coeff):
    s = family(lam, d)
    conn = levi_civita(s.model, s.g)
    x, xi = np.eye(3)[0], np.eye(3)[2]
    assert np.allclose(curvature(s.model, conn, x, xi, xi), coeff * x, atol=1e-12)


@pytest.mark.parametrize("lam,d", [(1.0, 0.0), (2.0, 1.0), (1.0, 2.0)])
def test_identity_suite_family(lam, d):
    s = family(lam, d)
    conn = levi_civita(s.model, s.g)
    rep = connection_identity_suite(s.model, conn, s.g)
    assert rep.valid, rep.failures()


def test_identity_suite_5d(model_5d):
    s = model_5d.structure
    conn = levi_civita(s.model, s.g)
    rep = connection_identity_suite(s.model, conn, s.g)
    assert rep.valid, rep.failures()


def test_identity_suite_abelian():
    m = LieModel(c=np.zeros((3, 3, 3)))
    rep = connection_identity_suite(m, levi_civita(m, np.eye(3)), np.eye(3))
    assert rep.worst[1] == 0.0


@pytest.mark.parametrize(
    "structure",
    [family_3d(1.0, 2.0).structure, nilpotent_h_5d().structure]
    + [heisenberg(dim, kind).structure for dim in (3, 5, 11, 21, 41) for kind in ("contact", "paracontact")],
    ids=["family_3d", "nilpotent_h_5d"]
    + [f"H_{dim}-{kind}" for dim in (3, 5, 11, 21, 41) for kind in ("contact", "paracontact")],
)
def test_connection_matches_solve_on_random_bases(structure):
    # the reference: solve g . gamma[i, j, :] = rhs[i, j, :] against all d^2 right-hand sides
    d = structure.dim
    for seed in range(3):
        p = _random_basis(np.random.default_rng(seed), d, 10.0)
        c = on_pairs(structure.model.c, p, p) @ np.linalg.inv(p)  # [f_a, f_b] in the basis f = p e
        m = LieModel(c=0.5 * (c - c.transpose(1, 0, 2)))
        g = p @ structure.g @ p.T
        g = 0.5 * (g + g.T)
        assert np.linalg.cond(g) <= 1e2 * (1 + 1e-9)
        b = m.c @ g
        rhs = 0.5 * (b - b.transpose(2, 0, 1) + b.transpose(1, 2, 0))
        ref = np.linalg.solve(g, rhs.reshape(-1, d).T).T.reshape(d, d, d)
        conn = levi_civita(m, g)
        assert np.max(np.abs(conn.gamma - ref)) <= 1e-12 * np.max(np.abs(conn.gamma))
        rep = connection_identity_suite(m, conn, g)
        assert rep["metric_compatibility"] <= 1e-12
        assert rep["torsion_free"] <= 1e-12


def test_degenerate_metric_rejected():
    m = LieModel(c=np.zeros((3, 3, 3)))
    with pytest.raises(DegenerateMetric):
        levi_civita(m, np.diag([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("fixture", ["family", "five_dim"])
def test_lowered_curvature_symmetries(fixture, model_5d):
    if fixture == "family":
        s = family(2.0, 1.0)
        model, g = s.model, s.g
    else:
        model, g = model_5d.model, model_5d.structure.g
    conn = levi_civita(model, g)
    r = curvature_tensor(model, conn)
    low = np.einsum("ijkm,ml->ijkl", r, g)  # g(R_{ij} e_k, e_l)
    assert np.max(np.abs(low + low.transpose(1, 0, 2, 3))) <= 1e-12
    assert np.max(np.abs(low + low.transpose(0, 1, 3, 2))) <= 1e-12
    assert np.max(np.abs(low - low.transpose(2, 3, 0, 1))) <= 1e-12


def test_signature(model_5d):
    assert signature(np.eye(3)) == (3, 0, 0)
    assert signature(model_5d.structure.g) == (3, 2, 0)
