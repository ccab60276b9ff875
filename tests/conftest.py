import json
import math

import numpy as np
import pytest

from kmgeom.catalog import family_3d, heisenberg_3d, nilpotent_h_5d
from kmgeom.contact import ContactMetricStructure
from kmgeom.lie_model import LieModel
from kmgeom.paracontact import ParacontactMetricStructure
from kmgeom.tower import sasakian_structure

# one parameter pair per class: I, II, III, IV, V
CLASS_PARAMS = {
    "I": (1.0, 2.0),
    "II": (1.0, 0.0),
    "III": (1.0, -2.0),
    "IV": (1.0, 1.0),
    "V": (1.0, -1.0),
}

GRID_LAMBDAS = (0.5, 1.0, 1.5, 2.0, 3.0)
GRID_DS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def family(lam, d) -> ContactMetricStructure:
    return family_3d(lam, d).structure


@pytest.fixture(scope="session")
def model_5d():
    return nilpotent_h_5d()


@pytest.fixture(scope="session")
def heisenberg():
    return heisenberg_3d()


@pytest.fixture(scope="session")
def sasakian_fixture() -> ContactMetricStructure:
    """A genuine Sasakian structure: the compatible one built from a class-I space."""
    s = family(1.0, 2.0)
    return sasakian_structure(s).structure


def twisted_contact_3d(a=1.0, r=1.0) -> ContactMetricStructure:
    """Valid contact metric structure that is not a nullity space (a, r != 0).

    Non-unimodular brackets [X,Y] = 2 xi + a X, [xi,Y] = r X satisfy Jacobi
    and keep eta contact with the standard (phi, g); the curvature R_{. xi} xi
    then falls outside the span of the identity and h.
    """
    c = np.zeros((3, 3, 3))

    def setb(i, j, coeffs):
        for k, v in coeffs.items():
            c[i, j, k] = v
            c[j, i, k] = -v

    setb(0, 1, {2: 2.0, 0: a})
    setb(2, 1, {0: r})
    model = LieModel(c=c)
    phi = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return ContactMetricStructure(
        model=model, phi=phi, xi=np.eye(3)[2], eta=np.eye(3)[2], g=np.eye(3)
    )


def rebased(s: ContactMetricStructure, p: np.ndarray) -> ContactMetricStructure:
    """The same structure in the basis f_a = sum_i p[i, a] e_i (p invertible), with the
    structure constants antisymmetrized and the metric symmetrized after the change.

    The einsum contracts one operand at a time (``optimize=True``): O(dim^4), where
    the plain four-operand loop is O(dim^7) and takes tens of seconds at dim 41."""
    p_inv = np.linalg.inv(p)
    c = np.einsum("ia,jb,ijk,lk->abl", p, p, s.model.c, p_inv, optimize=True)
    g = p.T @ s.g @ p
    return ContactMetricStructure(
        model=LieModel(c=0.5 * (c - c.transpose(1, 0, 2))),
        phi=p_inv @ s.phi @ p,
        xi=p_inv @ s.xi,
        eta=s.eta @ p,
        g=0.5 * (g + g.T),
    )


def heisenberg_model(dim, kind="contact"):
    """H_dim with [X_i, Y_i] = 2 xi on the basis (X_1..X_n, Y_1..Y_n, xi).

    contact: phi X_i = Y_i, g = I (Sasakian, kappa = 1).  paracontact:
    phi~ = +1 on X, -1 on Y, g~ pairs X_i with Y_i (para-Sasakian).
    """
    n = (dim - 1) // 2
    c = np.zeros((dim, dim, dim))
    c[range(n), range(n, 2 * n), -1] = 2.0
    c[range(n, 2 * n), range(n), -1] = -2.0
    model = LieModel(c=c)
    xi = np.eye(dim)[-1]
    pair = np.zeros((dim, dim))
    pair[n : 2 * n, :n] = np.eye(n)  # X_i -> Y_i
    if kind == "contact":
        return ContactMetricStructure(model=model, phi=pair - pair.T, xi=xi, eta=xi, g=np.eye(dim))
    g = pair + pair.T
    g[-1, -1] = 1.0
    phi = np.diag([1.0] * n + [-1.0] * n + [0.0])
    return ParacontactMetricStructure(model=model, phi=phi, xi=xi, eta=xi, g=g)


def jsonable(x):
    """``x`` with numpy scalars and arrays as Python values and each non-finite
    float as the string of its repr."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        return jsonable(x.item())
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def reference_json(report) -> str:
    """The reference for ``cli.render_json``: a walk to Python values, then the
    standard library's encoder."""
    return json.dumps(jsonable(report), indent=2, sort_keys=True)
