import numpy as np
import pytest

from kmgeom.catalog import family_3d, heisenberg_3d, nilpotent_h_5d
from kmgeom.contact import ContactMetricStructure, nullity_fit
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
    return sasakian_structure(s, nullity_fit(s)).structure


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
    g_t = pair + pair.T
    g_t[-1, -1] = 1.0
    phi_t = np.diag([1.0] * n + [-1.0] * n + [0.0])
    return ParacontactMetricStructure(model=model, phi_t=phi_t, xi=xi, eta=xi, g_t=g_t)
