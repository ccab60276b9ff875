import json
import math

import numpy as np
import pytest

from kmgeom.catalog import STANDARD_FAMILY_PARAMS, family_3d, get_entry, nilpotent_h_5d
from kmgeom.contact import ContactMetricStructure
from kmgeom.lie_model import ContactForm, LieModel
from kmgeom.tower import sasakian_structure

# one parameter pair per class, by its tag: I, II, III, IV, V
CLASS_PARAMS = {name.rsplit("-", 1)[1]: p for name, p in STANDARD_FAMILY_PARAMS.items()}

GRID_LAMBDAS = (0.5, 1.0, 1.5, 2.0, 3.0)
GRID_DS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def family(lam, d) -> ContactMetricStructure:
    return family_3d(lam, d).structure


@pytest.fixture(scope="session")
def model_5d():
    return nilpotent_h_5d()


@pytest.fixture(scope="session")
def heisenberg():
    return get_entry("heisenberg-3d")


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
    return ContactMetricStructure(ContactForm(model, np.eye(3)[2], np.eye(3)[2]), phi, np.eye(3))


def _random_basis(rng, dim, cond):
    """Rows of a random basis whose singular values run geometrically over
    [cond^-1/2, cond^1/2], so the rebased metric has condition number about cond^2."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q1 @ np.diag(np.geomspace(cond**-0.5, cond**0.5, dim)) @ q2.T


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
    """The reference for ``modelfile.render_json``: a walk to Python values, then the
    standard library's encoder."""
    return json.dumps(jsonable(report), indent=2, sort_keys=True)
