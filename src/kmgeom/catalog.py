"""Built-in fixture models.

* ``nilpotent_h_5d``: the 5-dimensional solvable model carrying a left-invariant
  paracontact metric structure whose h~ is nonzero but squares to zero
  (nilpotent spectral type, kappa~ = -1).
* ``family_3d(lambda, d)``: a two-parameter family of 3-dimensional contact
  metric nullity structures with kappa = 1 - lambda^2, mu = 2 - 2d and Boeckx
  invariant d / lambda; sweeping d at fixed lambda realizes all five classes.
  Its correctness is anchored by hand-computed Christoffel symbols frozen in
  the test suite.
* ``heisenberg_3d``: the Heisenberg model whose flat bi-Legendrian pair
  induces a para-Sasakian structure.
* ``tangent_bundle_constants(c)``: the (kappa, mu, I) constants of the unit
  tangent bundle of a constant-curvature-c space (constants only, no model).
"""

import functools
from typing import NamedTuple

import numpy as np

from .contact import ContactMetricStructure, MetricStructure, classify_by_invariant
from .errors import NonPositiveLambda
from .lie_model import LieModel, _structure_constants
from .paracontact import ParacontactMetricStructure


class CatalogEntry(NamedTuple):
    name: str
    model: LieModel
    structure: MetricStructure
    expected: dict = {}  # one dict shared by the entries that omit it: read it, do not mutate it

    @property
    def kind(self) -> str:
        return self.structure.kind


def nilpotent_h_5d() -> CatalogEntry:
    """5-dim paracontact model with h~ != 0 and h~^2 = 0.

    Basis (X1, X2, Y1, Y2, xi); nonzero brackets
    [X1,X2] = 2 X2, [X1,Y1] = 2 xi, [X2,Y1] = -2 Y2, [X2,Y2] = 2(Y1 + xi),
    [xi,X1] = -2 Y1, [xi,X2] = -2 Y2.  Structure tensors: phi~ = +1 on the
    X-block, -1 on the Y-block; g~ pairs X_i with Y_i and is 1 on xi.
    """
    c = _structure_constants(
        5,
        {
            (0, 1): {1: 2.0},
            (0, 2): {4: 2.0},
            (1, 2): {3: -2.0},
            (1, 3): {2: 2.0, 4: 2.0},
            (4, 0): {2: -2.0},
            (4, 1): {3: -2.0},
        },
    )
    model = LieModel(c=c, basis_labels=("X1", "X2", "Y1", "Y2", "xi"))
    phi = np.diag([1.0, 1.0, -1.0, -1.0, 0.0])
    xi = np.eye(5)[4]
    eta = np.eye(5)[4]
    g = np.zeros((5, 5))
    g[0, 2] = g[2, 0] = 1.0
    g[1, 3] = g[3, 1] = 1.0
    g[4, 4] = 1.0
    structure = ParacontactMetricStructure(model=model, phi=phi, xi=xi, eta=eta, g=g)
    return CatalogEntry(
        name="nilpotent-h-5d",
        model=model,
        structure=structure,
        expected={
            "kind": "paracontact",
            "kappa": -1.0,
            "spectral_type": "nilpotent",
            "h_nonzero": True,
            "signature": [3, 2],
        },
    )


def family_3d(lam: float, d: float) -> CatalogEntry:
    """3-dim contact metric nullity structure with kappa = 1 - lambda^2, mu = 2 - 2d.

    Basis (X, Y, xi); brackets [X,Y] = 2 xi, [xi,X] = (lambda + d) Y,
    [xi,Y] = (lambda - d) X; phi X = Y, phi Y = -X, g the identity.  The
    Boeckx invariant is d / lambda, so the class sweeps I..V with d.
    """
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    c = _structure_constants(
        3,
        {
            (0, 1): {2: 2.0},
            (2, 0): {1: lam + d},
            (2, 1): {0: lam - d},
        },
    )
    model = LieModel(c=c, basis_labels=("X", "Y", "xi"))
    phi = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    structure = ContactMetricStructure(
        model=model, phi=phi, xi=np.eye(3)[2], eta=np.eye(3)[2], g=np.eye(3)
    )
    kappa = 1.0 - lam * lam
    mu = 2.0 - 2.0 * d
    inv = d / lam
    return CatalogEntry(
        name=f"family-3d(lambda={lam:g},d={d:g})",
        model=model,
        structure=structure,
        expected={
            "kind": "contact",
            "kappa": kappa,
            "mu": mu,
            "boeckx": inv,
            "class": classify_by_invariant(inv, 1e-12),
            "lambda": lam,
        },
    )


def heisenberg_3d() -> CatalogEntry:
    """Heisenberg model: the flat bi-Legendrian pair induces a para-Sasakian structure.

    Brackets [X,Y] = 2 xi only; phi~ = +1 on X, -1 on Y; g~ pairs X with Y.
    """
    c = _structure_constants(3, {(0, 1): {2: 2.0}})
    model = LieModel(c=c, basis_labels=("X", "Y", "xi"))
    phi = np.diag([1.0, -1.0, 0.0])
    g = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    structure = ParacontactMetricStructure(model=model, phi=phi, xi=np.eye(3)[2], eta=np.eye(3)[2], g=g)
    return CatalogEntry(
        name="heisenberg-3d",
        model=model,
        structure=structure,
        expected={"kind": "paracontact", "para_sasakian": True, "k_paracontact": True},
    )


def broken_jacobi_3d() -> CatalogEntry:
    """Antisymmetric structure constants that violate the Jacobi identity."""
    c = _structure_constants(3, {(0, 1): {2: 2.0}, (1, 2): {0: 1.0}, (2, 0): {0: 1.0}})
    model = LieModel(c=c, basis_labels=("X", "Y", "xi"))
    phi = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    structure = ContactMetricStructure(
        model=model, phi=phi, xi=np.eye(3)[2], eta=np.eye(3)[2], g=np.eye(3)
    )
    return CatalogEntry(
        name="broken-jacobi-3d",
        model=model,
        structure=structure,
        expected={"kind": "contact", "invalid": "jacobi"},
    )


def scaled_metric_invalid_3d() -> CatalogEntry:
    """family_3d(1, 0) with the metric doubled: breaks the d eta compatibility axiom."""
    base = family_3d(1.0, 0.0)
    s = base.structure
    structure = ContactMetricStructure(
        model=base.model, phi=s.phi, xi=s.xi, eta=s.eta, g=2.0 * s.g
    )
    return CatalogEntry(
        name="scaled-metric-3d",
        model=base.model,
        structure=structure,
        expected={"kind": "contact", "invalid": "deta_compatibility"},
    )


def tangent_bundle_constants(c: float) -> tuple[float, float, float | None]:
    """(kappa, mu, I) of the unit tangent bundle over constant curvature c.

    kappa = c(2 - c), mu = -2c; the invariant (1 + c)/|1 - c| is undefined at
    c = 1 (the Sasakian boundary kappa = 1).
    """
    kappa = c * (2.0 - c)
    mu = -2.0 * c
    if abs(c - 1.0) <= 1e-12:
        return kappa, mu, None
    return kappa, mu, (1.0 + c) / abs(1.0 - c)


STANDARD_FAMILY_PARAMS = {
    "family-3d-class-I": (1.0, 2.0),
    "family-3d-class-II": (1.0, 0.0),
    "family-3d-class-III": (1.0, -2.0),
    "family-3d-class-IV": (1.0, 1.0),
    "family-3d-class-V": (1.0, -1.0),
}


# name -> constructor, in the order of ``catalog list``; "family-3d" takes
# explicit (lambda, d), the others no argument
_ENTRIES = {
    "nilpotent-h-5d": nilpotent_h_5d,
    "heisenberg-3d": heisenberg_3d,
    "family-3d": family_3d,
    **{name: functools.partial(family_3d, *p) for name, p in STANDARD_FAMILY_PARAMS.items()},
    "broken-jacobi-3d": broken_jacobi_3d,
    "scaled-metric-3d": scaled_metric_invalid_3d,
}


def list_entries() -> list[str]:
    """Names accepted by :func:`get_entry` (family-3d also takes explicit parameters)."""
    return list(_ENTRIES)


def get_entry(name: str, lam: float | None = None, d: float | None = None) -> CatalogEntry:
    if name not in _ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}; see list_entries()")
    if name != "family-3d":
        return _ENTRIES[name]()
    if lam is None or d is None:
        raise NonPositiveLambda("family-3d requires --lambda and --d")
    return family_3d(lam, d)
