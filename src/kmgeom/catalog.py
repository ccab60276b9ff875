"""Built-in fixture models, and the one source of the model families and
transforms that the tests check the paper's claims on.

* ``nilpotent_h_5d``: the 5-dimensional solvable model carrying a left-invariant
  paracontact metric structure whose h~ is nonzero but squares to zero
  (nilpotent spectral type, kappa~ = -1).
* ``family_3d(lambda, d)``: a two-parameter family of 3-dimensional contact
  metric nullity structures with kappa = 1 - lambda^2, mu = 2 - 2d and Boeckx
  invariant d / lambda; sweeping d at fixed lambda realizes all five classes,
  one point each in ``STANDARD_FAMILY_PARAMS``.  Its correctness is anchored by
  hand-computed Christoffel symbols frozen in the test suite.
* ``heisenberg(dim, kind)``: the Heisenberg model H_dim, Sasakian (contact) or
  para-Sasakian (paracontact); the ``heisenberg-3d`` entry is its dim-3
  paracontact case, whose flat bi-Legendrian pair induces the para-Sasakian
  structure.
* ``tangent_bundle_constants(c)``: the (kappa, mu, I) constants of the unit
  tangent bundle of a constant-curvature-c space (constants only, no model).
* ``rebased(entry, p)`` and ``d_homothetic(entry, a)``: the same structure in
  another basis, and its D-homothetic deformation; each keeps the structure's kind.
"""

import functools

import numpy as np

from .contact import ContactMetricStructure, ParacontactMetricStructure, classify_by_invariant
from .errors import NonPositiveLambda
from .lie_model import ContactForm, LieModel, _structure_constants
from .modelfile import CatalogEntry


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
    structure = ParacontactMetricStructure(ContactForm(model, xi, eta), phi, g)
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


def _frame_3d(c: np.ndarray) -> tuple[LieModel, ContactMetricStructure]:
    """The model of the structure constants ``c`` on the basis (X, Y, xi), with the
    contact metric structure phi X = Y, phi Y = -X, xi = eta = e_3 and g the identity."""
    model = LieModel(c=c, basis_labels=("X", "Y", "xi"))
    phi = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return model, ContactMetricStructure(ContactForm(model, np.eye(3)[2], np.eye(3)[2]), phi, np.eye(3))


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
    model, structure = _frame_3d(c)
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


def heisenberg(dim: int, kind: str = "contact") -> CatalogEntry:
    """H_dim with [X_i, Y_i] = 2 xi on the basis (X_1..X_n, Y_1..Y_n, xi), labelled
    (X, Y, xi) at dim 3.

    contact: phi X_i = Y_i, g = I (Sasakian, kappa = 1).  paracontact:
    phi~ = +1 on X, -1 on Y, g~ pairs X_i with Y_i (para-Sasakian).
    """
    n = (dim - 1) // 2
    c = np.zeros((dim, dim, dim))
    c[range(n), range(n, 2 * n), -1] = 2.0
    c[range(n, 2 * n), range(n), -1] = -2.0
    model = LieModel(c=c, basis_labels=("X", "Y", "xi") if dim == 3 else None)
    xi = np.eye(dim)[-1]
    pair = np.zeros((dim, dim))
    pair[n : 2 * n, :n] = np.eye(n)  # X_i -> Y_i
    if kind == "contact":
        structure = ContactMetricStructure(ContactForm(model, xi, xi), pair - pair.T, np.eye(dim))
        expected = {"kind": kind, "kappa": 1.0, "sasakian": True}
    else:
        g = pair + pair.T
        g[-1, -1] = 1.0
        phi = np.diag([1.0] * n + [-1.0] * n + [0.0])
        structure = ParacontactMetricStructure(ContactForm(model, xi, xi), phi, g)
        expected = {"kind": kind, "para_sasakian": True, "spectral_type": "zero"}
    return CatalogEntry(f"heisenberg-{dim}-{kind}", model, structure, expected)


def broken_jacobi_3d() -> CatalogEntry:
    """Antisymmetric structure constants that violate the Jacobi identity."""
    c = _structure_constants(3, {(0, 1): {2: 2.0}, (1, 2): {0: 1.0}, (2, 0): {0: 1.0}})
    model, structure = _frame_3d(c)
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
    structure = ContactMetricStructure(s.form, s.phi, 2.0 * s.g)
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


def rebased(entry: CatalogEntry, p: np.ndarray) -> CatalogEntry:
    """``entry`` in the basis f_a = sum_i p[i, a] e_i (p invertible), with the
    structure constants antisymmetrized and the metric symmetrized after the change.
    The name and expected block stay (its constants do not depend on the basis); the
    basis labels go.

    The einsum contracts one operand at a time (``optimize=True``): O(dim^4), where
    the plain four-operand loop is O(dim^7) and takes tens of seconds at dim 41."""
    s = entry.structure
    p_inv = np.linalg.inv(p)
    c = np.einsum("ia,jb,ijk,lk->abl", p, p, s.model.c, p_inv, optimize=True)
    g = p.T @ s.g @ p
    model = LieModel(c=0.5 * (c - c.transpose(1, 0, 2)))
    form = ContactForm(model, p_inv @ s.xi, s.eta @ p)
    structure = type(s)(form, p_inv @ s.phi @ p, 0.5 * (g + g.T))
    return entry._replace(model=model, structure=structure)


def d_homothetic(entry: CatalogEntry, a: float) -> CatalogEntry:
    """The D-homothetic deformation eta' = a eta, xi' = xi / a, phi' = phi with its
    compatible metric g' = a g + a (a - 1) eta (x) eta.  It takes (kappa, mu) to
    ((kappa + eps (a^2 - 1)) / a^2, (mu + 2a - 2) / a) and keeps I_M (Tanno); the
    expected block, which holds the undeformed constants, is dropped."""
    s = entry.structure
    deformed = type(s).compatible(ContactForm(s.model, s.xi / a, a * s.eta), s.phi)
    return CatalogEntry(entry.name, entry.model, deformed)


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
    "heisenberg-3d": lambda: heisenberg(3, "paracontact")._replace(name="heisenberg-3d"),
    "family-3d": family_3d,
    **{name: functools.partial(family_3d, *p) for name, p in STANDARD_FAMILY_PARAMS.items()},
    "broken-jacobi-3d": broken_jacobi_3d,
    "scaled-metric-3d": scaled_metric_invalid_3d,
}


def list_entries() -> list[str]:
    """Names accepted by :func:`get_entry` (family-3d also takes explicit parameters)."""
    return list(_ENTRIES)


def get_entry(name: str, lam: float | None = None, d: float | None = None) -> CatalogEntry:
    """The entry ``name``; family-3d takes ``lam`` and ``d``, and without them raises
    TypeError (a missing argument, not a :class:`NonPositiveLambda`)."""
    if name not in _ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}; see list_entries()")
    if name != "family-3d":
        return _ENTRIES[name]()
    if lam is None or d is None:
        raise TypeError("family-3d requires lam and d")
    return family_3d(lam, d)
