"""Contact metric structures and the (kappa, mu)-nullity machinery.

A contact metric structure is a quadruple (phi, xi, eta, g) with

    phi^2 = -I + eta (x) xi,   d eta(X, Y) = g(X, phi Y),
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),

g Riemannian.  The operator h = (1/2) L_xi phi measures the failure of the
Reeb field to be Killing; a structure is a (kappa, mu)-space when

    R_{X Y} xi = kappa (eta(Y) X - eta(X) Y) + mu (eta(Y) h X - eta(X) h Y)

for constants kappa, mu.  Non-Sasakian (kappa < 1) spaces carry the Boeckx
invariant I_M = (1 - mu/2) / sqrt(1 - kappa), which positions the structure
in one of five classes and drives every derived construction downstream.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotNullity, SasakianOrInvalid
from .lie_model import LieModel, d_one_form, lie_derivative_endo
from .report import DEFAULT_TOL, ResidualReport, max_abs
from .riemann import (
    AffineConnection,
    curvature_xi,
    eta_x,
    eta_y,
    form_xy,
    levi_civita,
    nijenhuis_tensor,
    signature,
)

# Nijenhuis vanishing uses a looser threshold: two bracket layers of roundoff.
SASAKIAN_FACTOR = 10.0


@dataclass(frozen=True)
class ContactMetricStructure:
    """Tensor quadruple (phi, xi, eta, g) on a Lie model, with cached h."""

    model: LieModel
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    g: np.ndarray
    h: np.ndarray = None

    def __post_init__(self):
        for name in ("phi", "xi", "eta", "g"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.h is None:
            h = 0.5 * lie_derivative_endo(self.model, self.xi, self.phi)
            object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def d_eta(self) -> np.ndarray:
        return d_one_form(self.model, self.eta)

    def levi_civita(self, tol: float = DEFAULT_TOL) -> AffineConnection:
        return levi_civita(self.model, self.g, tol)

    def contact_projector(self) -> np.ndarray:
        """Projector onto the contact distribution ker(eta) along xi."""
        return np.eye(self.dim) - np.outer(self.xi, self.eta)

    def contact_basis(self) -> np.ndarray:
        """Orthonormal (Euclidean) basis of ker(eta), shape (2n, dim)."""
        return _kernel_basis(self.eta)


def _kernel_basis(eta: np.ndarray) -> np.ndarray:
    dim = eta.shape[0]
    _, _, vt = np.linalg.svd(eta[None, :])
    return vt[1:dim]


@dataclass(frozen=True)
class NullityReport:
    """Fitted nullity constants and derived invariants of a contact structure."""

    kappa: float
    mu: float | None  # None when h = 0 makes mu indeterminate
    residual: float
    lam: float | None  # sqrt(1 - kappa) for kappa < 1
    boeckx: float | None  # undefined for Sasakian structures
    class_tag: str  # "I".."V" or "Sasakian"

    @property
    def mu_indeterminate(self) -> bool:
        return self.mu is None

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "mu": self.mu,
            "mu_indeterminate": self.mu_indeterminate,
            "residual": self.residual,
            "lambda": self.lam,
            "boeckx": self.boeckx,
            "class": self.class_tag,
        }


def validate_contact(s: ContactMetricStructure, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Per-axiom residual report; the structure is valid iff all entries <= tol.

    Reports rather than raises so invalid inputs can be inspected.
    """
    report = ResidualReport(tol=tol)
    dim, phi, xi, eta, g, h = s.dim, s.phi, s.xi, s.eta, s.g, s.h
    ident = np.eye(dim)
    deta = s.d_eta()

    report.add("phi_square", phi @ phi + ident - np.outer(xi, eta))
    report.add("deta_compatibility", deta - g @ phi)
    report.add("metric_compatibility", phi.T @ g @ phi - g + np.outer(eta, eta))
    report.add("eta_xi", eta @ xi - 1.0)
    report.add("phi_xi", phi @ xi)
    report.add("eta_circ_phi", eta @ phi)
    report.add("eta_is_g_xi", g @ xi - eta)

    k = _kernel_basis(eta)
    det_restricted = np.linalg.det(k @ deta @ k.T)
    report.add(
        "contact_nondegeneracy",
        0.0 if abs(det_restricted) > tol else 1.0,
        note=f"|det d_eta|_ker eta| = {abs(det_restricted):.3e}",
    )
    p, q, z = signature(g, tol)
    report.add("riemannian_signature", 0.0 if (q == 0 and z == 0) else 1.0,
               note=f"signature ({p},{q},{z})")

    report.add("h_xi", h @ xi)
    report.add("eta_circ_h", eta @ h)
    report.add("h_phi_anticommute", h @ phi + phi @ h)
    report.add("trace_h", np.trace(h))
    report.add("trace_phi_h", np.trace(phi @ h))
    report.add("h_g_symmetric", h.T @ g - g @ h)
    return report


def nijenhuis_norm(s: ContactMetricStructure, tol: float = DEFAULT_TOL) -> tuple[float, ResidualReport]:
    """Max-abs of N_phi over basis pairs, plus side identities.

    The side residuals check phi N(X,Y) + N(phi X, Y) = 2 eta(X) h Y and the
    vanishing of eta(N(phi X, Y)).
    """
    nij = nijenhuis_tensor(s.model, s.phi, s.xi, s.eta, 1.0)
    nij_phi = np.tensordot(s.phi.T, nij, 1)  # [i, j, :] = N(phi e_i, e_j)
    side = ResidualReport(tol=tol)
    side.add("nijenhuis_phi_shift", nij @ s.phi.T + nij_phi - 2.0 * eta_x(s.eta, s.h))
    side.add("nijenhuis_eta_component", nij_phi @ s.eta)
    return max_abs(nij), side


def _fit_r_xi(
    r_xi: np.ndarray,
    xi: np.ndarray,
    eta: np.ndarray,
    h: np.ndarray,
    tol: float,
) -> tuple[float, float | None, float]:
    """Least-squares (kappa, mu) from R_{b xi} xi = kappa b + mu h b over ker(eta).

    ``r_xi`` is :func:`curvature_xi`.  Shared by the contact and paracontact
    fits; returns (kappa, mu, residual) with mu = None when ||h|| <= tol (the
    mu-term is identically zero); the residual is that of the full equation
    R_{X Y} xi = kappa (eta(Y) X - eta(X) Y) + mu (eta(Y) h X - eta(X) h Y).
    """
    dbasis = _kernel_basis(eta)
    h_zero = max_abs(h) <= tol
    cols = [dbasis] if h_zero else [dbasis, dbasis @ h.T]  # rows b and h b
    a = np.stack([col.ravel() for col in cols], axis=1)
    t = (dbasis @ (xi @ r_xi)).ravel()  # rows R_{b xi} xi
    sol, *_ = np.linalg.lstsq(a, t, rcond=None)
    kappa, mu = float(sol[0]), (None if h_zero else float(sol[1]))
    ident = np.eye(len(eta))
    pred = kappa * (eta_y(eta, ident) - eta_x(eta, ident))
    if mu is not None:
        pred = pred + mu * (eta_y(eta, h) - eta_x(eta, h))
    return kappa, mu, max_abs(r_xi - pred)


def boeckx_invariant(kappa: float, mu: float, tol: float = DEFAULT_TOL) -> float:
    """I_M = (1 - mu/2) / sqrt(1 - kappa); undefined at kappa >= 1."""
    if kappa >= 1.0 - tol:
        raise SasakianOrInvalid(f"Boeckx invariant undefined for kappa = {kappa} >= 1")
    return (1.0 - mu / 2.0) / np.sqrt(1.0 - kappa)


def classify_by_invariant(boeckx: float | None, tol: float = DEFAULT_TOL) -> str:
    """Class tag from the position of I_M relative to +-1."""
    if boeckx is None:
        return "Sasakian"
    if abs(boeckx - 1.0) <= tol:
        return "IV"
    if abs(boeckx + 1.0) <= tol:
        return "V"
    if boeckx > 1.0:
        return "I"
    if boeckx < -1.0:
        return "III"
    return "II"


def nullity_fit(s: ContactMetricStructure, tol: float = DEFAULT_TOL) -> NullityReport:
    """Fit (kappa, mu) and verify the full nullity tensor equation.

    Raises :class:`NotNullity` when the best-fit residual exceeds ``tol``
    (a valid contact metric structure that is not a nullity space), and
    :class:`NotNullity` with a kappa diagnostic when kappa lands above 1
    beyond roundoff, which no contact metric structure can do.
    """
    conn = s.levi_civita(tol)
    r_xi = curvature_xi(s.model, conn, s.xi)
    kappa, mu, residual = _fit_r_xi(r_xi, s.xi, s.eta, s.h, tol)
    if not residual <= tol:
        raise NotNullity(
            f"curvature does not satisfy a nullity condition (residual {residual:.3e})",
            residual,
        )
    if kappa > 1.0 + tol:
        raise NotNullity(f"fitted kappa = {kappa} exceeds 1", residual)

    sasakian = kappa >= 1.0 - tol
    lam = None if sasakian else float(np.sqrt(1.0 - kappa))
    boeckx = None
    if not sasakian and mu is not None:
        boeckx = boeckx_invariant(kappa, mu, tol)
    tag = classify_by_invariant(None if sasakian else boeckx, tol)
    return NullityReport(
        kappa=kappa, mu=mu, residual=residual, lam=lam, boeckx=boeckx, class_tag=tag
    )


def blair_identity_suite(
    s: ContactMetricStructure, kappa: float, mu: float, tol: float = DEFAULT_TOL
) -> ResidualReport:
    """Covariant-derivative identities of a (kappa, mu)-space.

    Checks, over all basis pairs (X, Y):

    * (nabla_X phi) Y = g(X, Y + hY) xi - eta(Y)(X + hX)
    * (nabla_X h) Y   = ((1-kappa) g(X, phi Y) + g(X, phi h Y)) xi
                        + eta(Y) h(phi X + phi h X) - mu phi h Y
    * (nabla_X phi h) Y = (g(X, hY) - (1-kappa) g(X, phi^2 Y)) xi
                          + eta(Y)(hX - (1-kappa) phi^2 X) + mu eta(X) hY
    * h^2 = (kappa - 1) phi^2
    * nabla_xi h = mu h phi
    """
    report = ResidualReport(tol=tol)
    phi, xi, eta, g, h = s.phi, s.xi, s.eta, s.g, s.h
    conn = s.levi_civita(tol)
    ident = np.eye(s.dim)
    phih = phi @ h
    phi2 = phi @ phi
    d_h = conn.nabla_endo_all(h)

    rhs1 = form_xy(g @ (ident + h), xi) - eta_y(eta, ident + h)
    rhs2 = form_xy(g @ ((1 - kappa) * phi + h @ phi), xi)
    rhs2 += eta_y(eta, h @ (phi + phih)) - mu * eta_x(eta, phih)
    rhs3 = form_xy(g @ (h - (1 - kappa) * phi2), xi)
    rhs3 += eta_y(eta, h - (1 - kappa) * phi2) + mu * eta_x(eta, h)
    report.add("nabla_phi_identity", conn.nabla_endo_all(phi) - rhs1)
    report.add("nabla_h_identity", d_h - rhs2)
    report.add("nabla_phi_h_identity", conn.nabla_endo_all(phih) - rhs3)
    report.add("h_square_identity", h @ h - (kappa - 1) * phi2)
    # rows (nabla_xi h) e_j against the columns of mu h phi
    report.add("nabla_xi_h_identity", np.tensordot(xi, d_h, 1) - mu * (h @ phi).T)
    return report


def classification_flags(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> dict:
    """Sasakian / K-contact / Tanaka-Webster-parallel predicates.

    ``tw_parallel`` uses the mu = 2 criterion for non-Sasakian nullity spaces.
    """
    nij, _ = nijenhuis_norm(s, tol)
    sasakian = nij <= SASAKIAN_FACTOR * tol
    k_contact = max_abs(s.h) <= tol
    non_sasakian = report.kappa < 1.0 - tol
    tw_parallel = bool(non_sasakian and report.mu is not None and abs(report.mu - 2.0) <= tol)
    return {"sasakian": bool(sasakian), "k_contact": bool(k_contact), "tw_parallel": tw_parallel}
