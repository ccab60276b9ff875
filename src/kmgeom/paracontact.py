"""Paracontact metric structures, their nullity condition and canonical connection.

A paracontact metric structure (phi~, xi, eta, g~) satisfies

    phi~^2 = I - eta (x) xi,   d eta(X, Y) = g~(X, phi~ Y),
    g~(phi~ X, phi~ Y) = -g~(X, Y) + eta(X) eta(Y),

with g~ of signature (n+1, n) and the +-1 eigendistributions of phi~ on
ker(eta) each n-dimensional.  The operator h~ = (1/2) L_xi phi~ is
g~-symmetric but, the metric being indefinite, need not be diagonalizable;
its square is always proportional to phi~^2 on nullity spaces, and the sign
of that scalar classifies the spectrum (real pair / complex pair / nilpotent).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, InternalInconsistency, NotNullity
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
    on_pairs,
    signature,
)
from .contact import _fit_r_xi, _kernel_basis


@dataclass(frozen=True)
class ParacontactMetricStructure:
    """Tensor quadruple (phi_t, xi, eta, g_t) on a Lie model, with cached h_t."""

    model: LieModel
    phi_t: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    g_t: np.ndarray
    h_t: np.ndarray = None

    def __post_init__(self):
        for name in ("phi_t", "xi", "eta", "g_t"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.h_t is None:
            h = 0.5 * lie_derivative_endo(self.model, self.xi, self.phi_t)
            object.__setattr__(self, "h_t", h)

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def d_eta(self) -> np.ndarray:
        return d_one_form(self.model, self.eta)

    def levi_civita(self, tol: float = DEFAULT_TOL) -> AffineConnection:
        return levi_civita(self.model, self.g_t, tol)

    def contact_projector(self) -> np.ndarray:
        return np.eye(self.dim) - np.outer(self.xi, self.eta)

    def contact_basis(self) -> np.ndarray:
        return _kernel_basis(self.eta)


@dataclass(frozen=True)
class ParaNullityReport:
    """Fitted paracontact nullity constants and the spectral type of h~."""

    kappa_t: float
    mu_t: float | None
    residual: float
    spectral_type: str  # real_pair | complex_pair | nilpotent | zero
    lambda_t: float | None  # sqrt(s) when real_pair
    s: float  # scalar with h~^2 = s phi~^2
    para1_residual: float  # |h~^2 - (1 + kappa_t) phi~^2|
    rz_residual: float

    @property
    def mu_indeterminate(self) -> bool:
        return self.mu_t is None

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa_t,
            "mu": self.mu_t,
            "mu_indeterminate": self.mu_indeterminate,
            "residual": self.residual,
            "spectral_type": self.spectral_type,
            "lambda": self.lambda_t,
            "h_square_scalar": self.s,
            "h_square_vs_kappa_residual": self.para1_residual,
            "curvature_reflection_residual": self.rz_residual,
        }


def validate_paracontact(s: ParacontactMetricStructure, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Per-axiom residual report for a paracontact metric structure."""
    report = ResidualReport(tol=tol)
    dim, n = s.dim, s.n
    phi, xi, eta, g, h = s.phi_t, s.xi, s.eta, s.g_t, s.h_t
    ident = np.eye(dim)
    deta = s.d_eta()

    report.add("phi_square", phi @ phi - ident + np.outer(xi, eta))
    report.add("deta_compatibility", deta - g @ phi)
    report.add("metric_compatibility", phi.T @ g @ phi + g - np.outer(eta, eta))
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
    report.add(
        "paracontact_signature",
        0.0 if (p == n + 1 and q == n and z == 0) else 1.0,
        note=f"signature ({p},{q},{z}), expected ({n + 1},{n},0)",
    )
    # +-1 eigendistributions of phi~ restricted to ker(eta) must have rank n each
    for sign, name in ((1.0, "plus_one_eigenrank"), (-1.0, "minus_one_eigenrank")):
        mat = (phi - sign * ident) @ k.T  # columns: (phi -+ I) applied to a ker(eta) basis
        rank = int(np.linalg.matrix_rank(mat, tol=max(tol, 1e-12)))
        report.add(name, 0.0 if rank == n else float(abs(rank - n)),
                   note=f"rank {rank}, expected {n}")

    report.add("h_xi", h @ xi)
    report.add("eta_circ_h", eta @ h)
    report.add("h_phi_anticommute", h @ phi + phi @ h)
    report.add("trace_h", np.trace(h))
    report.add("h_g_symmetric", h.T @ g - g @ h)
    try:
        conn = s.levi_civita(tol)
        # xi @ gamma has rows nabla_{e_i} xi, the columns of the operator nabla xi
        report.add("nabla_xi_identity", (xi @ conn.gamma).T - (-phi + phi @ h))
    except (DegenerateMetric, np.linalg.LinAlgError) as exc:  # record, keep reporting
        report.add("nabla_xi_identity", np.inf, note=str(exc))
    return report


def h_square_scalar(s: ParacontactMetricStructure) -> tuple[float, float]:
    """Least-squares scalar with h~^2 = s phi~^2, and the residual of that fit.

    Preferred over an eigensolver: g~-symmetric operators under an indefinite
    metric may be non-diagonalizable, while s is always well-defined on the
    structures this engine certifies.
    """
    h2 = s.h_t @ s.h_t
    p2 = s.phi_t @ s.phi_t
    denom = float(np.sum(p2 * p2))
    scal = float(np.sum(h2 * p2) / denom)
    return scal, max_abs(h2 - scal * p2)


def spectral_type(s: ParacontactMetricStructure, tol: float = DEFAULT_TOL) -> tuple[str, float, float | None]:
    """Classify h~ by the sign of s in h~^2 = s phi~^2.

    Returns (type, s, lambda_t): real eigenvalue pair +-sqrt(s) for s > 0,
    complex pair for s < 0, nilpotent for s = 0 with h~ != 0, zero otherwise.
    """
    scal, fit_residual = h_square_scalar(s)
    if not fit_residual <= tol:
        raise InternalInconsistency(
            f"h~^2 is not proportional to phi~^2 (residual {fit_residual:.3e})"
        )
    if max_abs(s.h_t) <= tol:
        return "zero", scal, None
    if scal > tol:
        return "real_pair", scal, float(np.sqrt(scal))
    if scal < -tol:
        return "complex_pair", scal, None
    return "nilpotent", scal, None


def para_nullity_fit(s: ParacontactMetricStructure, tol: float = DEFAULT_TOL) -> ParaNullityReport:
    """Fit (kappa~, mu~), classify the spectrum of h~ and run the side checks.

    Side checks: h~^2 = (1 + kappa~) phi~^2 and the curvature reflection
    identity R~_{xi X} xi + phi~ R~_{xi phi~ X} xi = 2 (phi~^2 X - h~^2 X).
    """
    conn = s.levi_civita(tol)
    r_xi = curvature_xi(s.model, conn, s.xi)
    kappa, mu, residual = _fit_r_xi(r_xi, s.xi, s.eta, s.h_t, tol)
    if not residual <= tol:
        raise NotNullity(
            f"curvature does not satisfy a paracontact nullity condition "
            f"(residual {residual:.3e})",
            residual,
        )
    stype, scal, lam = spectral_type(s, tol)
    p2 = s.phi_t @ s.phi_t
    h2 = s.h_t @ s.h_t
    para1 = max_abs(h2 - (1.0 + kappa) * p2)
    # rows R~_{xi e_i} xi + phi~ R~_{xi phi~ e_i} xi against the columns of 2 (phi~^2 - h~^2)
    r_xi_x = np.tensordot(s.xi, r_xi, 1)
    rz = max_abs(r_xi_x + s.phi_t.T @ r_xi_x @ s.phi_t.T - 2.0 * (p2 - h2).T)

    return ParaNullityReport(
        kappa_t=kappa,
        mu_t=mu,
        residual=residual,
        spectral_type=stype,
        lambda_t=lam,
        s=scal,
        para1_residual=para1,
        rz_residual=rz,
    )


def canonical_pc_connection(
    s: ParacontactMetricStructure, tol: float = DEFAULT_TOL
) -> tuple[AffineConnection, ResidualReport]:
    """The canonical paracontact connection and its defining-property report.

    nabla^pc_X Y = nabla~_X Y + eta(X) phi~ Y + eta(Y)(phi~ X - phi~ h~ X)
                   + g~(X - h~ X, phi~ Y) xi

    Verified properties: parallel eta / xi / g~; the prescribed phi~-derivative
    shift; torsion reflection through phi~ in the xi slot; torsion equal to
    2 d eta(X, Y) xi on the contact distribution; and the full closed-form
    torsion eta(X) phi~ h~ Y - eta(Y) phi~ h~ X + 2 g~(X, phi~ Y) xi.
    """
    m, phi, xi, eta, g, h = s.model, s.phi_t, s.xi, s.eta, s.g_t, s.h_t
    lc = s.levi_civita(tol)
    ident = np.eye(s.dim)
    phih = phi @ h

    gamma = lc.gamma + eta_x(eta, phi) + eta_y(eta, phi - phih) + form_xy((ident - h).T @ g @ phi, xi)
    conn = AffineConnection(gamma=gamma)

    report = ResidualReport(tol=tol)
    report.add("parallel_eta", -(conn.gamma @ eta))  # [i, j] = (nabla_{e_i} eta)(e_j)
    report.add("parallel_xi", xi @ conn.gamma)  # [i, :] = nabla_{e_i} xi
    report.add("parallel_metric", conn.nabla_bilinear_all(g))
    rhs = lc.nabla_endo_all(phi) - eta_y(eta, ident - h) + form_xy((ident - h).T @ g, xi)
    report.add("phi_derivative_identity", conn.nabla_endo_all(phi) - rhs)

    tors = conn.torsion(m)
    t_xi = np.tensordot(xi, tors, 1)  # [j, :] = T(xi, e_j)
    report.add("torsion_phi_reflection", phi.T @ t_xi + t_xi @ phi.T)
    closed = eta_x(eta, phih) - eta_y(eta, phih) + 2.0 * form_xy(g @ phi, xi)
    report.add("torsion_closed_form", tors - closed)
    kbasis = _kernel_basis(eta)
    report.add("torsion_on_contact_distribution",
               on_pairs(tors - 2.0 * form_xy(s.d_eta(), xi), kbasis, kbasis))
    return conn, report


def integrability_and_parasasaki(
    s: ParacontactMetricStructure, tol: float = DEFAULT_TOL
) -> dict:
    """Integrability and para-Sasakian predicates.

    Integrability is computed two independent ways (Nijenhuis torsion valued
    in R xi on the contact distribution, and vanishing of nabla^pc phi~); a
    disagreement beyond 10 tol signals an engine bug, not a model property.
    """
    m, phi, xi, eta = s.model, s.phi_t, s.xi, s.eta
    kbasis = _kernel_basis(eta)
    nij = on_pairs(nijenhuis_tensor(m, phi, xi, eta, -1.0), kbasis, kbasis)
    worst_d = max_abs(nij @ s.contact_projector().T)  # N on D x D off the line R xi
    integrable_n = worst_d <= tol

    conn_pc, _ = canonical_pc_connection(s, tol)
    worst_pc = max_abs(conn_pc.nabla_endo_all(phi))
    integrable_pc = worst_pc <= tol

    if integrable_n != integrable_pc and abs(worst_d - worst_pc) > 10.0 * tol:
        raise InternalInconsistency(
            f"integrability criteria disagree: Nijenhuis residual {worst_d:.3e}, "
            f"nabla^pc phi~ residual {worst_pc:.3e}"
        )

    lc = s.levi_civita(tol)
    ident = np.eye(s.dim)
    # para-Sasakian: (nabla~_X phi~) Y = -g~(X, Y) xi + eta(Y) X
    ps = max_abs(lc.nabla_endo_all(phi) + form_xy(s.g_t, xi) - eta_y(eta, ident))
    para_sasakian = ps <= tol
    curv_res = None
    if para_sasakian:
        # curvature consequence R~_{XY} xi = -(eta(Y) X - eta(X) Y), i.e. the
        # kappa~ = -1 nullity form that the covariant condition forces
        curv_res = max_abs(curvature_xi(m, lc, xi) + eta_y(eta, ident) - eta_x(eta, ident))

    return {
        "integrable": bool(integrable_n),
        "para_sasakian": bool(para_sasakian),
        "nijenhuis_d_residual": worst_d,
        "pc_parallel_phi_residual": worst_pc,
        "para_sasaki_residual": ps,
        "para_sasaki_curvature_residual": curv_res,
    }
