"""Paracontact metric structures, their nullity condition and canonical connection.

A paracontact metric structure (phi~, xi, eta, g~) satisfies

    phi~^2 = I - eta (x) xi,   d eta(X, Y) = g~(X, phi~ Y),
    g~(phi~ X, phi~ Y) = -g~(X, Y) + eta(X) eta(Y),

with g~ of signature (n+1, n) and the +-1 eigendistributions of phi~ on
ker(eta) each n-dimensional.  The operator h~ = (1/2) L_xi phi~ is
g~-symmetric but, the metric being indefinite, need not be diagonalizable;
its square is always proportional to phi~^2 on nullity spaces, and the sign
of that scalar classifies the spectrum (real pair / complex pair / nilpotent).

:class:`ParacontactMetricStructure` is the eps = -1 member of
:class:`kmgeom.contact.MetricStructure`: its fields ``phi``, ``g`` and ``h``
hold phi~, g~ and h~.  It is validated and fitted by the contact functions,
:func:`kmgeom.contact.validate_contact` and :func:`kmgeom.contact.nullity_fit`,
whose :class:`kmgeom.contact.NullityReport` carries the spectral type of h~,
decided in the fit's one pass from the scalar s with h~^2 = s phi~^2.
This module adds what only the paracontact side has: the canonical
paracontact connection and the integrability and para-Sasakian predicates,
each a function of (s, tol) whose result is kept on ``s``.
"""

import numpy as np

from .contact import MetricStructure, nabla_phi_closed_form
from .errors import InternalInconsistency
from .report import DEFAULT_TOL, ResidualReport, max_abs
from .riemann import AffineConnection, eta_x, eta_y, form_xy, on_pairs


class ParacontactMetricStructure(MetricStructure):
    """Tensor quadruple (phi, xi, eta, g) on a Lie model, with cached h: the
    eps = -1 member of :class:`MetricStructure`, whose ``phi``, ``g`` and ``h``
    are phi~, g~ and h~."""

    eps = -1.0
    kind = "paracontact"


def canonical_pc_connection(
    s: ParacontactMetricStructure, tol: float = DEFAULT_TOL
) -> tuple[AffineConnection, ResidualReport]:
    """The canonical paracontact connection and its defining-property report, built once per tol.

    nabla^pc_X Y = nabla~_X Y + eta(X) phi~ Y + eta(Y)(phi~ X - phi~ h~ X)
                   + g~(X - h~ X, phi~ Y) xi

    Verified properties: parallel eta / xi / g~; the prescribed phi~-derivative
    shift; torsion reflection through phi~ in the xi slot; torsion equal to
    2 d eta(X, Y) xi on the contact distribution; and the full closed-form
    torsion eta(X) phi~ h~ Y - eta(Y) phi~ h~ X + 2 g~(X, phi~ Y) xi.
    """
    conn, report, _ = _pc_connection(s, tol)
    return conn, report


def _pc_connection(
    s: ParacontactMetricStructure, tol: float
) -> tuple[AffineConnection, ResidualReport, np.ndarray]:
    """:func:`canonical_pc_connection` with (nabla^pc_{e_i} phi~) e_j at [i, j, :],
    built once per ``tol`` and kept on ``s``."""

    def build():
        m, phi, xi, eta, g, h = s.model, s.phi, s.xi, s.eta, s.g, s.h
        lc = s.levi_civita(tol)
        ident = np.eye(s.dim)
        phih = phi @ h

        gamma = lc.gamma + eta_x(eta, phi) + eta_y(eta, phi - phih)
        gamma += form_xy((ident - h).T @ g @ phi, xi)
        conn = AffineConnection(gamma=gamma)

        report = ResidualReport(tol=tol)
        report.add("parallel_eta", -(conn.gamma @ eta))  # [i, j] = (nabla_{e_i} eta)(e_j)
        report.add("parallel_xi", xi @ conn.gamma)  # [i, :] = nabla_{e_i} xi
        report.add("parallel_metric", conn.nabla_bilinear_all(g))
        nabla_phi = conn.nabla_endo_all(phi)
        report.add("phi_derivative_identity",
                   nabla_phi - (s.nabla_phi(tol) - nabla_phi_closed_form(s, h)))

        tors = conn.torsion(m)
        t_xi = np.tensordot(xi, tors, 1)  # [j, :] = T(xi, e_j)
        report.add("torsion_phi_reflection", phi.T @ t_xi + t_xi @ phi.T)
        closed = eta_x(eta, phih) - eta_y(eta, phih) + 2.0 * form_xy(g @ phi, xi)
        report.add("torsion_closed_form", tors - closed)
        kbasis = s.contact_basis()
        report.add("torsion_on_contact_distribution",
                   on_pairs(tors - 2.0 * form_xy(s.d_eta(), xi), kbasis, kbasis))
        return conn, report, nabla_phi

    return s.cached(("canonical_pc_connection", tol), build)


def integrability_and_parasasaki(
    s: ParacontactMetricStructure, tol: float = DEFAULT_TOL
) -> dict:
    """Integrability and para-Sasakian predicates, computed once per ``tol`` and kept
    on ``s``.

    Integrability is computed two independent ways (Nijenhuis torsion valued
    in R xi on the contact distribution, and vanishing of nabla^pc phi~); a
    disagreement beyond 10 tol signals an engine bug, not a model property.
    The curvature form R~_{XY} xi = -(eta(Y) X - eta(X) Y) that a para-Sasakian
    structure satisfies is the kappa~ = -1 nullity condition of :func:`nullity_fit`.
    """

    def build():
        kbasis = s.contact_basis()
        nij = on_pairs(s.nijenhuis_tensor(), kbasis, kbasis)
        worst_d = max_abs(nij @ s.contact_projector().T)  # N on D x D off the line R xi
        integrable_n = worst_d <= tol

        _, _, pc_nabla_phi = _pc_connection(s, tol)
        worst_pc = max_abs(pc_nabla_phi)
        integrable_pc = worst_pc <= tol

        if integrable_n != integrable_pc and abs(worst_d - worst_pc) > 10.0 * tol:
            raise InternalInconsistency(
                f"integrability criteria disagree: Nijenhuis residual {worst_d:.3e}, "
                f"nabla^pc phi~ residual {worst_pc:.3e}"
            )

        # para-Sasakian: (nabla~_X phi~) Y = -g~(X, Y) xi + eta(Y) X, the closed form at h~ = 0
        ps = max_abs(s.nabla_phi(tol) - nabla_phi_closed_form(s, 0.0))
        return {
            "integrable": bool(integrable_n),
            "para_sasakian": bool(ps <= tol),
            "nijenhuis_d_residual": worst_d,
            "pc_parallel_phi_residual": worst_pc,
            "para_sasaki_residual": ps,
        }

    return s.cached(("integrability_and_parasasaki", tol), build)
