"""Derived structures of a contact (kappa, mu)-space.

From a non-Sasakian nullity structure the engine builds, and verifies at
every step:

* the canonical paracontact structure phi~ = h / sqrt(1 - kappa) with
  g~ = d eta(., phi~ .) + eta (x) eta, itself a nullity space with constants
  (kappa - 2 + (1 - mu/2)^2, 2);
* the next structure in the tower, obtained by normalizing (1/2) L_xi phi~:
  a new *contact* structure when |I_M| < 1, a new *paracontact* structure
  when |I_M| > 1 (no construction exists at |I_M| = 1);
* the full iterated sequence of such structures;
* for |I_M| > 1, the second bi-Legendrian pair carried by h~, the family of
  compatible nullity structures it generates, the Sasakian structure
  phi-bar = +-((1 - mu/2) phi + phi h) / sqrt((1 - mu/2)^2 - (1 - kappa)),
  and the induced anti-hypercomplex triple / 3-web on the contact
  distribution.
"""

from dataclasses import dataclass, field

import numpy as np

from .contact import (
    ContactMetricStructure,
    NullityReport,
    boeckx_invariant,
    classification_flags,
    nijenhuis_norm,
    nullity_fit,
    validate_contact,
)
from .errors import (
    DegenerateInvariant,
    InternalInconsistency,
    InvariantTooSmall,
    SasakianDegenerate,
)
from .legendre import (
    LegendreDistribution,
    involutivity_residual,
    legendre_distribution,
    libermann_map,
)
from .lie_model import lie_derivative_endo
from .paracontact import (
    ParacontactMetricStructure,
    para_nullity_fit,
    validate_paracontact,
)
from .report import DEFAULT_TOL, ResidualReport, max_abs
from .riemann import eta_x, eta_y, form_xy, signature

# Guard band around |I_M| = 1: the tower normalizers contain
# sqrt(|1 - kappa - (1 - mu/2)^2|), which vanishes exactly there.
INVARIANT_GUARD = 1e-8


@dataclass(frozen=True)
class TowerNode:
    """One structure in the derived sequence, with its freshly fitted constants."""

    index: int
    kind: str  # "contact" | "paracontact"
    phi: np.ndarray
    G: np.ndarray
    kappa: float
    mu: float
    fit_residual: float
    structure: ContactMetricStructure | ParacontactMetricStructure
    tw_parallel: bool = False
    checks: ResidualReport | None = None


@dataclass(frozen=True)
class SasakianPackage:
    """A compatible Sasakian structure plus the anti-hypercomplex triple on ker(eta)."""

    phi_bar: np.ndarray
    g_bar: np.ndarray
    sign: str  # "+" for I_M > 1, "-" for I_M < -1
    triple: tuple[np.ndarray, np.ndarray, np.ndarray]  # (I1, I2, I3) with I2 I3 = I1
    structure: ContactMetricStructure
    checks: ResidualReport


@dataclass
class SecondPairAnalysis:
    """Analysis of the bi-Legendrian pair carried by h~ when |I_M| > 1."""

    lambda_t: float
    d_plus: LegendreDistribution
    d_minus: LegendreDistribution
    pang_value: float  # common diagonal value on the normalized eigenbasis
    a: float
    b: float
    kappa_new: float
    mu_new: float
    new_invariant: float
    checks: ResidualReport = field(default_factory=ResidualReport)


def _delta(kappa: float, mu: float) -> float:
    """(1 - mu/2)^2 - (1 - kappa); positive iff |I_M| > 1."""
    return (1.0 - mu / 2.0) ** 2 - (1.0 - kappa)


def _require_non_sasakian(report: NullityReport, tol: float) -> None:
    if report.kappa >= 1.0 - tol:
        raise SasakianDegenerate("construction requires a non-Sasakian structure (kappa < 1)")
    if report.mu is None:
        raise SasakianDegenerate("mu indeterminate (h = 0); no derived structure")


def canonical_paracontact(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> tuple[ParacontactMetricStructure, ResidualReport]:
    """The canonical paracontact structure of a non-Sasakian nullity space.

    phi~ = h / sqrt(1 - kappa), g~ = d eta(., phi~ .) + eta (x) eta.  The
    returned report verifies, over all basis pairs:

    * agreement of phi~ with the normalized Lie derivative of phi;
    * the closed forms 2 sqrt(1-kappa) h~ = (2 - mu) phi h + 2 (1-kappa) phi
      and h~^2 = (1 - kappa - (1 - mu/2)^2) phi^2;
    * the relation between the two Levi-Civita connections;
    * the covariant-derivative identities for phi~ and h~;
    * the fitted constants against (kappa - 2 + (1 - mu/2)^2, 2).
    """
    _require_non_sasakian(report, tol)
    kappa, mu = report.kappa, report.mu
    m, eta, xi = s.model, s.eta, s.xi
    root = np.sqrt(1.0 - kappa)
    phi_t = s.h / root
    deta = s.d_eta()
    g_t = deta @ phi_t + np.outer(eta, eta)
    st = ParacontactMetricStructure(model=m, phi_t=phi_t, xi=xi, eta=eta, g_t=g_t)

    checks = ResidualReport(tol=tol)
    checks.merge(validate_paracontact(st, tol))
    lie_phi = 0.5 * lie_derivative_endo(m, xi, s.phi) / root
    checks.add("normalized_lie_derivative", phi_t - lie_phi)
    checks.add(
        "h_tilde_closed_form",
        2.0 * root * st.h_t - ((2.0 - mu) * s.phi @ s.h + 2.0 * (1.0 - kappa) * s.phi),
    )
    checks.add(
        "h_tilde_square_closed_form",
        st.h_t @ st.h_t - (1.0 - kappa - (1.0 - mu / 2) ** 2) * s.phi @ s.phi,
    )

    checks.add("levi_civita_relation", _levi_civita_relation_residual(s, st, kappa, mu, tol))
    r_phi, r_h = _structure_derivative_residuals(st, tol)
    checks.add("nabla_phi_tilde_identity", r_phi)
    checks.add("nabla_h_tilde_identity", r_h)

    fit = para_nullity_fit(st, tol)
    checks.add("predicted_kappa_delta", abs(fit.kappa_t - (kappa - 2.0 + (1.0 - mu / 2.0) ** 2)))
    mu_t = fit.mu_t if fit.mu_t is not None else 2.0
    checks.add("predicted_mu_delta", abs(mu_t - 2.0))
    return st, checks


def _levi_civita_relation_residual(
    s: ContactMetricStructure,
    st: ParacontactMetricStructure,
    kappa: float,
    mu: float,
    tol: float,
) -> float:
    """Residual of the closed-form relation between nabla (of g) and nabla~ (of g~).

    For left-invariant fields:

        nabla~_X Y = nabla_X Y
                     + (mu/2)(eta(X) phi Y + eta(Y) phi X)
                     - (eta(X) h Y + eta(Y) h X) / sqrt(1-kappa)
                     + [ ((2-mu)/sqrt(1-kappa) g(hX, Y)
                          - 2 sqrt(1-kappa) g(phi^2 X, Y)
                          - 2 g(X, phi Y)) / 2
                         - eta(nabla_X Y) ] xi
    """
    lc = s.levi_civita(tol)
    lc_t = st.levi_civita(tol)
    root = np.sqrt(1.0 - kappa)
    phi, h, g, eta, xi = s.phi, s.h, s.g, s.eta, s.xi
    w = lc.gamma  # [i, j, :] = nabla_X Y
    rhs = w + (mu / 2.0) * (eta_x(eta, phi) + eta_y(eta, phi))
    rhs -= (eta_x(eta, h) + eta_y(eta, h)) / root
    coeff = 0.5 * ((2.0 - mu) / root * g @ h - 2.0 * root * g @ phi @ phi - 2.0 * g @ phi) - w @ eta
    rhs += form_xy(coeff, xi)
    return max_abs(lc_t.gamma - rhs)


def _structure_derivative_residuals(
    st: ParacontactMetricStructure, tol: float
) -> tuple[float, float]:
    """Residuals of the nabla~ phi~ and nabla~ h~ closed forms of a canonical
    (or tower) paracontact structure:

        (nabla~_X phi~) Y = -g~(X - h~X, Y) xi + eta(Y)(X - h~X)
        (nabla~_X h~) Y   = -eta(Y)(phi~ h~ X - phi~ h~^2 X)
                            - 2 eta(X) phi~ h~ Y
                            - g~(X, phi~ h~ Y + phi~ h~^2 Y) xi
    """
    lc = st.levi_civita(tol)
    phi, h, g, eta, xi = st.phi_t, st.h_t, st.g_t, st.eta, st.xi
    ident = np.eye(st.dim)
    phih = phi @ h
    phih2 = phih @ h
    rhs1 = -form_xy((ident - h).T @ g, xi) + eta_y(eta, ident - h)
    rhs2 = -eta_y(eta, phih - phih2) - 2.0 * eta_x(eta, phih) - form_xy(g @ (phih + phih2), xi)
    return max_abs(lc.nabla_endo_all(phi) - rhs1), max_abs(lc.nabla_endo_all(h) - rhs2)


def derive_next(
    st: ParacontactMetricStructure,
    parent: NullityReport,
    tol: float = DEFAULT_TOL,
    index: int = 1,
) -> TowerNode:
    """Normalize (1/2) L_xi phi~ into the next structure of the tower.

    ``parent`` carries the constants (kappa, mu) of the contact structure
    whose canonical paracontact structure ``st`` is; its h operator is
    recovered as sqrt(1-kappa) phi~.

    * |I_M| < 1: contact node with constants (kappa + (1 - mu/2)^2, 2),
      positive-definite metric, and h_1 = sqrt(1 - I_M^2) h.
    * |I_M| > 1: paracontact node with constants (kappa - 2 + (1-mu/2)^2, 2),
      h~_1 = -sqrt(I_M^2 - 1) h, plus the Levi-Civita relation between g~ and
      g~_1 and the derived covariant identities.
    """
    _require_non_sasakian(parent, tol)
    kappa, mu = parent.kappa, parent.mu
    inv = boeckx_invariant(kappa, mu, tol)
    if abs(abs(inv) - 1.0) <= INVARIANT_GUARD:
        raise DegenerateInvariant(
            f"|I_M| = {abs(inv)} within {INVARIANT_GUARD} of 1: no derived structure"
        )
    m, eta, xi = st.model, st.eta, st.xi
    deta = st.d_eta()
    h_parent = np.sqrt(1.0 - kappa) * st.phi_t
    checks = ResidualReport(tol=tol)

    if abs(inv) < 1.0:
        root = np.sqrt(1.0 - kappa - (1.0 - mu / 2.0) ** 2)
        phi1 = st.h_t / root
        g1 = -deta @ phi1 + np.outer(eta, eta)
        s1 = ContactMetricStructure(model=m, phi=phi1, xi=xi, eta=eta, g=g1)
        checks.merge(validate_contact(s1, tol))
        p, q, z = signature(g1, tol)
        checks.add("metric_positive_definite", 0.0 if (q == 0 and z == 0) else 1.0,
                   note=f"signature ({p},{q},{z})")
        fit = nullity_fit(s1, tol)
        checks.add("predicted_kappa_delta", abs(fit.kappa - (kappa + (1.0 - mu / 2.0) ** 2)))
        checks.add("predicted_mu_delta", abs((fit.mu if fit.mu is not None else 2.0) - 2.0))
        checks.add("h_proportionality", s1.h - np.sqrt(1.0 - inv**2) * h_parent)
        return TowerNode(
            index=index,
            kind="contact",
            phi=phi1,
            G=g1,
            kappa=fit.kappa,
            mu=fit.mu,
            fit_residual=fit.residual,
            structure=s1,
            tw_parallel=classification_flags(s1, fit, tol)["tw_parallel"],
            checks=checks,
        )

    delta = _delta(kappa, mu)
    root = np.sqrt(delta)
    phi1 = st.h_t / root
    g1 = deta @ phi1 + np.outer(eta, eta)
    s1 = ParacontactMetricStructure(model=m, phi_t=phi1, xi=xi, eta=eta, g_t=g1)
    checks.merge(validate_paracontact(s1, tol))
    fit = para_nullity_fit(s1, tol)
    checks.add("predicted_kappa_delta", abs(fit.kappa_t - (kappa - 2.0 + (1.0 - mu / 2.0) ** 2)))
    checks.add("predicted_mu_delta", abs((fit.mu_t if fit.mu_t is not None else 2.0) - 2.0))
    checks.add("h_proportionality", s1.h_t + np.sqrt(inv**2 - 1.0) * h_parent)
    checks.add("levi_civita_relation", _second_levi_civita_relation_residual(st, s1, root, tol))
    r_phi, r_h = _structure_derivative_residuals(s1, tol)
    checks.add("nabla_phi_tilde_identity", r_phi)
    checks.add("nabla_h_tilde_identity", r_h)
    return TowerNode(
        index=index,
        kind="paracontact",
        phi=phi1,
        G=g1,
        kappa=fit.kappa_t,
        mu=fit.mu_t,
        fit_residual=fit.residual,
        structure=s1,
        checks=checks,
    )


def _second_levi_civita_relation_residual(
    st: ParacontactMetricStructure,
    s1: ParacontactMetricStructure,
    root: float,
    tol: float,
) -> float:
    """Residual of the relation between the Levi-Civita connections of g~ and g~_1:

        nabla1_X Y = nabla~_X Y + eta(X)(phi~ Y - h~ Y / root)
                     + eta(Y)(phi~ X - h~ X / root)
                     + [ root (g~(X,Y) - eta(X) eta(Y)) + g~(X, phi~ h~ Y) ] xi

    with root = sqrt((1 - mu/2)^2 - (1 - kappa)).
    """
    lc = st.levi_civita(tol)
    lc1 = s1.levi_civita(tol)
    phi, h, g, eta, xi = st.phi_t, st.h_t, st.g_t, st.eta, st.xi
    shift = phi - h / root
    rhs = lc.gamma + eta_x(eta, shift) + eta_y(eta, shift)
    rhs += form_xy(root * (g - np.outer(eta, eta)) + g @ phi @ h, xi)
    return max_abs(lc1.gamma - rhs)


def sequence(s: ContactMetricStructure, n_nodes: int, tol: float = DEFAULT_TOL) -> list[TowerNode]:
    """The derived sequence [node_0, ..., node_{N-1}] (N = max(n_nodes, 1)).

    Node 0 is the input structure.  Each later node is built by the iterated
    normalized Lie derivative of the previous structure tensor, validated,
    freshly fitted, and compared against the predicted constant pattern:

    * |I_M| < 1: kinds alternate contact / paracontact with constants
      (kappa + (1-mu/2)^2, 2) at even and (kappa - 2 + (1-mu/2)^2, 2) at odd
      indices; every contact node is flagged Tanaka-Webster parallel.
    * |I_M| > 1: every node from index 1 on is paracontact with constants
      (kappa - 2 + (1-mu/2)^2, 2).
    """
    fit0 = nullity_fit(s, tol)
    node0 = TowerNode(
        index=0,
        kind="contact",
        phi=s.phi,
        G=s.g,
        kappa=fit0.kappa,
        mu=fit0.mu,
        fit_residual=fit0.residual,
        structure=s,
        tw_parallel=classification_flags(s, fit0, tol)["tw_parallel"],
    )
    if n_nodes <= 1:
        return [node0]
    _require_non_sasakian(fit0, tol)
    kappa, mu = fit0.kappa, fit0.mu
    inv = boeckx_invariant(kappa, mu, tol)
    if abs(abs(inv) - 1.0) <= INVARIANT_GUARD:
        raise DegenerateInvariant(f"|I_M| = {abs(inv)}: the sequence is undefined")

    contact_branch = abs(inv) < 1.0
    first_norm = 2.0 * np.sqrt(1.0 - kappa)
    later_norm = (
        2.0 * np.sqrt(1.0 - kappa - (1.0 - mu / 2.0) ** 2)
        if contact_branch
        else 2.0 * np.sqrt(_delta(kappa, mu))
    )
    kappa_even = kappa + (1.0 - mu / 2.0) ** 2
    kappa_odd = kappa - 2.0 + (1.0 - mu / 2.0) ** 2

    nodes = [node0]
    m, eta, xi = s.model, s.eta, s.xi
    deta = s.d_eta()
    phi_prev = s.phi
    for k in range(1, n_nodes):
        norm = first_norm if k == 1 else later_norm
        phi_k = lie_derivative_endo(m, xi, phi_prev) / norm
        is_contact = contact_branch and (k % 2 == 0)
        checks = ResidualReport(tol=tol)
        if is_contact:
            g_k = -deta @ phi_k + np.outer(eta, eta)
            s_k = ContactMetricStructure(model=m, phi=phi_k, xi=xi, eta=eta, g=g_k)
            checks.merge(validate_contact(s_k, tol))
            fit = nullity_fit(s_k, tol)
            kap, mu_k, res = fit.kappa, fit.mu, fit.residual
            checks.add("predicted_kappa_delta", abs(kap - kappa_even))
            tw = classification_flags(s_k, fit, tol)["tw_parallel"]
        else:
            g_k = deta @ phi_k + np.outer(eta, eta)
            s_k = ParacontactMetricStructure(model=m, phi_t=phi_k, xi=xi, eta=eta, g_t=g_k)
            checks.merge(validate_paracontact(s_k, tol))
            fit = para_nullity_fit(s_k, tol)
            kap, mu_k, res = fit.kappa_t, fit.mu_t, fit.residual
            checks.add("predicted_kappa_delta", abs(kap - kappa_odd))
            tw = False
        checks.add("predicted_mu_delta", abs((mu_k if mu_k is not None else 2.0) - 2.0))
        if not checks.valid:
            raise InternalInconsistency(
                f"tower node {k} failed verification: {checks.failures()}"
            )
        nodes.append(
            TowerNode(
                index=k,
                kind="contact" if is_contact else "paracontact",
                phi=phi_k,
                G=g_k,
                kappa=kap,
                mu=mu_k,
                fit_residual=res,
                structure=s_k,
                tw_parallel=tw,
                checks=checks,
            )
        )
        phi_prev = phi_k
    return nodes


def _require_large_invariant(report: NullityReport, tol: float) -> float:
    _require_non_sasakian(report, tol)
    inv = boeckx_invariant(report.kappa, report.mu, tol)
    if abs(inv) <= 1.0 + INVARIANT_GUARD:
        raise InvariantTooSmall(f"|I_M| = {abs(inv)} <= 1: construction undefined")
    return inv


def _phi_eigenframe(s: ContactMetricStructure, report: NullityReport, tol: float):
    """g-orthonormal h-eigenbasis (X_1..X_n with h X_i = lambda X_i) and Y_i = phi X_i."""
    from .legendre import eigendistributions  # local import, avoids cycle at module load

    d_pos, _ = eigendistributions(s, report, tol)
    xs = d_pos.vectors
    ys = (s.phi @ xs.T).T
    return xs, ys


def second_bilegendrian_analysis(
    s: ContactMetricStructure,
    report: NullityReport,
    a: float | None = None,
    b: float | None = None,
    tol: float = DEFAULT_TOL,
) -> SecondPairAnalysis:
    """Analyze the bi-Legendrian pair defined by h~ when |I_M| > 1.

    Verifies: h~ has real eigenvalues +-lambda_t of multiplicity n with
    lambda_t = sqrt((1 - mu/2)^2 - (1 - kappa)); the eigendistributions are
    spanned by gamma X_i +- Y_i (gamma = sqrt((I_M-1)/(I_M+1))), are Legendre
    and involutive; the Pang form on that basis is 4 lambda (I_M - 1) delta;
    the Libermann maps match their closed forms (+- h~_1 / (2 lambda_t^2) on
    the opposite eigendistribution); and the generated family of compatible
    nullity structures with Pang coefficients (a, b), constrained by
    a b = 4 ((1 - mu/2)^2 - (1 - kappa)), reproduces the paracontact
    constants of the next tower node.
    """
    inv = _require_large_invariant(report, tol)
    kappa, mu = report.kappa, report.mu
    lam = report.lam
    delta = _delta(kappa, mu)
    lam_t = float(np.sqrt(delta))
    checks = ResidualReport(tol=tol)

    st, _ = canonical_paracontact(s, report, tol)
    node = derive_next(st, report, tol)
    h_t = st.h_t
    h_t1 = node.structure.h_t  # h of the tower paracontact structure

    checks.add("lambda_square_vs_h_square_scalar", h_t @ h_t - delta * st.phi_t @ st.phi_t)

    xs, ys = _phi_eigenframe(s, report, tol)
    gamma = np.sqrt((inv - 1.0) / (inv + 1.0))
    plus = gamma * xs + ys if inv > 1.0 else gamma * xs - ys
    minus = -gamma * xs + ys if inv > 1.0 else gamma * xs + ys
    checks.add("plus_eigenvector_pattern", plus @ h_t.T - lam_t * plus)
    checks.add("minus_eigenvector_pattern", minus @ h_t.T + lam_t * minus)

    d_plus = legendre_distribution(s.model, s.eta, s.xi, plus, tol)
    d_minus = legendre_distribution(s.model, s.eta, s.xi, minus, tol)
    checks.add("plus_involutive", involutivity_residual(s.model, s.eta, s.xi, plus))
    checks.add("minus_involutive", involutivity_residual(s.model, s.eta, s.xi, minus))

    expected_pang = 4.0 * lam * (inv - 1.0)
    checks.add("pang_value_plus", d_plus.pang - expected_pang * np.eye(s.n))
    checks.add("pang_value_minus", d_minus.pang - expected_pang * np.eye(s.n))

    lam_map_plus = libermann_map(s, d_plus, d_minus, tol)
    lam_map_minus = libermann_map(s, d_minus, d_plus, tol)
    proj_minus = d_minus.span_projector()
    proj_plus = d_plus.span_projector()
    closed_plus = (h_t1 / (2.0 * delta)) @ proj_minus
    closed_minus = -(h_t1 / (2.0 * delta)) @ proj_plus
    checks.add("libermann_plus_closed_form", lam_map_plus.lambda_op @ proj_minus - closed_plus)
    checks.add("libermann_minus_closed_form", lam_map_minus.lambda_op @ proj_plus - closed_minus)

    product = 4.0 * delta
    if a is None and b is None:
        mag = np.sqrt(product)
        a, b = 2.0 * mag, mag / 2.0
        if inv < -1.0:
            a, b = -a, -b
    elif a is None or b is None:
        raise InvariantTooSmall("supply both a and b, or neither")
    checks.add("pang_coefficient_product", abs(a * b - product))
    if inv > 1.0 and not (a > 0 and b > 0):
        raise DegenerateInvariant("a, b must be positive when I_M > 1")
    if inv < -1.0 and not (a < 0 and b < 0):
        raise DegenerateInvariant("a, b must be negative when I_M < -1")

    kappa_new = 1.0 - (a - b) ** 2 / 16.0
    mu_new = 2.0 - (a + b) / 2.0
    # a = b generates the Sasakian member of the family (kappa' = 1); the
    # invariant degenerates to +-infinity there
    new_inv = (a + b) / abs(a - b) if abs(a - b) > 1e-15 else np.sign(a) * np.inf
    if abs(new_inv) <= 1.0:
        raise InternalInconsistency(f"generated invariant {new_inv} not outside [-1, 1]")
    # the generated structures must induce the same paracontact constants
    checks.add(
        "regenerated_kappa_delta",
        abs((kappa_new - 2.0 + (1.0 - mu_new / 2.0) ** 2) - node.kappa),
    )
    return SecondPairAnalysis(
        lambda_t=lam_t,
        d_plus=d_plus,
        d_minus=d_minus,
        pang_value=expected_pang,
        a=float(a),
        b=float(b),
        kappa_new=kappa_new,
        mu_new=mu_new,
        new_invariant=float(new_inv),
        checks=checks,
    )


def sasakian_structure(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> SasakianPackage:
    """The compatible Sasakian structure of a |I_M| > 1 nullity space.

    phi-bar = +-((1 - mu/2) phi + phi h) / sqrt(delta) (sign of I_M),
    g-bar = -d eta(., phi-bar .) + eta (x) eta.  Verified: contact metric
    axioms with positive-definite metric; h-bar = 0 (K-contact); vanishing
    Nijenhuis torsion; fitted kappa = 1; the composition identities
    phi-bar_- = phi~ phi~_1 and phi-bar_+ = phi~_1 phi~; and the
    anti-hypercomplex relations of the triple.
    """
    inv = _require_large_invariant(report, tol)
    kappa, mu = report.kappa, report.mu
    beta = 1.0 / np.sqrt(_delta(kappa, mu))
    sign = 1.0 if inv > 1.0 else -1.0
    base = (1.0 - mu / 2.0) * s.phi + s.phi @ s.h
    phi_bar = sign * beta * base
    deta = s.d_eta()
    g_bar = -deta @ phi_bar + np.outer(s.eta, s.eta)
    sbar = ContactMetricStructure(model=s.model, phi=phi_bar, xi=s.xi, eta=s.eta, g=g_bar)

    checks = ResidualReport(tol=tol)
    checks.merge(validate_contact(sbar, tol))
    p, q, z = signature(g_bar, tol)
    checks.add("metric_positive_definite", 0.0 if (q == 0 and z == 0) else 1.0,
               note=f"signature ({p},{q},{z})")
    checks.add("h_bar_vanishes", sbar.h)
    nij, _ = nijenhuis_norm(sbar, tol)
    checks.add("nijenhuis_vanishes", nij)
    fit = nullity_fit(sbar, tol)
    checks.add("fitted_kappa_is_one", abs(fit.kappa - 1.0))
    checks.add("sasakian_h_zero", 0.0 if fit.mu is None else 1.0,
               note="mu must be indeterminate (h = 0)")

    st, _ = canonical_paracontact(s, report, tol)
    node = derive_next(st, report, tol)
    phi_t, phi_t1 = st.phi_t, node.phi
    phi_bar_minus = phi_bar if sign < 0 else -phi_bar
    phi_bar_plus = phi_bar if sign > 0 else -phi_bar
    checks.add("composition_minus", phi_t @ phi_t1 - phi_bar_minus)
    checks.add("composition_plus", phi_t1 @ phi_t - phi_bar_plus)

    if inv > 1.0:
        triple = (phi_bar, phi_t1, phi_t)
    else:
        triple = (phi_bar, phi_t, phi_t1)
    proj = s.contact_projector()
    i1, i2, i3 = triple
    checks.add("triple_i1_square", (i1 @ i1 + np.eye(s.dim)) @ proj)
    checks.add("triple_i2_square", (i2 @ i2 - np.eye(s.dim)) @ proj)
    checks.add("triple_i3_square", (i3 @ i3 - np.eye(s.dim)) @ proj)
    checks.add("triple_product", (i2 @ i3 - i1) @ proj)
    checks.add("triple_anticommute", (i2 @ i3 + i3 @ i2) @ proj)
    return SasakianPackage(
        phi_bar=phi_bar,
        g_bar=g_bar,
        sign="+" if sign > 0 else "-",
        triple=triple,
        structure=sbar,
        checks=checks,
    )


def anti_hypercomplex_and_3web(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> ResidualReport:
    """Product-structure identities on ker(eta) and 3-web transversality.

    On the contact distribution: phi~^2 = phi~_1^2 = I, the two anticommute,
    phi~ phi~_1 = phi-bar_-, phi~_1 phi~ = phi-bar_+, phi-bar_+ = -phi-bar_-.
    Transversality: every pair among the four eigendistributions
    (D(lambda), D(-lambda), D(lambda~), D(-lambda~)) spans ker(eta).
    """
    inv = _require_large_invariant(report, tol)
    kappa, mu = report.kappa, report.mu
    beta = 1.0 / np.sqrt(_delta(kappa, mu))
    st, _ = canonical_paracontact(s, report, tol)
    node = derive_next(st, report, tol)
    phi_t, phi_t1 = st.phi_t, node.phi
    base = (1.0 - mu / 2.0) * s.phi + s.phi @ s.h
    phi_bar_plus = beta * base
    phi_bar_minus = -phi_bar_plus
    proj = s.contact_projector()
    ident = np.eye(s.dim)

    report_out = ResidualReport(tol=tol)
    report_out.add("phi_tilde_square", (phi_t @ phi_t - ident) @ proj)
    report_out.add("phi_tilde1_square", (phi_t1 @ phi_t1 - ident) @ proj)
    report_out.add("anticommutation", (phi_t @ phi_t1 + phi_t1 @ phi_t) @ proj)
    report_out.add("product_minus", (phi_t @ phi_t1 - phi_bar_minus) @ proj)
    report_out.add("product_plus", (phi_t1 @ phi_t - phi_bar_plus) @ proj)
    report_out.add("opposite_signs", (phi_bar_plus + phi_bar_minus) @ proj)
    for name, op in (("phi_bar_kills_xi", phi_bar_plus), ("phi_tilde_kills_xi", phi_t),
                     ("phi_tilde1_kills_xi", phi_t1)):
        report_out.add(name, op @ s.xi)

    xs, ys = _phi_eigenframe(s, report, tol)
    gamma = np.sqrt((inv - 1.0) / (inv + 1.0))
    plus = gamma * xs + ys if inv > 1.0 else gamma * xs - ys
    minus = -gamma * xs + ys if inv > 1.0 else gamma * xs + ys
    dists = {
        "d_plus_lambda": xs,
        "d_minus_lambda": ys,
        "d_plus_lambda_t": plus / np.linalg.norm(plus, axis=1, keepdims=True),
        "d_minus_lambda_t": minus / np.linalg.norm(minus, axis=1, keepdims=True),
    }
    kbasis = s.contact_basis()
    names = list(dists)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            stacked = np.vstack([dists[names[i]], dists[names[j]]])
            det = np.linalg.det(kbasis @ stacked.T)
            report_out.add(
                f"web_{names[i]}__{names[j]}",
                0.0 if abs(det) > tol else 1.0,
                note=f"|det| = {abs(det):.3e}",
            )
    return report_out
