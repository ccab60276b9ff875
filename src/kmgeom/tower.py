"""Derived structures of a contact (kappa, mu)-space.

From a non-Sasakian nullity structure the engine builds, and verifies at
every step:

* the canonical paracontact structure phi~ = h / sqrt(1 - kappa) with
  g~ = d eta(., phi~ .) + eta (x) eta, itself a nullity space with constants
  (kappa - 2 + (1 - mu/2)^2, 2);
* the next structure in the tower, obtained by normalizing (1/2) L_xi phi~:
  a new *contact* structure in class II (|I_M| < 1), a new *paracontact*
  structure in classes I and III (|I_M| > 1); no construction exists in
  classes IV and V (|I_M| within ``tol`` of 1);
* the full iterated sequence of such structures;
* for any step of that sequence, of either kind, the paper's closed forms
  (:func:`step_checks`): the normalized Lie derivative, h' and the relation
  between the two Levi-Civita connections, with the node's identity suite;
* in classes I and III, the second bi-Legendrian pair carried by h~, the family of
  compatible nullity structures it generates, and the Sasakian structure
  phi-bar = +-((1 - mu/2) phi + phi h) / sqrt((1 - mu/2)^2 - (1 - kappa)),
  whose report also checks the anti-hypercomplex triple (phi-bar, phi~, phi~_1)
  and the 3-web its eigendistributions cut on the contact distribution.

Every construction builds its tower nodes 1 and 2 through the one node builder,
which verifies each node: a node that fails its checks stops the construction;
where the space sits relative to |I_M| = 1 is read from the class of its fit.
"""

from typing import NamedTuple

import numpy as np

from .contact import (
    ContactMetricStructure,
    MetricStructure,
    NullityReport,
    _tw_parallel,
    blair_identity_suite,
    nullity_fit,
    validate_contact,
)
from .errors import (
    DegenerateInvariant,
    GeometryError,
    InternalInconsistency,
    InvalidPangPair,
    InvariantTooSmall,
    SasakianDegenerate,
)
from .legendre import (
    LegendreDistribution,
    _cached_eigendistributions,
    involutivity_residual,
    legendre_distribution,
    legendre_pair_constants,
    libermann_map,
)
from .lie_model import lie_derivative_endo
from .paracontact import ParacontactMetricStructure
from .report import DEFAULT_TOL, ResidualReport, max_abs
from .riemann import eta_x, eta_y, form_xy


class TowerNode(NamedTuple):
    """One structure in the derived sequence, with its freshly fitted constants."""

    index: int
    structure: MetricStructure
    fit: NullityReport
    tw_parallel: bool = False
    checks: ResidualReport | None = None

    kind = property(lambda self: self.structure.kind)  # "contact" | "paracontact"
    phi = property(lambda self: self.structure.phi)
    G = property(lambda self: self.structure.g)
    kappa = property(lambda self: self.fit.kappa)
    mu = property(lambda self: self.fit.mu)
    fit_residual = property(lambda self: self.fit.residual)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "kappa": self.kappa,
            "mu": self.mu,
            "fit_residual": self.fit_residual,
            "tw_parallel": self.tw_parallel,
            "constant_formula_delta": (
                None if self.checks is None else self.checks.entries.get("predicted_kappa_delta")
            ),
        }


class SasakianPackage(NamedTuple):
    """A compatible Sasakian structure, with the checks of its anti-hypercomplex
    triple and 3-web on ker(eta)."""

    sign: str  # "+" for I_M > 1, "-" for I_M < -1
    structure: ContactMetricStructure
    checks: ResidualReport

    phi_bar = property(lambda self: self.structure.phi)
    g_bar = property(lambda self: self.structure.g)

    def to_dict(self) -> dict:
        return {"sign": self.sign, "checks": self.checks.to_dict()}


class SecondPairAnalysis(NamedTuple):
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
    checks: ResidualReport

    def to_dict(self) -> dict:
        return {
            "lambda_tilde": self.lambda_t,
            "pang_value": self.pang_value,
            "a": self.a,
            "b": self.b,
            "kappa_new": self.kappa_new,
            "mu_new": self.mu_new,
            "new_invariant": self.new_invariant,
            "checks": self.checks.to_dict(),
        }


def _delta(kappa: float, mu: float) -> float:
    """(1 - mu/2)^2 - (1 - kappa); positive iff |I_M| > 1."""
    return (1.0 - mu / 2.0) ** 2 - (1.0 - kappa)


def _require_non_sasakian(report: NullityReport) -> None:
    if report.boeckx is None:
        raise SasakianDegenerate(
            "construction requires a non-Sasakian structure: the fit puts this one in the Sasakian "
            f"band (kappa >= 1 - tol, or mu indeterminate), kappa = {report.kappa:.12g}")


def _step(report: NullityReport, k: int) -> tuple[float, float]:
    """(eps, root) of tower node k >= 1 of a non-Sasakian nullity space, built as
    phi_k = (1/2) L_xi phi_{k-1} / root: paracontact (eps = -1) at odd k; at even k
    contact (+1) in class II, paracontact in classes I and III.  root = lambda at
    k = 1, else sqrt(|delta|), which vanishes at |I_M| = 1: nodes k >= 2 raise
    :class:`DegenerateInvariant` in classes IV and V (|I_M| within ``tol`` of 1)."""
    _require_non_sasakian(report)
    if k == 1:
        return -1.0, report.lam
    if report.class_tag in ("IV", "V"):
        raise DegenerateInvariant(f"|I_M| = {abs(report.boeckx)}: the sequence is undefined")
    branch = 1.0 if report.class_tag == "II" else -1.0
    return (branch if k % 2 == 0 else -1.0), np.sqrt(-branch * _delta(report.kappa, report.mu))


def _phi_bar(s: ContactMetricStructure, report: NullityReport) -> np.ndarray:
    """phi-bar_+ = ((1 - mu/2) phi + phi h) / sqrt(delta); phi-bar_- = -phi-bar_+."""
    beta = 1.0 / np.sqrt(_delta(report.kappa, report.mu))
    return beta * ((1.0 - report.mu / 2.0) * s.phi + s.phi @ s.h)


def _canonical_pair(
    s: ContactMetricStructure, report: NullityReport, tol: float
) -> tuple[ParacontactMetricStructure, TowerNode]:
    """The canonical paracontact structure of ``s`` and the tower node derived
    from it (nodes 1 and 2, verified as :func:`sequence` verifies them, without
    the closed-form checks of :func:`step_checks`), built once per (report, tol)
    and kept on ``s``, as is the error of a node that fails."""

    def build():
        node1, node2 = _derived_nodes(s, (1, 2), report, tol)
        return node1.structure, node2

    return s.cached(("canonical_pair", report, tol), build)


def _derived_nodes(prev: MetricStructure, ks, fit0: NullityReport, tol: float) -> list[TowerNode]:
    """Tower nodes ``ks`` (consecutive, k >= 1) of the contact nullity space with
    fit ``fit0``, built from the structure ``prev`` of node ks[0] - 1.

    phi_k = (1/2) L_xi phi_{k-1} / root with its compatible metric, (eps, root)
    from :func:`_step`, gives a contact node (eps = +1) or a paracontact node
    (eps = -1); one matching an earlier structure (``prev`` or one of these
    nodes) in kind, phi and g to within ``tol`` shares it.  The distinct
    structures of each kind are validated and fitted as one stack, and each
    node's constants compared with those predicted from ``fit0``:
    (kappa + (1 - mu/2)^2, 2) for a contact node, (kappa - 2 + (1 - mu/2)^2, 2)
    for a paracontact one.  In index order, the first node whose fit fails
    raises its error, or whose checks fail raises :class:`InternalInconsistency`.
    """
    structures, pool = [], [prev]
    for k in ks:
        eps, root = _step(fit0, k)
        cls = ContactMetricStructure if eps > 0 else ParacontactMetricStructure
        s = cls.compatible(prev.model, prev.h / root, prev.xi, prev.eta)
        same = (t for t in pool
                if t.kind == s.kind and max_abs(t.phi - s.phi) <= tol and max_abs(t.g - s.g) <= tol)
        prev = next(same, s)
        structures.append(prev)
        pool.append(prev)
    verified = {}
    for kind in ("contact", "paracontact"):
        stack = list({id(s): s for s in structures if s.kind == kind}.values())
        if stack:
            results = zip(validate_contact(stack, tol), nullity_fit(stack, tol))
            verified.update(zip(map(id, stack), results))
    nodes = []
    for k, s in zip(ks, structures):
        checks, fit = verified[id(s)]
        if isinstance(fit, GeometryError):
            raise fit
        checks = ResidualReport(checks.tol, dict(checks.entries), dict(checks.notes))
        predicted = fit0.kappa + (s.eps - 1.0) + (1.0 - fit0.mu / 2.0) ** 2
        checks.add("predicted_kappa_delta", abs(fit.kappa - predicted))
        checks.add("predicted_mu_delta", abs((fit.mu if fit.mu is not None else 2.0) - 2.0))
        if not checks.valid:
            raise InternalInconsistency(f"tower node {k} failed verification: {checks.failures()}")
        nodes.append(TowerNode(k, s, fit, _tw_parallel(fit, tol), checks))
    return nodes


def sequence(s: ContactMetricStructure, n_nodes: int, tol: float = DEFAULT_TOL) -> list[TowerNode]:
    """The derived sequence [node_0, ..., node_{N-1}] (N = max(n_nodes, 1)).

    Node 0 is the input structure.  Each later node is built by the iterated
    normalized Lie derivative of the previous structure tensor, validated,
    freshly fitted, and compared against the predicted constant pattern:

    * class II (|I_M| < 1): kinds alternate contact / paracontact with constants
      (kappa + (1-mu/2)^2, 2) at even and (kappa - 2 + (1-mu/2)^2, 2) at odd
      indices; every contact node is flagged Tanaka-Webster parallel.
    * classes I and III (|I_M| > 1): every node from index 1 on is paracontact with constants
      (kappa - 2 + (1-mu/2)^2, 2).
    * classes IV and V (|I_M| within ``tol`` of 1): only nodes 0 and 1 exist;
      N >= 3 raises :class:`DegenerateInvariant`.
    """
    fit0 = nullity_fit(s, tol)
    if n_nodes > 2:
        _step(fit0, 2)  # no node 2 in classes IV and V: reject such a tower before node 1 is built
    nodes = _derived_nodes(s, range(1, n_nodes), fit0, tol)
    return [TowerNode(0, s, fit0, _tw_parallel(fit0, tol)), *nodes]


def step_checks(prev: TowerNode, node: TowerNode, tol: float = DEFAULT_TOL) -> ResidualReport:
    """The paper's closed forms for one tower step, node = (1/2) L_xi prev / root,
    for either kind of either node.

    With (kappa, mu, eps) the fitted constants and sign of ``prev`` and
    root = sqrt(|kappa - eps|) (the normalizer of the step, as h^2 = (kappa - eps)
    phi^2), the report checks, over all basis pairs:

    * agreement of phi' with the normalized Lie derivative (1/2) L_xi phi / root;
    * 2 root h' = (2 - mu) phi h + 2 (eps - kappa) phi, from
      L_xi h = (2 - mu) phi h + 2 (eps - kappa) phi (at node 2 this is
      h_2 = sqrt(1 - I_M^2) h for |I_M| < 1, -sqrt(I_M^2 - 1) h for |I_M| > 1);
    * the relation between the Levi-Civita connections nabla of prev and nabla'
      of node (same eta and xi):
      nabla'_X Y = nabla_X Y + eta(X) A Y + eta(Y) A X + B(X, Y) xi with
      A = (mu/2) phi - h / root and
      B(X, Y) = g'((phi' + eps' phi' h') X, Y) - g((phi + eps phi h) X, Y);
    * the (kappa, mu) identity suite of node at its fitted constants.
    """
    p, s = prev.structure, node.structure
    kappa, mu, eps = prev.kappa, prev.mu, p.eps
    root = np.sqrt(abs(kappa - eps))
    checks = ResidualReport(tol=tol)
    checks.add("normalized_lie_derivative",
               s.phi - 0.5 * lie_derivative_endo(p.model, p.xi, p.phi) / root)
    phih = p.phi @ p.h
    checks.add("h_closed_form", 2.0 * root * s.h - ((2.0 - mu) * phih + 2.0 * (eps - kappa) * p.phi))
    shift = (mu / 2.0) * p.phi - p.h / root
    form = (s.phi + s.eps * s.phi @ s.h).T @ s.g - (p.phi + eps * phih).T @ p.g
    rhs = p.levi_civita(tol).gamma + eta_x(p.eta, shift) + eta_y(p.eta, shift) + form_xy(form, p.xi)
    checks.add("levi_civita_relation", s.levi_civita(tol).gamma - rhs)
    checks.merge(blair_identity_suite(s, node.kappa, node.mu, tol))
    return checks


def _require_large_invariant(report: NullityReport, tol: float) -> float:
    """I_M of a class I or III space (|I_M| > 1); :class:`InvariantTooSmall` otherwise."""
    _require_non_sasakian(report)
    if report.class_tag == "II":
        raise InvariantTooSmall(f"|I_M| = {abs(report.boeckx)} <= 1: construction undefined")
    if report.class_tag in ("IV", "V"):
        raise InvariantTooSmall(
            f"class {report.class_tag} (|I_M| within {tol:g} of 1): construction undefined")
    return report.boeckx


def _phi_eigenframe(s: ContactMetricStructure, report: NullityReport, inv: float, tol: float):
    """g-orthonormal h-eigenbasis (X_1..X_n with h X_i = lambda X_i), Y_i = phi X_i,
    and the h~-eigenvectors gamma X_i +- Y_i for +-lambda~ (gamma = sqrt((I_M-1)/(I_M+1)))."""
    d_pos, _ = _cached_eigendistributions(s, report, tol)
    xs = d_pos.vectors
    ys = (s.phi @ xs.T).T
    gamma = np.sqrt((inv - 1.0) / (inv + 1.0))
    plus = gamma * xs + ys if inv > 0 else gamma * xs - ys
    minus = -gamma * xs + ys if inv > 0 else gamma * xs + ys
    return xs, ys, plus, minus


def second_bilegendrian_analysis(
    s: ContactMetricStructure,
    report: NullityReport,
    a: float | None = None,
    b: float | None = None,
    tol: float = DEFAULT_TOL,
) -> SecondPairAnalysis:
    """Analyze the bi-Legendrian pair defined by h~ in classes I and III (|I_M| > 1).

    Verifies: h~ has real eigenvalues +-lambda_t of multiplicity n with
    lambda_t = sqrt((1 - mu/2)^2 - (1 - kappa)); the eigendistributions are
    spanned by gamma X_i +- Y_i (gamma = sqrt((I_M-1)/(I_M+1))), are Legendre
    and involutive; the Pang form on that basis is 4 lambda (I_M - 1) delta;
    the Libermann maps match their closed forms (+- h~_1 / (2 lambda_t^2) on
    the opposite eigendistribution); and the generated family of compatible
    nullity structures with Pang coefficients (a, b), constrained by
    a b = 4 ((1 - mu/2)^2 - (1 - kappa)), reproduces the paracontact
    constants of the next tower node.  A caller's (a, b) must be given whole and
    carry the sign of I_M; otherwise :class:`InvalidPangPair` is raised before
    anything is built.
    """
    inv = _require_large_invariant(report, tol)
    delta = _delta(report.kappa, report.mu)
    if a is None and b is None:
        mag = np.sqrt(4.0 * delta)
        a, b = 2.0 * mag, mag / 2.0
        if inv < 0:
            a, b = -a, -b
    elif a is None or b is None:
        raise InvalidPangPair("supply both a and b, or neither")
    if inv > 0 and not (a > 0 and b > 0):
        raise InvalidPangPair("a, b must be positive when I_M > 1")
    if inv < 0 and not (a < 0 and b < 0):
        raise InvalidPangPair("a, b must be negative when I_M < -1")
    lam_t = float(np.sqrt(delta))
    checks = ResidualReport(tol=tol)

    st, node = _canonical_pair(s, report, tol)
    h_t = st.h

    checks.add("lambda_square_vs_h_square_scalar", h_t @ h_t - delta * st.phi @ st.phi)

    _, _, plus, minus = _phi_eigenframe(s, report, inv, tol)
    expected_pang = 4.0 * report.lam * (inv - 1.0)
    bases = np.stack([plus, minus])  # one stack; its first failure (plus, then minus) is raised
    pair = legendre_distribution(s.model, s.eta, s.xi, bases, tol)
    involutive = involutivity_residual(s.model, s.eta, s.xi, bases)
    for sign, name, vecs, ld, residual in zip((1.0, -1.0), ("plus", "minus"), bases, pair, involutive):
        checks.add(f"{name}_eigenvector_pattern", vecs @ h_t.T - sign * lam_t * vecs)
        if isinstance(ld, GeometryError):
            raise ld
        checks.add(f"{name}_involutive", residual)
        checks.add(f"pang_value_{name}", ld.pang - expected_pang * np.eye(s.n))
    d_plus, d_minus = pair
    # each Libermann map is +-h~_1 / (2 delta) on the opposite distribution (h~_1 of the node)
    for sign, name, ld, other in ((1.0, "plus", d_plus, d_minus), (-1.0, "minus", d_minus, d_plus)):
        proj = other.span_projector()
        closed = sign * (node.structure.h / (2.0 * delta)) @ proj
        lam_op = libermann_map(s, ld, other, tol)
        checks.add(f"libermann_{name}_closed_form", lam_op @ proj - closed)

    checks.add("pang_coefficient_product", abs(a * b - 4.0 * delta))

    kappa_new, mu_new, _ = legendre_pair_constants(a, b, tol)
    # a = b generates the Sasakian member of the family (kappa' = 1); the
    # invariant degenerates to +-infinity there
    new_inv = (a + b) / abs(a - b) if abs(a - b) > 1e-15 else np.sign(a) * np.inf
    if abs(new_inv) <= 1.0:
        raise InternalInconsistency(f"generated invariant {new_inv} not outside [-1, 1]")
    # the generated structures must induce the same paracontact constants
    checks.add("regenerated_kappa_delta",
               abs((kappa_new - 2.0 + (1.0 - mu_new / 2.0) ** 2) - node.kappa))
    return SecondPairAnalysis(
        lambda_t=lam_t, d_plus=d_plus, d_minus=d_minus, pang_value=expected_pang, a=float(a),
        b=float(b), kappa_new=kappa_new, mu_new=mu_new, new_invariant=float(new_inv), checks=checks)


def sasakian_structure(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> SasakianPackage:
    """The compatible Sasakian structure of a class I or III (|I_M| > 1) nullity space.

    phi-bar = +-((1 - mu/2) phi + phi h) / sqrt(delta) (sign of I_M),
    g-bar = -d eta(., phi-bar .) + eta (x) eta.  Verified: contact metric
    axioms with positive-definite metric; h-bar = 0 (K-contact); vanishing
    Nijenhuis torsion; fitted kappa = 1; the composition identities
    phi-bar_- = phi~ phi~_1 and phi-bar_+ = phi~_1 phi~; the
    anti-hypercomplex relations of the triple, whose paracontact members phi~
    and phi~_1 kill xi; and the 3-web: every pair among the four
    eigendistributions D(lambda), D(-lambda), D(lambda~), D(-lambda~) spans
    ker(eta).
    """
    inv = _require_large_invariant(report, tol)
    sign = 1.0 if inv > 0 else -1.0
    phi_bar = sign * _phi_bar(s, report)
    sbar = ContactMetricStructure.compatible(s.model, phi_bar, s.xi, s.eta)

    checks = ResidualReport(tol=tol)
    checks.merge(validate_contact(sbar, tol))
    checks.add("h_bar_vanishes", sbar.h)
    nij, _ = sbar.nijenhuis_norm(tol)
    checks.add("nijenhuis_vanishes", nij)
    fit = nullity_fit(sbar, tol)
    checks.add("fitted_kappa_is_one", abs(fit.kappa - 1.0))

    st, node = _canonical_pair(s, report, tol)
    phi_t, phi_t1 = st.phi, node.phi
    checks.add("composition_minus", phi_t @ phi_t1 + sign * phi_bar)  # phi-bar_- = -sign phi-bar
    checks.add("composition_plus", phi_t1 @ phi_t - sign * phi_bar)

    i1, i2, i3 = (phi_bar, phi_t1, phi_t) if inv > 0 else (phi_bar, phi_t, phi_t1)
    proj = s.contact_projector()
    checks.add("triple_i1_square", (i1 @ i1 + np.eye(s.dim)) @ proj)
    checks.add("triple_i2_square", (i2 @ i2 - np.eye(s.dim)) @ proj)
    checks.add("triple_i3_square", (i3 @ i3 - np.eye(s.dim)) @ proj)
    checks.add("triple_product", (i2 @ i3 - i1) @ proj)
    checks.add("triple_anticommute", (i2 @ i3 + i3 @ i2) @ proj)
    checks.add("phi_tilde_kills_xi", phi_t @ s.xi)
    checks.add("phi_tilde1_kills_xi", phi_t1 @ s.xi)

    # 3-web: the determinant on ker(eta) of each pair of the four eigenframes, one stack
    xs, ys, plus, minus = _phi_eigenframe(s, report, inv, tol)
    frames = np.stack([xs, ys, plus / np.linalg.norm(plus, axis=1, keepdims=True),
                       minus / np.linalg.norm(minus, axis=1, keepdims=True)])
    first, second = np.triu_indices(4, 1)
    pairs = np.concatenate([frames[first], frames[second]], axis=1)
    dets = np.abs(np.linalg.det(s.contact_basis() @ pairs.transpose(0, 2, 1)))
    names = ("d_plus_lambda", "d_minus_lambda", "d_plus_lambda_t", "d_minus_lambda_t")
    for p, q, det in zip(first, second, dets):
        checks.add(f"web_{names[p]}__{names[q]}", 0.0 if det > tol else 1.0, note=f"|det| = {det:.3e}")
    return SasakianPackage(sign="+" if sign > 0 else "-", structure=sbar, checks=checks)
