"""Derived structures of a contact (kappa, mu)-space.

From a non-Sasakian nullity structure the engine builds, and verifies at
every step:

* the tower, by one step taken over and over, each a function of the node it starts
  from: on a node of sign eps, h^2 = s phi^2 with s = -eps tr(h^2) / 2n read from that
  node's own h, and its successor is the normalized Lie derivative
  phi' = (1/2) L_xi phi / sqrt(|s|) with its compatible metric of sign eps' = sign(s) eps.
  On node 0, s = kappa - 1: node 1 is the canonical paracontact structure
  phi~ = h / sqrt(1 - kappa) with g~ = d eta(., phi~ .) + eta (x) eta, itself a nullity
  space with constants (kappa - 2 + (1 - mu/2)^2, 2); from node 1 on
  s = delta = (1 - mu/2)^2 - (1 - kappa), so the class shapes are results of the step:
  node 2 is a new *contact* structure in class II (|I_M| < 1, delta < 0), a new
  *paracontact* structure in classes I and III (|I_M| > 1, delta > 0), and does not
  exist in classes IV and V (|I_M| within ``tol`` of 1, delta = 0);
* for any step of that sequence, of either kind, the paper's closed forms
  (:func:`step_checks`): the normalized Lie derivative, h' and the relation
  between the two Levi-Civita connections, with the node's identity suite;
* in classes I and III, the second bi-Legendrian pair carried by h~, the family of
  compatible nullity structures it generates, and the Sasakian structure
  phi-bar = sigma ((1 - mu/2) phi + phi h) / sqrt((1 - mu/2)^2 - (1 - kappa)),
  whose report also checks the anti-hypercomplex triple (phi-bar, phi~, phi~_1)
  and the 3-web its eigendistributions cut on the contact distribution; the one
  sign sigma = sign(I_M) sets phi-bar, the h~-eigenframe and the default Pang pair.

One function builds tower nodes, :func:`sequence`.  Every node, and phi-bar, is
built on the contact form of the input structure, ``s.form``: they share (M, eta, xi)
and what it determines.  The tower keeps nothing of its own: each node's successor is
kept on that node's structure, per tol, and each node's validation report
on its structure per tol, beside the fit that :func:`nullity_fit` keeps, so a tower of
any length reads one set of nodes, each built and verified once; each
:class:`TowerNode` holds a copy of that kept report with the two predicted-constant
entries added.  Every
construction is a function of (s, tol) that reads the structure's one kept fit,
``nullity_fit(s, tol)``, and reads nodes 1 and 2 from ``sequence(s, 3, tol)``: a
node that fails its checks stops the construction; where the space sits relative to
|I_M| = 1 is read from the class of that fit.  The constructions start from a
non-Sasakian contact structure, which the one guard of :mod:`kmgeom.contact` checks
on that fit: a paracontact one raises :class:`DimensionMismatch`, one in the Sasakian
band :class:`SasakianDegenerate`.
"""

from typing import NamedTuple

import numpy as np

from .contact import (
    ContactMetricStructure,
    MetricStructure,
    NullityReport,
    ParacontactMetricStructure,
    _each,
    _require_non_sasakian,
    _tw_parallel,
    blair_identity_suite,
    nijenhuis_norm,
    nullity_fit,
    validate_contact,
)
from .errors import DegenerateInvariant, InternalInconsistency, InvalidPangPair, InvariantTooSmall
from .legendre import (
    LegendreDistribution,
    eigendistributions,
    involutivity_residual,
    legendre_distribution,
    legendre_pair_constants,
    libermann_map,
)
from .lie_model import lie_derivative_endo
from .report import DEFAULT_TOL, ResidualReport, max_abs, rank_test
from .riemann import eta_x, eta_y, form_xy


class TowerNode(NamedTuple):
    """One structure in the derived sequence, with its freshly fitted constants."""

    index: int
    structure: MetricStructure
    fit: NullityReport
    tw_parallel: bool = False
    checks: ResidualReport | None = None

    kind = property(lambda self: self.structure.kind)  # "contact" | "paracontact"
    kappa = property(lambda self: self.fit.kappa)
    mu = property(lambda self: self.fit.mu)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "kappa": self.kappa,
            "mu": self.mu,
            "fit_residual": self.fit.residual,
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
    """delta = (1 - mu/2)^2 - (1 - kappa), with h^2 = delta phi^2 on every tower node
    from 1 on; positive iff |I_M| > 1."""
    return (1.0 - mu / 2.0) ** 2 - (1.0 - kappa)


def _phi_bar(s: ContactMetricStructure, report: NullityReport) -> np.ndarray:
    """phi-bar_+ = ((1 - mu/2) phi + phi h) / sqrt(delta); phi-bar_- = -phi-bar_+."""
    beta = 1.0 / np.sqrt(_delta(report.kappa, report.mu))
    return beta * ((1.0 - report.mu / 2.0) * s.phi + s.phi @ s.h)


def sequence(s: ContactMetricStructure, n_nodes: int, tol: float = DEFAULT_TOL) -> list[TowerNode]:
    """The derived sequence [node_0, ..., node_{N-1}] (N = max(n_nodes, 1)), a fresh
    list on each call: the one builder of tower nodes.

    Node 0 is the input structure, whose fit must pass the non-Sasakian guard of
    :mod:`kmgeom.contact` whatever N is.  Every later node k comes from node k - 1
    alone, by one step: h^2 = square phi^2 on node k - 1, with
    square = -eps_{k-1} tr(h^2) / 2n read from that node's own h, and node k is the
    normalized Lie derivative phi_k = (1/2) L_xi phi_{k-1} / root_k with its compatible
    metric of sign eps_k, where (eps_k, root_k) = (sign(square) eps_{k-1}, sqrt(|square|)).
    In exact arithmetic square is kappa - 1 on node 0 and
    delta = (1 - mu/2)^2 - (1 - kappa) on every node from 1 on ((kappa, mu) of node 0's
    fit); read from h, it needs no subtraction of those nearly equal constants.  One
    matching node 0 or an earlier node in kind, phi and g to within ``tol`` shares its
    structure.  Node k's structure is kept on node k - 1's under ("next", tol), so a walk
    of any length reads the links it has walked before.  The distinct structures of each
    kind that lack their verification are fitted and validated as one stack: each keeps
    its fit, or its error, as :func:`nullity_fit` keeps every fit, and its checks under
    ("node", tol); each node's constants are compared with the predicted pattern of node
    0's fit on that report (nodes sharing a structure share it).  The sign of delta, that
    is the class, decides the shape:

    * class II (|I_M| < 1, delta < 0): kinds alternate contact / paracontact with
      constants (kappa + (1-mu/2)^2, 2) at even and (kappa - 2 + (1-mu/2)^2, 2) at odd
      indices; every contact node is flagged Tanaka-Webster parallel.
    * classes I and III (|I_M| > 1, delta > 0): every node from index 1 on is
      paracontact with constants (kappa - 2 + (1-mu/2)^2, 2).
    * classes IV and V (|I_M| within ``tol`` of 1): only nodes 0 and 1 exist
      (delta vanishes); N >= 3 raises :class:`DegenerateInvariant` before node 1 is built.

    In index order, the first node whose fit fails raises its error, or whose checks
    fail raises :class:`InternalInconsistency`.
    """
    fit0 = _require_non_sasakian(nullity_fit(s, tol))
    if n_nodes >= 3 and fit0.class_tag in ("IV", "V"):
        raise DegenerateInvariant(f"|I_M| = {abs(fit0.boeckx)}: the sequence is undefined")

    def successor(t):  # the step from t; the reuse search runs over the walk so far
        square = -t.eps * (t.h * t.h.T).sum() / (2 * t.n)  # h^2 = square phi^2 on t
        cls = ContactMetricStructure if square * t.eps > 0 else ParacontactMetricStructure
        u = cls.compatible(s.form, t.h / np.sqrt(abs(square)))
        same = (v for v in structures
                if v.kind == u.kind and max_abs(v.phi - u.phi) <= tol and max_abs(v.g - u.g) <= tol)
        return next(same, u)

    structures = [s]
    for _ in range(1, max(n_nodes, 1)):
        structures.append(structures[-1].cached(("next", tol), lambda: successor(structures[-1])))

    def verify(stack):  # each member's checks, after one stacked fit that keeps each one's fit
        nullity_fit(stack, tol)
        return validate_contact(stack, tol)

    for kind in ("contact", "paracontact"):  # one stack per kind verifies the nodes that lack it
        _each([t for t in dict.fromkeys(structures[1:]) if t.kind == kind], ("node", tol), verify)
    nodes = [TowerNode(0, s, fit0, _tw_parallel(fit0, tol))]
    for k, t in enumerate(structures[1:], 1):
        fit = nullity_fit(t, tol)  # kept on t: a kept error raises a copy
        kept, = _each([t], ("node", tol), verify)
        checks = ResidualReport(tol, dict(kept.entries), dict(kept.notes))  # the node's own copy
        predicted = fit0.kappa + (t.eps - 1.0) + (1.0 - fit0.mu / 2.0) ** 2
        checks.add("predicted_kappa_delta", abs(fit.kappa - predicted))
        checks.add("predicted_mu_delta", abs((fit.mu if fit.mu is not None else 2.0) - 2.0))
        if not checks.valid:
            raise InternalInconsistency(f"tower node {k} failed verification: {checks.failures()}")
        nodes.append(TowerNode(k, t, fit, _tw_parallel(fit, tol), checks))
    return nodes


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
               s.phi - 0.5 * lie_derivative_endo(p.form, p.phi) / root)
    phih = p.phi @ p.h
    checks.add("h_closed_form", 2.0 * root * s.h - ((2.0 - mu) * phih + 2.0 * (eps - kappa) * p.phi))
    shift = (mu / 2.0) * p.phi - p.h / root
    form = (s.phi + s.eps * s.phi @ s.h).T @ s.g - (p.phi + eps * phih).T @ p.g
    rhs = p.levi_civita(tol).gamma + eta_x(p.eta, shift) + eta_y(p.eta, shift) + form_xy(form, p.xi)
    checks.add("levi_civita_relation", s.levi_civita(tol).gamma - rhs)
    checks.merge(blair_identity_suite(s, tol))
    return checks


def _require_large_invariant(s: ContactMetricStructure, tol: float) -> NullityReport:
    """The fit of a class I or III space (|I_M| > 1); :class:`InvariantTooSmall` otherwise."""
    report = _require_non_sasakian(nullity_fit(s, tol))
    if report.class_tag == "II":
        raise InvariantTooSmall(f"|I_M| = {abs(report.boeckx)} <= 1: construction undefined")
    if report.class_tag in ("IV", "V"):
        raise InvariantTooSmall(
            f"class {report.class_tag} (|I_M| within {tol:g} of 1): construction undefined")
    return report


def _phi_eigenframe(s: ContactMetricStructure, inv: float, tol: float):
    """g-orthonormal h-eigenbasis (X_1..X_n with h X_i = lambda X_i), Y_i = phi X_i,
    and the h~-eigenvectors gamma X_i + sigma Y_i for lambda~ and Y_i - sigma gamma X_i
    for -lambda~ (gamma = sqrt((I_M-1)/(I_M+1)), sigma = sign(I_M))."""
    xs = eigendistributions(s, tol)[0].vectors
    ys = (s.phi @ xs.T).T
    gamma, sigma = np.sqrt((inv - 1.0) / (inv + 1.0)), np.sign(inv)
    return xs, ys, gamma * xs + sigma * ys, ys - sigma * gamma * xs


def second_bilegendrian_analysis(
    s: ContactMetricStructure,
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
    constants of the next tower node.  A caller's (a, b) must be given whole,
    carry the sign of I_M and generate finite constants (kappa', mu') and a finite
    regenerated paracontact kappa with an invariant outside [-1, 1]; otherwise
    :class:`InvalidPangPair` is raised before anything is built.
    """
    report = _require_large_invariant(s, tol)
    inv = report.boeckx
    sigma = np.sign(inv)
    delta = _delta(report.kappa, report.mu)
    if a is None and b is None:
        mag = np.sqrt(4.0 * delta)
        a, b = sigma * 2.0 * mag, sigma * mag / 2.0
    elif a is None or b is None:
        raise InvalidPangPair("supply both a and b, or neither")
    if not (sigma * a > 0 and sigma * b > 0):
        wanted = "positive when I_M > 1" if sigma > 0 else "negative when I_M < -1"
        raise InvalidPangPair(f"a, b must be {wanted}")
    kappa_new, mu_new = legendre_pair_constants(a, b)
    half = 1.0 - mu_new / 2.0
    regenerated = kappa_new - 2.0 + half * half  # the paracontact kappa; may overflow to inf
    if not np.isfinite(regenerated):
        raise InvalidPangPair(f"(a, b) = ({a:g}, {b:g}) generates constants beyond the float range")
    # a = b generates the Sasakian member of the family (kappa' = 1); the
    # invariant degenerates to +-infinity there
    new_inv = (a + b) / abs(a - b) if a != b else np.sign(a) * np.inf
    if abs(new_inv) <= 1.0:
        raise InvalidPangPair(f"generated invariant {new_inv} not outside [-1, 1]")
    lam_t = float(np.sqrt(delta))
    checks = ResidualReport(tol=tol)

    _, node1, node2 = sequence(s, 3, tol)
    h_t = node1.structure.h

    checks.add("lambda_square_vs_h_square_scalar", h_t @ h_t - delta * node1.structure.phi @ node1.structure.phi)

    _, _, plus, minus = _phi_eigenframe(s, inv, tol)
    expected_pang = 4.0 * report.lam * (inv - 1.0)
    # plus, then minus: the first failure raises
    d_plus, d_minus = (legendre_distribution(s.form, vecs, tol) for vecs in (plus, minus))
    for sign, name, ld in ((1.0, "plus", d_plus), (-1.0, "minus", d_minus)):
        checks.add(f"{name}_eigenvector_pattern", ld.vectors @ h_t.T - sign * lam_t * ld.vectors)
        checks.add(f"{name}_involutive", involutivity_residual(s.form, ld.vectors))
        checks.add(f"pang_value_{name}", ld.pang - expected_pang * np.eye(s.n))
    # each Libermann map is +-h~_1 / (2 delta) on the opposite distribution (h~_1 of node 2)
    for sign, name, ld, other in ((1.0, "plus", d_plus, d_minus), (-1.0, "minus", d_minus, d_plus)):
        proj = other.span_projector()
        closed = sign * (node2.structure.h / (2.0 * delta)) @ proj
        lam_op = libermann_map(s, ld, other, tol)
        checks.add(f"libermann_{name}_closed_form", lam_op @ proj - closed)

    checks.add("pang_coefficient_product", abs(a * b - 4.0 * delta))
    # the generated structures must induce the same paracontact constants
    checks.add("regenerated_kappa_delta", abs(regenerated - node2.kappa))
    return SecondPairAnalysis(
        lambda_t=lam_t, d_plus=d_plus, d_minus=d_minus, pang_value=expected_pang, a=float(a),
        b=float(b), kappa_new=kappa_new, mu_new=mu_new, new_invariant=float(new_inv), checks=checks)


def sasakian_structure(s: ContactMetricStructure, tol: float = DEFAULT_TOL) -> SasakianPackage:
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
    report = _require_large_invariant(s, tol)
    inv = report.boeckx
    sign = np.sign(inv)
    phi_bar = sign * _phi_bar(s, report)
    sbar = ContactMetricStructure.compatible(s.form, phi_bar)

    checks = ResidualReport(tol=tol)
    checks.merge(validate_contact(sbar, tol))
    checks.add("h_bar_vanishes", sbar.h)
    nij, _ = nijenhuis_norm(sbar, tol)
    checks.add("nijenhuis_vanishes", nij)
    fit = nullity_fit(sbar, tol)
    checks.add("fitted_kappa_is_one", abs(fit.kappa - 1.0))

    _, node1, node2 = sequence(s, 3, tol)
    phi_t, phi_t1 = node1.structure.phi, node2.structure.phi
    checks.add("composition_minus", phi_t @ phi_t1 + sign * phi_bar)  # phi-bar_- = -sign phi-bar
    checks.add("composition_plus", phi_t1 @ phi_t - sign * phi_bar)

    i1, i2, i3 = (phi_bar, phi_t1, phi_t) if inv > 0 else (phi_bar, phi_t, phi_t1)
    proj = s.form.projector
    checks.add("triple_i1_square", (i1 @ i1 + np.eye(s.dim)) @ proj)
    checks.add("triple_i2_square", (i2 @ i2 - np.eye(s.dim)) @ proj)
    checks.add("triple_i3_square", (i3 @ i3 - np.eye(s.dim)) @ proj)
    checks.add("triple_product", (i2 @ i3 - i1) @ proj)
    checks.add("triple_anticommute", (i2 @ i3 + i3 @ i2) @ proj)
    checks.add("phi_tilde_kills_xi", phi_t @ s.xi)
    checks.add("phi_tilde1_kills_xi", phi_t1 @ s.xi)

    # 3-web: each pair of the four eigenframes, on ker(eta), is nonsingular; one stack
    xs, ys, plus, minus = _phi_eigenframe(s, inv, tol)
    frames = np.stack([xs, ys, plus / np.linalg.norm(plus, axis=1, keepdims=True),
                       minus / np.linalg.norm(minus, axis=1, keepdims=True)])
    first, second = np.triu_indices(4, 1)
    pairs = np.concatenate([frames[first], frames[second]], axis=1)
    _, singular, dets = rank_test(s.form.basis @ pairs.transpose(0, 2, 1), tol)
    names = ("d_plus_lambda", "d_minus_lambda", "d_plus_lambda_t", "d_minus_lambda_t")
    for p, q, bad, det in zip(first, second, singular.tolist(), dets):
        checks.add(f"web_{names[p]}__{names[q]}", float(bad), note=f"|det| = {det:.3e}")
    return SasakianPackage(sign="+" if sign > 0 else "-", structure=sbar, checks=checks)
