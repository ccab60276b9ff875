"""Contact and paracontact metric structures and the (kappa, mu)-nullity machinery.

A contact metric structure is a quadruple (phi, xi, eta, g) with

    phi^2 = -I + eta (x) xi,   d eta(X, Y) = g(X, phi Y),
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),

g Riemannian.  The operator h = (1/2) L_xi phi measures the failure of the
Reeb field to be Killing; a structure is a (kappa, mu)-space when

    R_{X Y} xi = kappa (eta(Y) X - eta(X) Y) + mu (eta(Y) h X - eta(X) h Y)

for constants kappa, mu.  Non-Sasakian (kappa < 1) spaces carry the Boeckx
invariant I_M = (1 - mu/2) / sqrt(1 - kappa), which positions the structure
in one of five classes and drives every derived construction downstream.

Every structure is built on a :class:`kmgeom.lie_model.ContactForm`, the (M, eta, xi)
it shares with every structure derived from it, which holds d eta, ad xi, the basis
of ker(eta) and the projector along xi.

A paracontact metric structure (phi~, xi, eta, g~) has phi~^2 = I - eta (x) xi,
g~ of signature (n+1, n) and the +-1 eigendistributions of phi~ on ker(eta) of
rank n each.  Its h~ = (1/2) L_xi phi~ is g~-symmetric but, the metric being
indefinite, need not be diagonalizable; on a nullity space h~^2 = s phi~^2, and
the sign of s classifies the spectrum (real pair / complex pair / nilpotent).

Contact and paracontact structures differ by the sign eps = +1 / -1 in
phi^2 = -eps (I - eta (x) xi) and share one base, :class:`MetricStructure`
(:class:`ContactMetricStructure` and :class:`ParacontactMetricStructure` set the
sign; the latter keeps phi~, g~ and h~ in ``phi``, ``g`` and ``h``), one
validator, :func:`validate_contact`, one nullity fit, :func:`nullity_fit`,
whose :class:`NullityReport` carries the Boeckx invariant and class of a contact
structure or the spectral type of a paracontact h~, one eps-signed (kappa, mu)
identity suite, :func:`blair_identity_suite`, and one eps-signed canonical
connection, :func:`canonical_connection`: Tanno's generalized Tanaka-Webster
connection for eps = +1 and Zamkovoy's canonical paracontact connection for
eps = -1, which :func:`integrability_and_parasasaki` reads for both signs.

:func:`validate_contact` and :func:`nullity_fit` take one structure or a stack
(a list of one kind on one contact form object, such as tower nodes; a single
structure is a stack of one).  A stack gives each member what it gets alone,
its exception included, and each member keeps its own connection and its fit's
report, or error.  The fit, one pass over the stack, alone reads R(., .) xi (not
kept) and compares h~^2 with phi~^2.  Every derived result, such as
:func:`nijenhuis_norm`, :func:`classification_flags` and
:func:`canonical_connection`, is one function of (s, tol) that reads the
structure's kept fit or connection.  Everything a structure keeps goes
through one memo, :func:`_each`, the only reader and writer of a structure's store
(:meth:`MetricStructure.cached` is its stack-of-one case), which keeps every array of
an entry read-only, and every :class:`kmgeom.report.ResidualReport` of an entry with
read-only entries and notes: a caller's write to a kept report raises.  A
:class:`GeometryError` that a build raises is kept too, on every member it was built
for, and each later read raises a fresh copy of it.

:func:`classification_flags` answers for both signs: the Sasakian, K-contact and
Tanaka-Webster-parallel flags of a contact structure, the integrability and
para-Sasakian flags of a paracontact one.  The precondition of the contact-only
results and of the constructions has one guard on the structure's fit,
:func:`_require_non_sasakian`: a fit with a class (a contact structure), else
:class:`DimensionMismatch`, and with an I_M, else :class:`SasakianDegenerate`, the
one error of the Sasakian band, which :func:`boeckx_invariant` raises too.
"""

from functools import partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateMetric, DimensionMismatch, GeometryError, InternalInconsistency,
                     NotNullity, SasakianDegenerate)
from .lie_model import ContactForm, check_finite, lie_derivative_endo
from .report import DEFAULT_TOL, ResidualReport, max_abs, max_abs_each, rank_test
from .riemann import (
    DEGENERATE,
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

# Nijenhuis vanishing uses a looser threshold: two bracket layers of roundoff.
SASAKIAN_FACTOR = 10.0


def _detached(exc: GeometryError) -> GeometryError:
    """A copy of ``exc`` without its traceback, cause or context: it holds no frames."""
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


class MetricStructure:
    """Tensors (phi, g) on a contact form (M, eta, xi) with

        phi^2 = -eps (I - eta (x) xi),   d eta(X, Y) = g(X, phi Y),
        g(phi X, phi Y) = eps (g(X, Y) - eta(X) eta(Y)),

    a contact metric structure for eps = +1 and a paracontact one for
    eps = -1 (the subclasses set ``eps`` and ``kind``).  ``model``, ``xi`` and ``eta``
    are those of ``form``, a :class:`kmgeom.lie_model.ContactForm`, which checked them
    and keeps what they determine.  Construction is where phi and g enter the engine:
    a shape other than (dim, dim) or a NaN or infinite entry raises
    :class:`DimensionMismatch`.
    phi and g are copied and, with h = (1/2) L_xi phi, computed on construction, kept
    read-only; the Levi-Civita connection, nabla phi, the nullity fit and each derived
    result that a later call reads again are kept once per ``tol``, with their arrays
    read-only.
    """

    def __init__(self, form: ContactForm, phi: np.ndarray, g: np.ndarray):
        self.form, self.model, self.xi, self.eta = form, form.model, form.xi, form.eta
        self.phi, self.g = np.array(phi, dtype=float), np.array(g, dtype=float)
        d = form.model.dim
        if (self.phi.shape, self.g.shape) != ((d, d), (d, d)):
            raise DimensionMismatch("structure tensor shapes do not match the model dimension")
        check_finite("structure tensors", self.phi, self.g)
        self.h = 0.5 * lie_derivative_endo(form, self.phi)
        self.phi.flags.writeable = self.g.flags.writeable = self.h.flags.writeable = False
        self._cache = {}

    @classmethod
    def compatible(cls, form: ContactForm, phi: np.ndarray):
        """The structure of ``phi`` on ``form`` with its compatible metric
        g = -eps d eta(., phi .) + eta (x) eta, eps that of the class."""
        return cls(form, phi, -cls.eps * form.d_eta @ phi + np.outer(form.eta, form.eta))

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def cached(self, key, build):
        """``build()``, kept under ``key``: the stack-of-one case of :func:`_each`.  A
        :class:`GeometryError` it raises is kept too, and each later call raises a copy of it."""
        return _unstack(_each([self], key, lambda _: [build()]), True)

    def levi_civita(self, tol: float = DEFAULT_TOL) -> AffineConnection:
        conn = _kept_connections([self], tol)[0]
        if conn.degenerate:
            raise DegenerateMetric(DEGENERATE)
        return conn

    def nabla_phi(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """(nabla_{e_i} phi) e_j at [i, j, :] for the Levi-Civita connection."""
        return self.cached(
            ("nabla_phi", tol), lambda: self.levi_civita(tol).nabla_endo_all(self.phi)
        )


def _stack(s, *names: str) -> tuple:
    """(members, single, *arrays) of one structure (a stack of one) or of a list of
    one kind on one (M, eta, xi), one form object, with the members' arrays ``names``
    stacked."""
    single = isinstance(s, MetricStructure)
    members = [s] if single else list(s)
    first = members[0]
    for t in members[1:]:
        if t.kind != first.kind or t.form is not first.form:
            raise DimensionMismatch("a stack holds structures of one kind on one (M, eta, xi)")
    return members, single, *[_stack_of([getattr(t, n) for t in members]) for n in names]


def _unstack(results: list, single: bool):
    """A stack's results, or a single structure's result (raising a :func:`_detached`
    copy of its exception, so that a kept one collects no frames)."""
    if single and isinstance(results[0], GeometryError):
        raise _detached(results[0])
    return results[0] if single else results


def _stack_of(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays along a leading member axis (a view for a stack of one)."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _each(members: list[MetricStructure], key, build) -> list:
    """Each member's entry ``key``, the one memo and the only reader and writer of
    ``_cache``: the members that lack it get it from one call ``build(missing)`` (one
    value per member), kept with every array it holds, directly or in a tuple or record,
    read-only (:func:`_read_only`).  A :class:`GeometryError` that ``build`` raises is
    kept as each missing member's entry, a :func:`_detached` copy, and raised as is."""
    missing = [t for t in members if key not in t._cache]
    if missing:
        try:
            values = build(missing)
        except GeometryError as exc:
            for t in missing:
                t._cache[key] = _detached(exc)
            raise  # this first call gets the builder's frames
        for t, value in zip(missing, values):
            t._cache[key] = _read_only(value)
    return [t._cache[key] for t in members]


def _read_only(value):
    """``value``, with every array it holds, directly or in a tuple or record, read-only,
    and the array that a view looks into; a :class:`ResidualReport` with read-only
    ``entries`` and ``notes``, so that ``add`` on a kept report raises, and a dict as a
    read-only view of it."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        _read_only(value.base)  # a view's base too, so the view cannot be made writeable
    elif isinstance(value, ResidualReport):
        value.entries, value.notes = MappingProxyType(value.entries), MappingProxyType(value.notes)
    elif isinstance(value, dict):
        return MappingProxyType(value)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _kept_connections(members: list[MetricStructure], tol: float) -> list[AffineConnection]:
    """Each member's :func:`_connections` entry, kept under ("levi_civita", tol)."""
    return _each(members, ("levi_civita", tol), partial(_connections, tol=tol))


def _connections(members: list[MetricStructure], tol: float) -> list[AffineConnection]:
    """Each member's Levi-Civita connection, from one stacked solve."""
    conn = levi_civita(members[0].model, _stack_of([t.g for t in members]), tol)
    return [AffineConnection(gamma, bad)
            for gamma, bad in zip(conn.gamma, conn.degenerate.tolist())]


class ContactMetricStructure(MetricStructure):
    """Tensor quadruple (phi, xi, eta, g) on a Lie model, with cached h: the eps = +1
    member of :class:`MetricStructure`."""

    eps = 1.0
    kind = "contact"


class ParacontactMetricStructure(MetricStructure):
    """Tensor quadruple (phi, xi, eta, g) on a Lie model, with cached h: the
    eps = -1 member of :class:`MetricStructure`, whose ``phi``, ``g`` and ``h``
    are phi~, g~ and h~."""

    eps = -1.0
    kind = "paracontact"


class NullityReport(NamedTuple):
    """Fitted nullity constants of a contact (eps = +1) or paracontact (eps = -1)
    structure, with the invariants of its h that the sign selects.

    ``lam`` is the positive eigenvalue of h: sqrt(1 - kappa) for a non-Sasakian
    contact structure, sqrt(s) for a paracontact h~ with a real eigenvalue pair
    (h~^2 = s phi~^2, s > 0), otherwise None.
    """

    kappa: float
    mu: float | None  # None when h = 0 makes mu indeterminate
    residual: float
    lam: float | None
    # contact
    boeckx: float | None = None  # undefined for Sasakian structures
    class_tag: str | None = None  # "I".."V" or "Sasakian"
    # paracontact
    spectral_type: str | None = None  # real_pair | complex_pair | nilpotent | zero
    h_square_scalar: float | None = None  # s with h~^2 = s phi~^2
    h_square_vs_kappa_residual: float | None = None  # |h~^2 - (1 + kappa) phi~^2|
    curvature_reflection_residual: float | None = None

    def to_dict(self) -> dict:
        out = {
            "kappa": self.kappa,
            "mu": self.mu,
            "mu_indeterminate": self.mu is None,
            "residual": self.residual,
        }
        if self.class_tag is not None:  # the fit of a contact structure always has a class
            return {**out, "lambda": self.lam, "boeckx": self.boeckx, "class": self.class_tag}
        return {
            **out,
            "spectral_type": self.spectral_type,
            "lambda": self.lam,
            "h_square_scalar": self.h_square_scalar,
            "h_square_vs_kappa_residual": self.h_square_vs_kappa_residual,
            "curvature_reflection_residual": self.curvature_reflection_residual,
        }


def validate_contact(s, tol: float = DEFAULT_TOL):
    """Per-axiom residual report of a contact (eps = +1) or paracontact (eps = -1)
    metric structure (one per member of a stack); the structure is valid iff
    all entries <= tol.

    Reports rather than raises so invalid inputs can be inspected.  The sign
    decides the signature entry (Riemannian, or (n+1, n) with the +-1
    eigendistributions of phi of rank n each on ker(eta)), ``trace_phi_h``
    (contact) and ``nabla_xi_identity`` (paracontact: nabla xi = -phi + phi h).
    ``contact_nondegeneracy``, the signature and the eigenranks are read by the one
    scale-free singularity rule, :func:`kmgeom.report.nonzero_sv`: the first from
    :func:`kmgeom.report.rank_test`, the signature from its own eigenvalues and both
    eigenranks from one stacked :func:`kmgeom.report.rank_test`.
    """
    members, single, phi, g, h = _stack(s, "phi", "g", "h")
    reports = [ResidualReport(tol=tol) for _ in members]
    add = partial(ResidualReport.add_each, reports)
    s0 = members[0]
    n, eps, xi, eta = s0.n, s0.eps, s0.xi, s0.eta
    ident = np.eye(s0.dim)
    deta = s0.form.d_eta

    add("phi_square", phi @ phi + eps * ident - eps * np.outer(xi, eta))
    add("deta_compatibility", deta - g @ phi)
    add("metric_compatibility", phi.swapaxes(1, 2) @ g @ phi - eps * g + eps * np.outer(eta, eta))
    add("eta_xi", eta @ xi - 1.0)
    add("phi_xi", phi @ xi)
    add("eta_circ_phi", eta @ phi)
    add("eta_is_g_xi", g @ xi - eta)

    k = s0.form.basis
    _, singular, det = rank_test(k @ deta @ k.T, tol)
    add("contact_nondegeneracy", float(singular), [f"|det d_eta|_ker eta| = {det:.3e}"] * len(members))
    sigs = signature(g, tol)
    if eps > 0:
        add("riemannian_signature", [0.0 if (q == 0 and z == 0) else 1.0 for _, q, z in sigs],
            [f"signature ({p},{q},{z})" for p, q, z in sigs])
    else:
        add("paracontact_signature", [0.0 if sig == (n + 1, n, 0) else 1.0 for sig in sigs],
            [f"signature ({p},{q},{z}), expected ({n + 1},{n},0)" for p, q, z in sigs])
        # [b, 0] and [b, 1]: columns (phi - I) and (phi + I) applied to a ker(eta) basis
        ranks = rank_test(np.stack([phi - ident, phi + ident], 1) @ k.T, tol)[0].T.tolist()
        for name, col in zip(("plus_one_eigenrank", "minus_one_eigenrank"), ranks):
            add(name, [abs(rank - n) for rank in col], [f"rank {r}, expected {n}" for r in col])

    add("h_xi", h @ xi)
    add("eta_circ_h", eta @ h)
    add("h_phi_anticommute", h @ phi + phi @ h)
    add("trace_h", np.trace(h, axis1=1, axis2=2))
    if eps > 0:
        add("trace_phi_h", np.trace(phi @ h, axis1=1, axis2=2))
    add("h_g_symmetric", h.swapaxes(1, 2) @ g - g @ h)
    if eps < 0:
        conns = _kept_connections(members, tol)
        degenerate = np.array([c.degenerate for c in conns])
        # xi @ gamma has rows nabla_{e_i} xi, the columns of the operator nabla xi;
        # a degenerate metric has no connection: recorded as inf, and reporting goes on
        nabla_xi = (xi @ _stack_of([c.gamma for c in conns])).swapaxes(1, 2)
        add("nabla_xi_identity",
            np.where(degenerate[:, None, None], np.inf, nabla_xi - (-phi + phi @ h)),
            [DEGENERATE if d else None for d in degenerate])
    return _unstack(reports, single)


def nijenhuis_norm(s: MetricStructure, tol: float = DEFAULT_TOL) -> tuple[float, ResidualReport]:
    """Max-abs of the eps-signed N_phi over basis pairs, plus side identities, built once
    per ``tol`` and kept on ``s``.

    The side residuals check phi N(X,Y) + N(phi X, Y) = 2 eps eta(X) h Y and the
    vanishing of eta(N(phi X, Y)).
    """

    def build():
        nij = nijenhuis_tensor(s.form, s.phi, s.eps)
        nij_phi = np.tensordot(s.phi.T, nij, 1)  # [i, j, :] = N(phi e_i, e_j)
        side = ResidualReport(tol=tol)
        side.add("nijenhuis_phi_shift", nij @ s.phi.T + nij_phi - 2.0 * s.eps * eta_x(s.eta, s.h))
        side.add("nijenhuis_eta_component", nij_phi @ s.eta)
        return max_abs(nij), side

    return s.cached(("nijenhuis_norm", tol), build)


def _fit_r_xi(members: list[MetricStructure],
              tol: float) -> list[NullityReport | GeometryError]:
    """Each member's :func:`nullity_fit` report, or its error, in one pass over the stack:
    least-squares (kappa, mu) from R_{b xi} xi = kappa b + mu h b over ker(eta), with
    R(., .) xi formed here from the members' connections and not kept.  The s of
    h~^2 = s phi~^2 is preferred over an eigensolver: a g~-symmetric h~ need not be
    diagonalizable under an indefinite metric, while s is defined on every structure
    certified here.
    The design matrix is finite, as the tensors are checked where a structure is
    built; a degenerate member's R(., .) xi is NaN, and so is its fit."""
    s0, nb = members[0], len(members)
    xi, eta = s0.xi, s0.eta
    _, _, h, phi = _stack(members, "h", "phi")
    conns = _kept_connections(members, tol)
    gamma = _stack_of([c.gamma for c in conns])
    r_xi = curvature_xi(s0.model, AffineConnection(gamma), xi)  # NaN for a degenerate metric
    dbasis = s0.form.basis
    h_zero = max_abs_each(h, nb) <= tol
    a = np.empty((nb, dbasis.size, 1 if h_zero.all() else 2))
    a[..., 0] = dbasis.ravel()  # rows b
    if a.shape[2] > 1:  # rows h b, zero where the mu-term vanishes
        a[..., 1] = (dbasis @ h.swapaxes(1, 2) * ~h_zero[:, None, None]).reshape(nb, -1)
    t = (dbasis @ (xi @ r_xi)).reshape(nb, -1)  # rows R_{b xi} xi
    # lstsq does not stack, and a stacked pinv solve moves the last bits of the
    # constants (and of I_M in error messages): one lstsq per member
    sol = np.array([np.linalg.lstsq(ab, tb, rcond=None)[0] for ab, tb in zip(a, t)])
    kappa = sol[:, 0]
    ident = np.eye(len(eta))
    pred = kappa[:, None, None, None] * (eta_y(eta, ident) - eta_x(eta, ident))
    if a.shape[2] > 1:
        mu = np.where(h_zero, 0.0, sol[:, 1])
        pred = pred + mu[:, None, None, None] * (eta_y(eta, h) - eta_x(eta, h))
    residual = max_abs_each(r_xi - pred, nb)
    side = [()] * nb
    if s0.eps < 0:
        p2, h2 = phi @ phi, h @ h
        scal = np.sum(h2 * p2, axis=(1, 2)) / np.sum(p2 * p2, axis=(1, 2))
        # rows R~_{xi e_i} xi + phi~ R~_{xi phi~ e_i} xi against the columns of 2 (phi~^2 - h~^2)
        r_xi_x = np.einsum("i,bijk->bjk", xi, r_xi)
        phi_t = phi.swapaxes(1, 2)
        reflection = r_xi_x + phi_t @ r_xi_x @ phi_t - 2.0 * (p2 - h2).swapaxes(1, 2)
        side = zip(scal.tolist(), max_abs_each(h2 - scal[:, None, None] * p2, nb).tolist(),
                   max_abs_each(h2 - (1.0 + kappa)[:, None, None] * p2, nb).tolist(),
                   max_abs_each(reflection, nb).tolist())
    each = zip(members, conns, kappa.tolist(), sol[:, -1].tolist(), residual.tolist(),
               h_zero.tolist(), side)
    return [_nullity_report(t, c.degenerate, tol, kb, None if hz else mb, rb, *extra)
            for t, c, kb, mb, rb, hz, extra in each]


def boeckx_invariant(kappa: float, mu: float, tol: float = DEFAULT_TOL) -> float:
    """I_M = (1 - mu/2) / sqrt(1 - kappa); undefined in the Sasakian band kappa >= 1 - tol."""
    if kappa >= 1.0 - tol:
        raise SasakianDegenerate("Boeckx invariant undefined in the Sasakian band "
                                 f"(kappa >= 1 - tol), kappa = {kappa:.12g}")
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


def nullity_fit(s, tol: float = DEFAULT_TOL):
    """Fit (kappa, mu), verify the full nullity tensor equation, and add the
    invariants of h that the sign of ``s`` selects (one stacked pass for a stack).

    Raises :class:`NotNullity` when the best-fit residual exceeds ``tol`` (a
    valid structure that is not a nullity space).  Contact: also when kappa
    lands above 1 beyond roundoff, which no contact metric structure can do;
    otherwise the Boeckx invariant and the class.  Paracontact: the spectral
    type of h~ and the side checks h~^2 = (1 + kappa~) phi~^2 and
    R~_{xi X} xi + phi~ R~_{xi phi~ X} xi = 2 (phi~^2 X - h~^2 X);
    :class:`InternalInconsistency` when h~^2 is not proportional to phi~^2.
    Each member's report, or its error, is kept on it under ("nullity", tol).
    """
    members, single = _stack(s)
    return _unstack(_each(members, ("nullity", tol), partial(_fit_r_xi, tol=tol)), single)


def _nullity_report(s: MetricStructure, degenerate: bool, tol: float, kappa: float,
                    mu: float | None, residual: float, scal: float | None = None,
                    scal_residual: float | None = None, vs_kappa: float | None = None,
                    reflection: float | None = None) -> NullityReport | GeometryError:
    """One member of :func:`nullity_fit` (its report, or its error, returned), from its
    :func:`_fit_r_xi` reading: mu is None when ||h|| <= tol (the mu-term, and its column
    of the fit, vanish), ``residual`` is that of the nullity equation, and the
    paracontact readings are the least-squares s of h~^2 = s phi~^2, the residual of
    that fit, of h~^2 = (1 + kappa~) phi~^2 and of the reflection check.  The one place
    that decides kappa < 1 and, by its class, where I_M sits relative to +-1, and the
    spectral type of a paracontact h~ by the sign of s:
    a real eigenvalue pair +-sqrt(s) for s > 0, a complex pair for s < 0,
    nilpotent for s = 0 with h~ != 0, zero for h~ = 0."""
    if degenerate:
        return DegenerateMetric(DEGENERATE)
    if not residual <= tol:
        kind = "" if s.eps > 0 else "paracontact "
        return NotNullity(
            f"curvature does not satisfy a {kind}nullity condition (residual {residual:.3e})",
            residual,
        )
    if s.eps < 0:
        if not scal_residual <= tol:
            return InternalInconsistency(
                f"h~^2 is not proportional to phi~^2 (residual {scal_residual:.3e})")
        # mu is None exactly when the fit found h~ = 0
        stype = ("zero" if mu is None else "real_pair" if scal > tol
                 else "complex_pair" if scal < -tol else "nilpotent")
        return NullityReport(
            kappa=kappa, mu=mu, residual=residual,
            lam=float(np.sqrt(scal)) if stype == "real_pair" else None, spectral_type=stype,
            h_square_scalar=scal, h_square_vs_kappa_residual=vs_kappa,
            curvature_reflection_residual=reflection,
        )
    if kappa > 1.0 + tol:
        return NotNullity(f"fitted kappa = {kappa} exceeds 1", residual)

    sasakian = kappa >= 1.0 - tol
    lam = None if sasakian else float(np.sqrt(1.0 - kappa))
    boeckx = None if sasakian or mu is None else boeckx_invariant(kappa, mu, tol)
    return NullityReport(kappa=kappa, mu=mu, residual=residual, lam=lam, boeckx=boeckx,
                         class_tag=classify_by_invariant(boeckx, tol))


def nabla_phi_closed_form(s: MetricStructure, h: np.ndarray | float) -> np.ndarray:
    """(nabla_X phi) Y = eps [g(X + eps hX, Y) xi - eta(Y)(X + eps hX)] at [i, j, :].

    The Levi-Civita derivative of phi on a (kappa, mu)-space of either sign,
    written with g(X, (I + eps h) Y) (h is g-symmetric); ``h = 0`` gives that of a
    Sasakian (eps = +1) or para-Sasakian (eps = -1) structure.
    """
    a = np.eye(s.dim) + s.eps * h
    return s.eps * (form_xy(s.g @ a, s.xi) - eta_y(s.eta, a))


def canonical_connection(
    s: MetricStructure, tol: float = DEFAULT_TOL
) -> tuple[AffineConnection, ResidualReport, np.ndarray]:
    """The canonical connection of ``s``, its defining-property report and
    (nabla*_{e_i} phi) e_j at [i, j, :], built once per ``tol`` and kept on ``s``.

        nabla*_X Y = nabla_X Y + eta(X) phi Y - eta(Y) nabla_X xi + g(nabla_X xi, Y) xi,
        nabla xi = -phi (I + eps h),

    Tanno's generalized Tanaka-Webster connection for eps = +1 and the canonical
    paracontact connection for eps = -1.

    Verified properties: parallel eta / xi / g; the phi-derivative shift
    nabla* phi = nabla phi - (the closed form of :func:`nabla_phi_closed_form`);
    torsion reflection through phi in the xi slot; torsion equal to
    2 d eta(X, Y) xi on the contact distribution; and the full closed-form
    torsion -eps (eta(X) phi h Y - eta(Y) phi h X) + 2 g(X, phi Y) xi.
    """

    def build():
        m, eps, phi, xi, eta, g, h = s.model, s.eps, s.phi, s.xi, s.eta, s.g, s.h
        lc = s.levi_civita(tol)
        phih = phi @ h

        gamma = lc.gamma + eta_x(eta, phi) + eta_y(eta, phi + eps * phih)
        gamma += form_xy((np.eye(s.dim) + eps * h).T @ g @ phi, xi)
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
        closed = -eps * (eta_x(eta, phih) - eta_y(eta, phih)) + 2.0 * form_xy(g @ phi, xi)
        report.add("torsion_closed_form", tors - closed)
        kbasis = s.form.basis
        report.add("torsion_on_contact_distribution",
                   on_pairs(tors - 2.0 * form_xy(s.form.d_eta, xi), kbasis, kbasis))
        return conn, report, nabla_phi

    return s.cached(("canonical_connection", tol), build)


def integrability_and_parasasaki(s: MetricStructure, tol: float = DEFAULT_TOL) -> MappingProxyType:
    """Integrability and the h = 0 closed form, computed once per ``tol`` and kept on ``s``.

    Integrability (CR integrability for eps = +1) is computed two independent ways:
    the eps-signed Nijenhuis torsion valued in R xi on the contact distribution, and
    the vanishing of nabla* phi for :func:`canonical_connection`; a disagreement
    beyond 10 tol signals an engine bug, not a model property.  ``para_sasakian``
    reads the closed form of nabla phi at h = 0: the Sasakian one for eps = +1, the
    para-Sasakian one for eps = -1.  The curvature form R~_{XY} xi =
    -(eta(Y) X - eta(X) Y) that a para-Sasakian structure satisfies is the
    kappa~ = -1 nullity condition of :func:`nullity_fit`.
    """

    def build():
        kbasis = s.form.basis
        nij = on_pairs(nijenhuis_tensor(s.form, s.phi, s.eps), kbasis, kbasis)
        worst_d = max_abs(nij @ s.form.projector.T)  # N on D x D off the line R xi
        integrable_n = worst_d <= tol

        worst_pc = max_abs(canonical_connection(s, tol)[2])
        integrable_pc = worst_pc <= tol

        if integrable_n != integrable_pc and abs(worst_d - worst_pc) > 10.0 * tol:
            raise InternalInconsistency(
                f"integrability criteria disagree: Nijenhuis residual {worst_d:.3e}, "
                f"nabla* phi residual {worst_pc:.3e}"
            )

        # (nabla_X phi) Y = eps [g(X, Y) xi - eta(Y) X], the closed form at h = 0
        ps = max_abs(s.nabla_phi(tol) - nabla_phi_closed_form(s, 0.0))
        return {
            "integrable": bool(integrable_n),
            "para_sasakian": bool(ps <= tol),
            "nijenhuis_d_residual": worst_d,
            "pc_parallel_phi_residual": worst_pc,
            "para_sasaki_residual": ps,
        }

    return s.cached(("integrability_and_parasasaki", tol), build)


def blair_identity_suite(s: MetricStructure, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Covariant-derivative identities of a contact (eps = +1) or paracontact
    (eps = -1) (kappa, mu)-space, in Blair's eps-signed form, at the constants of the
    structure's kept fit ``nullity_fit(s, tol)`` (whose errors it raises); an
    indeterminate mu is read as 0, as the mu-terms vanish with h.

    Checks, over all basis pairs (X, Y):

    * (nabla_X phi) Y = eps [g(X + eps hX, Y) xi - eta(Y)(X + eps hX)]
    * (nabla_X h) Y   = g(X, (eps - kappa) phi Y + h phi Y) xi
                        + eta(Y)(h phi X - (eps - kappa) phi X) - mu eta(X) phi h Y
    * (nabla_X phi h) Y = g(X, eps hY + (kappa - eps) phi^2 Y) xi
                          + eta(Y)(eps hX + (kappa - eps) phi^2 X) + eps mu eta(X) hY
    * h^2 = (kappa - eps) phi^2
    * nabla_xi h = mu h phi
    """
    fit = nullity_fit(s, tol)
    kappa, mu = fit.kappa, 0.0 if fit.mu is None else fit.mu
    report = ResidualReport(tol=tol)
    eps, phi, xi, eta, g, h = s.eps, s.phi, s.xi, s.eta, s.g, s.h
    conn = s.levi_civita(tol)
    phih = phi @ h
    phi2 = phi @ phi
    d_h = conn.nabla_endo_all(h)

    rhs2 = form_xy(g @ ((eps - kappa) * phi + h @ phi), xi)
    # h phi X - (eps - kappa) phi X = h (phi X + eps phi h X), by h^2 = (kappa - eps) phi^2
    rhs2 += eta_y(eta, h @ (phi + eps * phih)) - mu * eta_x(eta, phih)
    rhs3 = form_xy(g @ (eps * h - (eps - kappa) * phi2), xi)
    rhs3 += eta_y(eta, eps * h - (eps - kappa) * phi2) + eps * mu * eta_x(eta, h)
    report.add("nabla_phi_identity", s.nabla_phi(tol) - nabla_phi_closed_form(s, h))
    report.add("nabla_h_identity", d_h - rhs2)
    report.add("nabla_phi_h_identity", conn.nabla_endo_all(phih) - rhs3)
    report.add("h_square_identity", h @ h - (kappa - eps) * phi2)
    # rows (nabla_xi h) e_j against the columns of mu h phi
    report.add("nabla_xi_h_identity", np.tensordot(xi, d_h, 1) - mu * (h @ phi).T)
    return report


def classification_flags(s: MetricStructure, tol: float = DEFAULT_TOL) -> dict:
    """The flags of a nullity space, after its kept fit ``nullity_fit(s, tol)`` (whose
    errors it raises).  Contact: the Sasakian / K-contact / Tanaka-Webster-parallel
    predicates; ``k_contact`` is the fit's h = 0 (mu indeterminate), and ``tw_parallel``
    uses the mu = 2 criterion for non-Sasakian nullity spaces.  Paracontact: the
    ``integrable`` and ``para_sasakian`` predicates of
    :func:`integrability_and_parasasaki`.
    """
    report = nullity_fit(s, tol)
    if s.eps < 0:
        found = integrability_and_parasasaki(s, tol)
        return {"integrable": found["integrable"], "para_sasakian": found["para_sasakian"]}
    nij, _ = nijenhuis_norm(s, tol)
    return {"sasakian": bool(nij <= SASAKIAN_FACTOR * tol), "k_contact": report.mu is None,
            "tw_parallel": _tw_parallel(report, tol)}


def _require_non_sasakian(report: NullityReport) -> NullityReport:
    """``report``, the fit of a contact structure with an I_M.  The fit of a paracontact
    one (which has no class) raises :class:`DimensionMismatch`; one in the Sasakian band
    (kappa >= 1 - tol, or mu indeterminate) :class:`SasakianDegenerate`."""
    if report.class_tag is None:
        raise DimensionMismatch("the operation requires a contact structure, not a paracontact one")
    if report.boeckx is None:
        raise SasakianDegenerate(
            "construction requires a non-Sasakian structure: the fit puts this one in the Sasakian "
            f"band (kappa >= 1 - tol, or mu indeterminate), kappa = {report.kappa:.12g}")
    return report


def _tw_parallel(report: NullityReport, tol: float) -> bool:
    """mu = 2 on a non-Sasakian contact nullity space (one that has an I_M)."""
    return report.boeckx is not None and abs(report.mu - 2.0) <= tol
