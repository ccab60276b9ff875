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
Contact and paracontact structures differ by the sign eps = +1 / -1 in
phi^2 = -eps (I - eta (x) xi) and share one base, :class:`MetricStructure`,
one validator, :func:`validate_contact`, and one nullity fit,
:func:`nullity_fit`, whose :class:`NullityReport` carries the Boeckx
invariant and class of a contact structure or the spectral type of a
paracontact h~, and one eps-signed (kappa, mu) identity suite,
:func:`blair_identity_suite`.

:func:`validate_contact` and :func:`nullity_fit` take one structure or a stack
(a list of one kind on one (M, eta, xi), such as tower nodes; a single
structure is a stack of one).  A stack gives each member what it gets alone,
its exception included, and each member keeps its own connection and fit.
The fit, one pass over the stack, alone reads R(., .) xi (not kept) and
compares h~^2 with phi~^2.  Everything a structure keeps goes through one
memo, :func:`_each` (:meth:`MetricStructure.cached` is its stack-of-one
case), which keeps every array of an entry read-only.
"""

from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateMetric, DimensionMismatch, GeometryError, InternalInconsistency,
                     NotNullity, SasakianOrInvalid)
from .lie_model import LieModel, d_one_form, lie_derivative_endo
from .report import DEFAULT_TOL, ResidualReport, finite_stack, max_abs, max_abs_each
from .riemann import (
    DEGENERATE,
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


def _detached(exc: GeometryError) -> GeometryError:
    """A copy of ``exc`` without its traceback, cause or context: it holds no frames."""
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


class MetricStructure:
    """Tensor quadruple (phi, xi, eta, g) on a Lie model with

        phi^2 = -eps (I - eta (x) xi),   d eta(X, Y) = g(X, phi Y),
        g(phi X, phi Y) = eps (g(X, Y) - eta(X) eta(Y)),

    a contact metric structure for eps = +1 and a paracontact one for
    eps = -1 (the subclasses set ``eps`` and ``kind``).  h = (1/2) L_xi phi is
    computed on construction; the basis of ker(eta) and the Nijenhuis tensor
    once, and the Levi-Civita connection, nabla phi and the nullity fit once
    per ``tol``, are kept with their arrays read-only.
    """

    def __init__(self, model: LieModel, phi: np.ndarray, xi: np.ndarray, eta: np.ndarray,
                 g: np.ndarray, h: np.ndarray | None = None):
        self.model = model
        self.phi, self.xi, self.eta, self.g = (np.asarray(a, dtype=float) for a in (phi, xi, eta, g))
        if h is None:
            h = 0.5 * lie_derivative_endo(model, self.xi, self.phi)
            h.flags.writeable = False
        self.h = h
        self._cache = {}

    @classmethod
    def compatible(cls, model: LieModel, phi: np.ndarray, xi: np.ndarray, eta: np.ndarray):
        """The structure of ``phi`` on the contact model (model, eta) with its compatible
        metric g = -eps d eta(., phi .) + eta (x) eta, eps that of the class."""
        g = -cls.eps * d_one_form(model, eta) @ phi + np.outer(eta, eta)
        return cls(model, phi, xi, eta, g)

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def d_eta(self) -> np.ndarray:
        return d_one_form(self.model, self.eta)

    def contact_projector(self) -> np.ndarray:
        """Projector onto the contact distribution ker(eta) along xi."""
        return np.eye(self.dim) - np.outer(self.xi, self.eta)

    def cached(self, key, build):
        """``build()``, kept under ``key``: the stack-of-one case of :func:`_each`.  A
        :class:`GeometryError` it raises is kept too, and each later call raises a copy of it."""

        def build_one(_):
            try:
                return [build()]
            except GeometryError as exc:  # kept without frames; this first call raises exc
                self._cache[key] = _detached(exc)
                raise

        value = _each([self], key, build_one)[0]
        if isinstance(value, GeometryError):
            raise _detached(value)
        return value

    def contact_basis(self) -> np.ndarray:
        """Orthonormal (Euclidean) basis of ker(eta), shape (2n, dim)."""
        return self.cached("contact_basis", lambda: _kernel_basis(self.eta))

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

    def nijenhuis_tensor(self) -> np.ndarray:
        """N(e_i, e_j) at [i, j, :] of the eps-signed Nijenhuis tensor of phi."""
        return self.cached(
            "nijenhuis_tensor",
            lambda: nijenhuis_tensor(self.model, self.phi, self.xi, self.eta, self.eps),
        )


def _stack(s, *names: str) -> tuple:
    """(members, single, *arrays) of one structure (a stack of one) or of a list of
    one kind on one (M, eta, xi), with the members' arrays ``names`` stacked."""
    single = isinstance(s, MetricStructure)
    members = [s] if single else list(s)
    for t in members[1:]:
        if t.kind != members[0].kind or t.model is not members[0].model:
            raise DimensionMismatch("a stack holds structures of one kind on one model")
    return members, single, *[_stack_of([getattr(t, n) for t in members]) for n in names]


def _unstack(results: list, single: bool):
    """A stack's results, or a single structure's result (raising its exception)."""
    if single and isinstance(results[0], GeometryError):
        raise results[0]
    return results[0] if single else results


def _stack_of(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays along a leading member axis (a view for a stack of one)."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _each(members: list[MetricStructure], key, build) -> list:
    """Each member's entry ``key``, the one memo: the members that lack it get it from
    one call ``build(missing)`` (one value per member), kept with every array it holds,
    directly or in a tuple or record, read-only (:func:`_read_only`)."""
    missing = [t for t in members if key not in t._cache]
    if missing:
        for t, value in zip(missing, build(missing)):
            t._cache[key] = _read_only(value)
    return [t._cache[key] for t in members]


def _read_only(value):
    """``value``, with every array it holds, directly or in a tuple or record, read-only,
    and the array that a view looks into."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        _read_only(value.base)  # a view's base too, so the view cannot be made writeable
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
    """Tensor quadruple (phi, xi, eta, g) on a Lie model, with cached h; the
    Nijenhuis norm and its side report are kept once per ``tol``."""

    eps = 1.0
    kind = "contact"

    def nijenhuis_norm(self, tol: float = DEFAULT_TOL) -> tuple[float, ResidualReport]:
        """:func:`nijenhuis_norm` of this structure, built once per ``tol``."""
        return self.cached(("nijenhuis_norm", tol), lambda: nijenhuis_norm(self, tol))


def _kernel_basis(eta: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(eta[None, :])  # rows 1.. of vt span the kernel
    return vt[1:]


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

    @property
    def mu_indeterminate(self) -> bool:
        return self.mu is None

    def to_dict(self) -> dict:
        out = {
            "kappa": self.kappa,
            "mu": self.mu,
            "mu_indeterminate": self.mu_indeterminate,
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
    """
    members, single, phi, g, h = _stack(s, "phi", "g", "h")
    reports = [ResidualReport(tol=tol) for _ in members]
    add = partial(ResidualReport.add_each, reports)
    s0 = members[0]
    n, eps, xi, eta = s0.n, s0.eps, s0.xi, s0.eta
    ident = np.eye(s0.dim)
    deta = s0.d_eta()

    add("phi_square", phi @ phi + eps * ident - eps * np.outer(xi, eta))
    add("deta_compatibility", deta - g @ phi)
    add("metric_compatibility", phi.swapaxes(1, 2) @ g @ phi - eps * g + eps * np.outer(eta, eta))
    add("eta_xi", eta @ xi - 1.0)
    add("phi_xi", phi @ xi)
    add("eta_circ_phi", eta @ phi)
    add("eta_is_g_xi", g @ xi - eta)

    k = s0.contact_basis()
    det_restricted = abs(np.linalg.det(k @ deta @ k.T))
    add("contact_nondegeneracy", 0.0 if det_restricted > tol else 1.0,
        [f"|det d_eta|_ker eta| = {det_restricted:.3e}"] * len(members))
    sigs = signature(g, tol)
    if eps > 0:
        add("riemannian_signature", [0.0 if (q == 0 and z == 0) else 1.0 for _, q, z in sigs],
            [f"signature ({p},{q},{z})" for p, q, z in sigs])
    else:
        add("paracontact_signature", [0.0 if sig == (n + 1, n, 0) else 1.0 for sig in sigs],
            [f"signature ({p},{q},{z}), expected ({n + 1},{n},0)" for p, q, z in sigs])
        for sign, name in ((1.0, "plus_one_eigenrank"), (-1.0, "minus_one_eigenrank")):
            # columns: (phi -+ I) applied to a ker(eta) basis; its rank counts singular values
            mat, bad = finite_stack((phi - sign * ident) @ k.T)
            sv = np.linalg.svd(mat, compute_uv=False)
            ranks = np.where(bad, 0, np.sum(sv > max(tol, 1e-12), axis=-1)).tolist()
            add(name, [abs(rank - n) for rank in ranks], [f"rank {r}, expected {n}" for r in ranks])

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


def nijenhuis_norm(s: ContactMetricStructure, tol: float = DEFAULT_TOL) -> tuple[float, ResidualReport]:
    """Max-abs of N_phi over basis pairs, plus side identities.

    The side residuals check phi N(X,Y) + N(phi X, Y) = 2 eta(X) h Y and the
    vanishing of eta(N(phi X, Y)).
    """
    nij = s.nijenhuis_tensor()
    nij_phi = np.tensordot(s.phi.T, nij, 1)  # [i, j, :] = N(phi e_i, e_j)
    side = ResidualReport(tol=tol)
    side.add("nijenhuis_phi_shift", nij @ s.phi.T + nij_phi - 2.0 * eta_x(s.eta, s.h))
    side.add("nijenhuis_eta_component", nij_phi @ s.eta)
    return max_abs(nij), side


class _Fit(NamedTuple):
    """A member's :func:`_fit_r_xi` reading; the paracontact fields are None for contact."""

    kappa: float
    mu: float | None  # None when ||h|| <= tol: the mu-term, and its column of the fit, vanish
    residual: float  # of R_{X Y} xi = kappa (eta(Y) X - eta(X) Y) + mu (eta(Y) h X - eta(X) h Y)
    h_square_scalar: float | None = None  # least-squares s of h~^2 = s phi~^2
    h_square_residual: float | None = None  # of that fit
    h_square_vs_kappa_residual: float | None = None  # of h~^2 = (1 + kappa~) phi~^2
    reflection_residual: float | None = None  # of the reflection check of nullity_fit


def _kept_fits(members: list[MetricStructure], tol: float) -> list[_Fit]:
    """Each member's :func:`_fit_r_xi` entry, kept under ("nullity", tol)."""
    return _each(members, ("nullity", tol), partial(_fit_r_xi, tol=tol))


def _fit_r_xi(members: list[MetricStructure], tol: float) -> list[_Fit]:
    """Each member's :class:`_Fit` in one pass over the stack: least-squares (kappa, mu)
    from R_{b xi} xi = kappa b + mu h b over ker(eta), with R(., .) xi formed here
    from the members' connections and not kept.  The s of h~^2 = s phi~^2 is preferred
    over an eigensolver: a g~-symmetric h~ need not be diagonalizable under an
    indefinite metric, while s is defined on every structure certified here."""
    s0, nb = members[0], len(members)
    xi, eta = s0.xi, s0.eta
    _, _, h, phi = _stack(members, "h", "phi")
    gamma = _stack_of([c.gamma for c in _kept_connections(members, tol)])
    r_xi = curvature_xi(s0.model, AffineConnection(gamma), xi)  # NaN for a degenerate metric
    dbasis = s0.contact_basis()
    h_zero = max_abs_each(h, nb) <= tol  # NaN is not zero
    a = np.empty((nb, dbasis.size, 1 if h_zero.all() else 2))
    a[..., 0] = dbasis.ravel()  # rows b
    if a.shape[2] > 1:  # rows h b, zero where the mu-term vanishes
        a[..., 1] = (dbasis @ h.swapaxes(1, 2) * ~h_zero[:, None, None]).reshape(nb, -1)
    a, bad = finite_stack(a)
    t = (dbasis @ (xi @ r_xi)).reshape(nb, -1)  # rows R_{b xi} xi
    # lstsq does not stack, and a stacked pinv solve moves the last bits of the
    # constants (and of I_M in error messages): one lstsq per member
    sol = np.array([np.linalg.lstsq(ab, tb, rcond=None)[0] for ab, tb in zip(a, t)])
    sol[bad] = np.nan
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
    return [_Fit(kb, None if hz else mb, rb, *extra) for kb, mb, rb, hz, extra in
            zip(kappa.tolist(), sol[:, -1].tolist(), residual.tolist(), h_zero.tolist(), side)]


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
    """
    members, single = _stack(s)
    each = zip(members, _kept_fits(members, tol), _kept_connections(members, tol))
    return _unstack([_nullity_report(t, fit, conn.degenerate, tol) for t, fit, conn in each], single)


def _nullity_report(s: MetricStructure, fit: _Fit, degenerate: bool,
                    tol: float) -> NullityReport | GeometryError:
    """One member of :func:`nullity_fit` (its report, or its error, returned), from its
    :func:`_fit_r_xi` reading; the one place that decides kappa < 1 and, by its class,
    where I_M sits relative to +-1, and the spectral type of a paracontact h~ by the
    sign of s in h~^2 = s phi~^2:
    a real eigenvalue pair +-sqrt(s) for s > 0, a complex pair for s < 0,
    nilpotent for s = 0 with h~ != 0, zero for h~ = 0."""
    if degenerate:
        return DegenerateMetric(DEGENERATE)
    kappa, mu, residual = fit.kappa, fit.mu, fit.residual
    if not residual <= tol:
        kind = "" if s.eps > 0 else "paracontact "
        return NotNullity(
            f"curvature does not satisfy a {kind}nullity condition (residual {residual:.3e})",
            residual,
        )
    if s.eps < 0:
        if not fit.h_square_residual <= tol:
            return InternalInconsistency(
                f"h~^2 is not proportional to phi~^2 (residual {fit.h_square_residual:.3e})")
        scal = fit.h_square_scalar
        # mu is None exactly when the fit found h~ = 0
        stype = ("zero" if mu is None else "real_pair" if scal > tol
                 else "complex_pair" if scal < -tol else "nilpotent")
        return NullityReport(
            kappa=kappa, mu=mu, residual=residual,
            lam=float(np.sqrt(scal)) if stype == "real_pair" else None, spectral_type=stype,
            h_square_scalar=scal, h_square_vs_kappa_residual=fit.h_square_vs_kappa_residual,
            curvature_reflection_residual=fit.reflection_residual,
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


def blair_identity_suite(
    s: MetricStructure, kappa: float, mu: float, tol: float = DEFAULT_TOL
) -> ResidualReport:
    """Covariant-derivative identities of a contact (eps = +1) or paracontact
    (eps = -1) (kappa, mu)-space, in Blair's eps-signed form.

    Checks, over all basis pairs (X, Y):

    * (nabla_X phi) Y = eps [g(X + eps hX, Y) xi - eta(Y)(X + eps hX)]
    * (nabla_X h) Y   = g(X, (eps - kappa) phi Y + h phi Y) xi
                        + eta(Y)(h phi X - (eps - kappa) phi X) - mu eta(X) phi h Y
    * (nabla_X phi h) Y = g(X, eps hY + (kappa - eps) phi^2 Y) xi
                          + eta(Y)(eps hX + (kappa - eps) phi^2 X) + eps mu eta(X) hY
    * h^2 = (kappa - eps) phi^2
    * nabla_xi h = mu h phi
    """
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


def classification_flags(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> dict:
    """Sasakian / K-contact / Tanaka-Webster-parallel predicates.

    ``k_contact`` is the fit's h = 0 (mu indeterminate); ``tw_parallel`` uses the
    mu = 2 criterion for non-Sasakian nullity spaces.
    """
    nij, _ = s.nijenhuis_norm(tol)
    return {"sasakian": bool(nij <= SASAKIAN_FACTOR * tol), "k_contact": report.mu is None,
            "tw_parallel": _tw_parallel(report, tol)}


def _tw_parallel(report: NullityReport, tol: float) -> bool:
    """mu = 2 on a non-Sasakian contact nullity space (one that has an I_M)."""
    return report.boeckx is not None and abs(report.mu - 2.0) <= tol
