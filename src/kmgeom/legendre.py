"""Legendre distributions: Pang forms, class assignment, Libermann maps and
the bijection onto paracontact metric structures.

On a contact model, a Legendre distribution is an n-dimensional subbundle L
of ker(eta) with d eta|_{L x L} = 0.  The Pang form

    Pi_L(X, X') = 2 d eta([xi, X], X')

classifies foliations as positive / negative / flat / degenerate, and its
definiteness pattern on the two h-eigendistributions realizes the five-class
split of non-Sasakian nullity spaces.  A transversal pair (L1, L2) induces a
paracontact metric structure (+1 on L1, -1 on L2); for the h-eigenpair this
is exactly the canonical paracontact structure.

:func:`legendre_distribution` and :func:`involutivity_residual` take a stack of
bases (B, n, dim), a single basis being a stack of one; each bi-Legendrian pair is
one stack, and each member gets what it gets alone, its exception included.
"""

from typing import NamedTuple

import numpy as np

from .contact import ContactMetricStructure, NullityReport, _unstack
from .errors import (
    ClassificationMismatch,
    DegeneratePang,
    GeometryError,
    NotIntegrable,
    NotTransversal,
    SasakianDegenerate,
)
from .lie_model import LieModel, d_one_form, reeb_vector
from .paracontact import (
    ParacontactMetricStructure,
    canonical_pc_connection,
    integrability_and_parasasaki,
)
from .report import DEFAULT_TOL, ResidualReport, finite_stack, max_abs, max_abs_each
from .riemann import AffineConnection, form_xy, on_pairs


class LegendreDistribution(NamedTuple):
    """n vectors (rows) spanning a Legendre subbundle, with its Pang data."""

    vectors: np.ndarray  # shape (n, dim)
    pang: np.ndarray  # shape (n, n)
    definiteness: str  # positive | negative | flat | degenerate | indefinite

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def span_projector(self) -> np.ndarray:
        """Orthogonal projector onto span(vectors)."""
        q, _ = np.linalg.qr(self.vectors.T)
        return q @ q.T


def _definiteness(eig: np.ndarray, tol: float) -> str:
    pos = np.sum(eig > tol)
    neg = np.sum(eig < -tol)
    zero = len(eig) - pos - neg
    if zero == len(eig):
        return "flat"
    if zero > 0:
        return "degenerate"
    if pos == len(eig):
        return "positive"
    if neg == len(eig):
        return "negative"
    return "indefinite"


def _bases(vectors) -> tuple[np.ndarray, bool]:
    """(``vectors`` as a stack of bases (B, n, dim), whether it was one basis)."""
    v = np.asarray(vectors, dtype=float)
    return (np.atleast_2d(v)[None], True) if v.ndim < 3 else (v, False)


def legendre_distribution(
    model: LieModel,
    eta: np.ndarray,
    xi: np.ndarray,
    vectors: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> LegendreDistribution | list:
    """Validate (eta-annihilation, d eta-isotropy, dimension) and attach Pang data
    (DegeneratePang if it is not finite); a stack of bases gives a list, in one pass."""
    v, single = _bases(vectors)
    n, nb = (model.dim - 1) // 2, len(v)
    if v.shape[1:] != (n, model.dim):
        raise NotTransversal(f"expected {n} basis vectors of length {model.dim}")
    # a non-finite member is an identity here (its SVD would fail the stack); it fails on eta
    rank = np.linalg.matrix_rank(finite_stack(v)[0], tol=1e-12)
    worst_eta = max_abs_each(v @ eta, nb).tolist()
    deta = d_one_form(model, eta)
    iso = max_abs_each(v @ deta @ v.swapaxes(1, 2), nb).tolist()
    pi = 2.0 * (v @ model.ad(xi).T) @ deta @ v.swapaxes(1, 2)  # [b, i, j] = 2 d eta([xi, b_i], b_j)
    eig = np.linalg.eigvalsh(finite_stack(0.5 * (pi + pi.swapaxes(1, 2)))[0])
    out = []
    for b in range(nb):
        if rank[b] < n:
            out.append(NotTransversal("basis vectors are linearly dependent"))
        elif not worst_eta[b] <= tol:
            out.append(NotTransversal(
                f"basis not tangent to the contact distribution ({worst_eta[b]:.3e})"))
        elif not iso[b] <= tol:
            out.append(NotTransversal(f"d eta does not vanish on the span ({iso[b]:.3e})"))
        elif not np.isfinite(pi[b]).all():
            out.append(DegeneratePang("Pang form is not finite"))
        else:
            out.append(LegendreDistribution(v[b], pi[b], _definiteness(eig[b], tol)))
    return _unstack(out, single)


def involutivity_residual(
    model: LieModel, eta: np.ndarray, xi: np.ndarray, vectors: np.ndarray
) -> float | list[float]:
    """Max deviation of [b_i, b_j] from span(basis), with its eta-component (a
    list of them, from one pass, for a stack of bases).

    Zero iff the distribution is a foliation whose leaves stay tangent to
    ker(eta).
    """
    v, single = _bases(vectors)
    xis = np.broadcast_to(xi, (len(v), 1, model.dim))
    q, _ = np.linalg.qr(np.concatenate([v, xis], axis=1).swapaxes(1, 2))
    br = on_pairs(model.c, v, v)  # [b, i, j, :] = [v_bi, v_bj]
    off_span = br - br @ (q @ q.swapaxes(1, 2))[:, None]  # the projector q q^T is symmetric
    each = max_abs_each(np.concatenate([off_span, (br @ eta)[..., None]], axis=-1), len(v))
    return each[0].item() if single else each.tolist()


def eigendistributions(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> tuple[LegendreDistribution, LegendreDistribution]:
    """g-orthonormal eigenbases of h for +-lambda, verified Legendre and involutive
    as one stack; the first failure, in the order (+lambda, -lambda), is raised."""
    if report.lam is None:
        raise SasakianDegenerate("h has no +-lambda eigenspaces when kappa >= 1")
    lam = report.lam
    # h is g-symmetric: the generalized problem (g h) v = lam g v reduces, with
    # g = L L^T, to the symmetric problem L^-1 (g h) L^-T w = lam w; the vectors
    # v = L^-T w are then g-orthonormal
    gh = s.g @ s.h
    l_inv = np.linalg.inv(np.linalg.cholesky(s.g))
    vals, w = np.linalg.eigh(l_inv @ (0.5 * (gh + gh.T)) @ l_inv.T)
    vecs = l_inv.T @ w
    band = max(100 * tol, 1e-8 * max(1.0, abs(lam)))
    idx = [np.flatnonzero(np.abs(vals - target) <= band) for target in (lam, -lam)]
    # the members before the first of another multiplicity than n, as one stack
    k = next((b for b, found in enumerate(idx) if len(found) != s.n), 2)
    if k:
        bases = vecs.T[np.array(idx[:k])]
        pair = legendre_distribution(s.model, s.eta, s.xi, bases, tol)
        for ld, residual in zip(pair, involutivity_residual(s.model, s.eta, s.xi, bases)):
            if isinstance(ld, GeometryError):
                raise ld
            if not residual <= tol:
                raise NotIntegrable(f"eigendistribution not involutive (residual {residual:.3e})")
    if k < 2:
        raise SasakianDegenerate(
            f"eigenvalue {(lam, -lam)[k]} has multiplicity {len(idx[k])}, expected {s.n}")
    # Pi_{D(+-lambda)} = 2 lambda (I_M +- 1) g: the definiteness is read in units of
    # 2 lambda, where ``tol`` is the band of the invariant-based class
    d_pos, d_neg = (ld._replace(definiteness=_definiteness(
        np.linalg.eigvalsh(ld.pang + ld.pang.T) / (4.0 * lam), tol)) for ld in pair)
    return d_pos, d_neg


def _cached_eigendistributions(
    s: ContactMetricStructure, report: NullityReport, tol: float
) -> tuple[LegendreDistribution, LegendreDistribution]:
    """:func:`eigendistributions`, built once per (report, tol) and kept on ``s``."""
    return s.cached(("eigendistributions", report, tol),
                    lambda: eigendistributions(s, report, tol))


_CLASS_BY_PATTERN = {
    ("positive", "positive"): "I",
    ("positive", "negative"): "II",
    ("negative", "negative"): "III",
    ("positive", "flat"): "IV",
    ("flat", "negative"): "V",
}


def classify_class(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> str:
    """Class I-V from Pang definiteness, cross-checked against the invariant rule."""
    pattern = tuple(ld.definiteness for ld in _cached_eigendistributions(s, report, tol))
    pang_tag = _CLASS_BY_PATTERN.get(pattern)
    if pang_tag is None:
        raise ClassificationMismatch(f"Pang pattern {pattern} matches no class")
    if pang_tag != report.class_tag:
        raise ClassificationMismatch(
            f"Pang-based class {pang_tag} disagrees with invariant-based {report.class_tag}"
        )
    return pang_tag


def _frame(
    l1: LegendreDistribution, l2: LegendreDistribution, xi: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The frame {L1, L2, xi} as columns, and its inverse; NotTransversal unless it spans."""
    frame = np.column_stack([l1.vectors.T, l2.vectors.T, xi[:, None]])
    if not abs(np.linalg.det(frame)) > tol:
        raise NotTransversal("span(L1, L2, xi) has rank below the model dimension")
    return frame, np.linalg.inv(frame)


def libermann_map(
    s: ContactMetricStructure | ParacontactMetricStructure,
    ld: LegendreDistribution,
    other: LegendreDistribution,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """The Libermann map Lambda of the nondegenerate Legendre foliation ``ld``: the
    partial inverse of d eta, as a full endomorphism that solves
    Pi_L(Lambda Z, X) = d eta(Z, X) with kernel T L + R xi.

    ``other`` supplies the complementary Legendre distribution on which the
    map acts nontrivially.  Verifies Lambda^2 = 0 and Lambda [xi, X] = X/2.
    """
    pi = ld.pang
    if not (np.isfinite(pi).all() and abs(np.linalg.det(pi)) > tol):  # no det of a NaN
        raise DegeneratePang("Pang form is singular; no Libermann map")
    model, eta, xi = s.model, s.eta, s.xi
    deta = d_one_form(model, eta)

    n = ld.n
    # action on the complementary basis: Lambda q_r = sum_j coeffs[r, j] l_j,
    # with sum_j coeffs[r, j] Pi_L(l_j, l_k) = d eta(q_r, l_k)
    rhs = other.vectors @ deta @ ld.vectors.T
    images = np.linalg.solve(pi.T, rhs.T).T @ ld.vectors

    # the full endomorphism in the model basis: it maps the `other` block of
    # the frame to the solved images and kills the rest
    _, frame_inv = _frame(ld, other, xi, tol)
    lam_op = images.T @ frame_inv[n : 2 * n]

    sq = max_abs(lam_op @ lam_op)
    if not sq <= 10 * tol:
        raise DegeneratePang(f"Lambda^2 != 0 (residual {sq:.3e})")
    xi_brackets = ld.vectors @ model.ad(xi).T  # rows [xi, l]
    half = max_abs(xi_brackets @ lam_op.T - 0.5 * ld.vectors)
    if not half <= 10 * tol:
        raise DegeneratePang(f"Lambda [xi, X] != X/2 on the foliation (residual {half:.3e})")
    return lam_op


def conjugate_distribution(
    s: ContactMetricStructure, ld: LegendreDistribution, tol: float = DEFAULT_TOL
) -> LegendreDistribution:
    """Q = phi L, the conjugate Legendre distribution (g-orthogonal to L)."""
    vectors = (s.phi @ ld.vectors.T).T
    q = legendre_distribution(s.model, s.eta, s.xi, vectors, tol)
    ortho = max_abs(ld.vectors @ s.g @ vectors.T)
    if not ortho <= tol:
        raise NotTransversal(f"conjugate distribution not g-orthogonal ({ortho:.3e})")
    return q


def psi_to_paracontact(
    model: LieModel,
    l1: LegendreDistribution,
    l2: LegendreDistribution,
    eta: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> ParacontactMetricStructure:
    """The induced paracontact metric structure of a transversal Legendre pair.

    phi~ is +1 on L1, -1 on L2, 0 on the Reeb direction;
    g~ = d eta(., phi~ .) + eta (x) eta.
    """
    xi = reeb_vector(model, eta, tol)
    frame, frame_inv = _frame(l1, l2, xi, tol)
    n = l1.n
    phi_t = frame[:, :n] @ frame_inv[:n] - frame[:, n : 2 * n] @ frame_inv[n : 2 * n]
    return ParacontactMetricStructure.compatible(model, phi_t, xi, eta)


def bilegendrian_connection(
    induced: ParacontactMetricStructure,
    l1: LegendreDistribution,
    l2: LegendreDistribution,
    tol: float = DEFAULT_TOL,
    contact: ContactMetricStructure | None = None,
) -> tuple[AffineConnection, ResidualReport]:
    """Bi-Legendrian connection of an integrable pair, via the coincidence with
    the canonical paracontact connection of the induced structure.

    The axiom report covers: preservation of both distributions, parallel xi
    and d eta, the two torsion conditions, and parallelism of phi~ and g~.
    When ``contact`` is supplied (a nullity structure whose eigendistributions
    are (L1, L2)), parallelism of g, phi, h and of both Pang forms is checked
    as well.
    """
    flags = integrability_and_parasasaki(induced, tol)
    if not flags["integrable"]:
        raise NotIntegrable(
            "induced paracontact structure is not integrable; "
            "the bi-Legendrian and canonical connections need not coincide"
        )
    conn, _ = canonical_pc_connection(induced, tol)
    model, eta, xi = induced.model, induced.eta, induced.xi
    deta = d_one_form(model, eta)

    report = ResidualReport(tol=tol)
    frame, frame_inv = _frame(l1, l2, xi, tol)
    n = l1.n

    def off_block(vectors: np.ndarray, block: slice) -> np.ndarray:
        """Frame coordinates outside ``block`` of nabla_{e_i} v, for every e_i and row v."""
        coords = (vectors @ conn.gamma) @ frame_inv.T  # [i, r, :] for nabla_{e_i} v_r
        return np.delete(coords, block, axis=-1)

    report.add("preserves_l1", off_block(l1.vectors, np.s_[:n]))
    report.add("preserves_l2", off_block(l2.vectors, np.s_[n : 2 * n]))
    report.add("parallel_xi", xi @ conn.gamma)  # [i, :] = nabla_{e_i} xi
    report.add("parallel_deta", conn.nabla_bilinear_all(deta))

    tors = conn.torsion(model)
    report.add(
        "torsion_mixed_pair", on_pairs(tors - 2.0 * form_xy(deta, xi), l1.vectors, l2.vectors)
    )
    proj1 = frame[:, :n] @ frame_inv[:n]
    proj2 = frame[:, n : 2 * n] @ frame_inv[n : 2 * n]
    ad_xi = model.ad(xi)
    expected = proj2 @ ad_xi @ proj1 + proj1 @ ad_xi @ proj2  # column i: expected T(e_i, xi)
    report.add("torsion_xi_slot", xi @ tors - expected.T)  # xi @ tors has rows T(e_i, xi)

    report.add("parallel_phi_t", flags["pc_parallel_phi_residual"])  # max-abs of nabla^pc phi~
    report.add("parallel_g_t", conn.nabla_bilinear_all(induced.g))

    if contact is not None:
        report.add("parallel_g", conn.nabla_bilinear_all(contact.g))
        report.add("parallel_phi", conn.nabla_endo_all(contact.phi))
        report.add("parallel_h", conn.nabla_endo_all(contact.h))
        for name, ld in (("parallel_pang_l1", l1), ("parallel_pang_l2", l2)):
            # a[i] expresses nabla_{e_i} of the distribution's basis in that basis
            a = np.linalg.pinv(ld.vectors.T) @ (ld.vectors @ conn.gamma).transpose(0, 2, 1)
            report.add(name, a.transpose(0, 2, 1) @ ld.pang + ld.pang @ a)
    return conn, report


def legendre_pair_constants(a: float, b: float, tol: float = DEFAULT_TOL) -> tuple[float, float, bool]:
    """Nullity constants of the contact structure generated by a bi-Legendrian
    pair whose Pang coefficients are (a, b):

        kappa = 1 - (a - b)^2 / 16,   mu = 2 - (a + b) / 2.

    The pair is Sasakian exactly when a = b.
    """
    kappa = 1.0 - (a - b) ** 2 / 16.0
    mu = 2.0 - (a + b) / 2.0
    return kappa, mu, bool(abs(a - b) <= tol)
