"""Legendre distributions: Pang forms, class assignment, Libermann maps and
the bi-Legendrian connection of the h-eigenpair.

On a contact model, a Legendre distribution is an n-dimensional subbundle L
of ker(eta) with d eta|_{L x L} = 0.  The Pang form

    Pi_L(X, X') = 2 d eta([xi, X], X')

classifies foliations as positive / negative / flat / degenerate, and its
definiteness pattern on the two h-eigendistributions realizes the five-class
split of non-Sasakian nullity spaces.  The h-eigenpair (D(lambda), D(-lambda))
induces a paracontact metric structure (+1 on the first, -1 on the second), which
is exactly the canonical paracontact structure h / lambda, and whose canonical
connection is the bi-Legendrian connection of the pair.

:func:`legendre_distribution` and :func:`involutivity_residual` take the contact form
(M, eta, xi) of :class:`kmgeom.lie_model.ContactForm`, which checked eta and xi and
holds d eta and ad xi, and one basis (n, dim), and return one result or raise; a
bi-Legendrian pair is two calls, one per distribution.  They and :func:`libermann_map`
check their basis first: one of another dimension than the model's, or with a NaN or
infinite entry, a stack of bases (B, n, dim), and a Pang form given to
:func:`libermann_map` that is not n x n, raise :class:`DimensionMismatch`, so no such
entry reaches LAPACK.  The structure that :func:`bilegendrian_connection` induces is
built on the form of ``s``.

Each Pang form is decomposed once: :func:`legendre_distribution` keeps the eigenvalues
of its symmetric part (one ``eigvalsh``) on the :class:`LegendreDistribution`, and
:func:`eigendistributions` reads the definiteness in units of 2 lambda from those,
rescaled.
"""

from typing import NamedTuple

import numpy as np

from .contact import (
    ContactMetricStructure,
    ParacontactMetricStructure,
    _require_non_sasakian,
    canonical_connection,
    integrability_and_parasasaki,
    nullity_fit,
)
from .errors import (
    ClassificationMismatch,
    DegeneratePang,
    DimensionMismatch,
    InternalInconsistency,
    InvalidPangPair,
    NotTransversal,
    SasakianDegenerate,
)
from .lie_model import ContactForm, check_finite
from .report import DEFAULT_TOL, ResidualReport, max_abs, rank_test
from .riemann import AffineConnection, form_xy, on_pairs


class LegendreDistribution(NamedTuple):
    """n vectors (rows) spanning a Legendre subbundle, with its Pang data."""

    vectors: np.ndarray  # shape (n, dim)
    pang: np.ndarray  # shape (n, n)
    definiteness: str  # positive | negative | flat | degenerate | indefinite
    pang_eig: np.ndarray  # eigenvalues of the symmetrized Pang form (pang + pang^T) / 2

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


def _bases(form: ContactForm, vectors) -> np.ndarray:
    """``vectors`` as one basis (n, dim), after the check of the Legendre functions'
    input: :class:`DimensionMismatch` unless it is one basis (not a stack of them) of
    vectors of the model's dimension, all finite."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim > 2 or v.shape[-1:] != (form.model.dim,):
        raise DimensionMismatch(f"basis vectors must have length {form.model.dim}, in one basis: {v.shape}")
    check_finite("basis vectors", v)
    return np.atleast_2d(v)


def legendre_distribution(
    form: ContactForm, vectors: np.ndarray, tol: float = DEFAULT_TOL
) -> LegendreDistribution:
    """Validate (eta-annihilation, d eta-isotropy, dimension) on the contact form
    (M, eta, xi) and attach Pang data."""
    v = _bases(form, vectors)
    n, dim = len(form.basis) // 2, form.model.dim
    if v.shape != (n, dim):
        raise NotTransversal(f"expected {n} basis vectors of length {dim}")
    if rank_test(v, tol)[1]:
        raise NotTransversal("basis vectors are linearly dependent")
    worst_eta = max_abs(v @ form.eta)
    if not worst_eta <= tol:
        raise NotTransversal(f"basis not tangent to the contact distribution ({worst_eta:.3e})")
    iso = max_abs(v @ form.d_eta @ v.T)
    if not iso <= tol:
        raise NotTransversal(f"d eta does not vanish on the span ({iso:.3e})")
    pi = 2.0 * (v @ form.ad_xi.T) @ form.d_eta @ v.T  # [i, j] = 2 d eta([xi, b_i], b_j)
    eig = np.linalg.eigvalsh(0.5 * (pi + pi.T))
    return LegendreDistribution(v, pi, _definiteness(eig, tol), eig)


def involutivity_residual(form: ContactForm, vectors: np.ndarray) -> float:
    """Max deviation of [b_i, b_j] from span(basis), with its eta-component.

    Zero iff the distribution is a foliation whose leaves stay tangent to
    ker(eta).
    """
    v = _bases(form, vectors)
    q, _ = np.linalg.qr(np.vstack([v, form.xi]).T)
    br = on_pairs(form.model.c, v, v)  # [i, j, :] = [v_i, v_j]
    off_span = br - br @ (q @ q.T)  # the projector q q^T is symmetric
    return max_abs(np.concatenate([off_span, (br @ form.eta)[..., None]], axis=-1))


def eigendistributions(
    s: ContactMetricStructure, tol: float = DEFAULT_TOL
) -> tuple[LegendreDistribution, LegendreDistribution]:
    """g-orthonormal eigenbases of h for +-lambda (lambda of the structure's nullity
    fit, which passes the non-Sasakian guard of :mod:`kmgeom.contact`), each verified
    Legendre and involutive in turn; the first failure, in the order (+lambda, -lambda),
    is raised.  On a space that passed the fit and the guard, D(+-lambda) are involutive
    (Blair, Koufogiorgos and Papantoniou 1995), so a residual above ``tol`` is the
    engine disagreeing with its own fit: :class:`InternalInconsistency`.  The guard runs
    on every call, before the memo; the pair is built once per ``tol`` and kept on
    ``s``, as is the error of a failed build."""
    lam = _require_non_sasakian(nullity_fit(s, tol)).lam

    def build():
        # h is g-symmetric: the generalized problem (g h) v = lam g v reduces, with
        # g = L L^T, to the symmetric problem L^-1 (g h) L^-T w = lam w; the vectors
        # v = L^-T w are then g-orthonormal
        gh = s.g @ s.h
        l_inv = np.linalg.inv(np.linalg.cholesky(s.g))
        vals, w = np.linalg.eigh(l_inv @ (0.5 * (gh + gh.T)) @ l_inv.T)
        vecs = l_inv.T @ w
        band = max(100 * tol, 1e-8 * max(1.0, abs(lam)))
        pair = []
        for target in (lam, -lam):  # each distribution in turn: its first failure is raised
            found = np.flatnonzero(np.abs(vals - target) <= band)
            if len(found) != s.n:
                raise SasakianDegenerate(
                    f"eigenvalue {target} has multiplicity {len(found)}, expected {s.n}")
            ld = legendre_distribution(s.form, vecs.T[found], tol)
            residual = involutivity_residual(s.form, ld.vectors)
            if not residual <= tol:
                raise InternalInconsistency(f"eigendistribution not involutive (residual {residual:.3e})")
            # Pi_{D(+-lambda)} = 2 lambda (I_M +- 1) g: the definiteness is read in units of
            # 2 lambda, where ``tol`` is the band of the invariant-based class, from the
            # eigenvalues the Legendre validation kept
            pair.append(ld._replace(definiteness=_definiteness(ld.pang_eig / (2.0 * lam), tol)))
        return tuple(pair)

    return s.cached(("eigendistributions", tol), build)


_CLASS_BY_PATTERN = {
    ("positive", "positive"): "I",
    ("positive", "negative"): "II",
    ("negative", "negative"): "III",
    ("positive", "flat"): "IV",
    ("flat", "negative"): "V",
}


def classify_class(s: ContactMetricStructure, tol: float = DEFAULT_TOL) -> str:
    """Class I-V from Pang definiteness, cross-checked against the invariant rule of
    the structure's nullity fit."""
    report = nullity_fit(s, tol)
    pattern = tuple(ld.definiteness for ld in eigendistributions(s, tol))
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
    """The frame {L1, L2, xi} as columns, and its inverse; NotTransversal unless it spans
    (is nonsingular to :func:`rank_test`)."""
    frame = np.column_stack([l1.vectors.T, l2.vectors.T, xi[:, None]])
    if rank_test(frame, tol)[1]:
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
    A basis of another dimension or with a non-finite entry, or a Pang form that is
    not n x n, raises :class:`DimensionMismatch`, and a Pang form that is not finite,
    or singular to :func:`rank_test`, :class:`DegeneratePang`.
    """
    _bases(s.form, ld.vectors)
    _bases(s.form, other.vectors)
    pi, n = ld.pang, ld.n
    if np.shape(pi) != (n, n):
        raise DimensionMismatch(f"Pang form shape {np.shape(pi)} is not ({n}, {n})")
    if not np.isfinite(pi).all() or rank_test(pi, tol)[1]:  # no SVD of a NaN
        raise DegeneratePang("Pang form is singular; no Libermann map")

    # action on the complementary basis: Lambda q_r = sum_j coeffs[r, j] l_j,
    # with sum_j coeffs[r, j] Pi_L(l_j, l_k) = d eta(q_r, l_k)
    rhs = other.vectors @ s.form.d_eta @ ld.vectors.T
    images = np.linalg.solve(pi.T, rhs.T).T @ ld.vectors

    # the full endomorphism in the model basis: it maps the `other` block of
    # the frame to the solved images and kills the rest
    _, frame_inv = _frame(ld, other, s.xi, tol)
    lam_op = images.T @ frame_inv[n : 2 * n]

    sq = max_abs(lam_op @ lam_op)
    if not sq <= 10 * tol:
        raise DegeneratePang(f"Lambda^2 != 0 (residual {sq:.3e})")
    xi_brackets = ld.vectors @ s.form.ad_xi.T  # rows [xi, l]
    half = max_abs(xi_brackets @ lam_op.T - 0.5 * ld.vectors)
    if not half <= 10 * tol:
        raise DegeneratePang(f"Lambda [xi, X] != X/2 on the foliation (residual {half:.3e})")
    return lam_op


def bilegendrian_connection(
    s: ContactMetricStructure, tol: float = DEFAULT_TOL
) -> tuple[AffineConnection, ResidualReport]:
    """Bi-Legendrian connection of the h-eigenpair (L1, L2) = (D(lambda), D(-lambda))
    of ``eigendistributions(s, tol)``, via the coincidence with the canonical
    connection of the paracontact structure the pair induces: phi~ = +1 on L1, -1 on
    L2, 0 on xi, with g~ = d eta(., phi~ .) + eta (x) eta.

    The report covers: ``induced_is_canonical``, max|phi~ - h / lambda| (lambda of
    the structure's nullity fit); ``induced_integrable``, the Nijenhuis residual of
    phi~ on D x D; preservation of both distributions, parallel xi and d eta, the two
    torsion conditions, and parallelism of phi~, g~, g, phi, h and both Pang forms.
    """
    l1, l2 = eigendistributions(s, tol)
    xi, deta = s.xi, s.form.d_eta
    frame, frame_inv = _frame(l1, l2, xi, tol)
    n = l1.n
    proj1 = frame[:, :n] @ frame_inv[:n]
    proj2 = frame[:, n : 2 * n] @ frame_inv[n : 2 * n]
    induced = ParacontactMetricStructure.compatible(s.form, proj1 - proj2)
    flags = integrability_and_parasasaki(induced, tol)
    conn = canonical_connection(induced, tol)[0]

    report = ResidualReport(tol=tol)
    report.add("induced_is_canonical", induced.phi - s.h / nullity_fit(s, tol).lam)
    report.add("induced_integrable", flags["nijenhuis_d_residual"])  # max-abs of N~ on D x D

    def off_block(vectors: np.ndarray, block: slice) -> np.ndarray:
        """Frame coordinates outside ``block`` of nabla_{e_i} v, for every e_i and row v."""
        coords = (vectors @ conn.gamma) @ frame_inv.T  # [i, r, :] for nabla_{e_i} v_r
        return np.delete(coords, block, axis=-1)

    report.add("preserves_l1", off_block(l1.vectors, np.s_[:n]))
    report.add("preserves_l2", off_block(l2.vectors, np.s_[n : 2 * n]))
    report.add("parallel_xi", xi @ conn.gamma)  # [i, :] = nabla_{e_i} xi
    report.add("parallel_deta", conn.nabla_bilinear_all(deta))

    tors = conn.torsion(s.model)
    report.add(
        "torsion_mixed_pair", on_pairs(tors - 2.0 * form_xy(deta, xi), l1.vectors, l2.vectors)
    )
    ad_xi = s.form.ad_xi
    expected = proj2 @ ad_xi @ proj1 + proj1 @ ad_xi @ proj2  # column i: expected T(e_i, xi)
    report.add("torsion_xi_slot", xi @ tors - expected.T)  # xi @ tors has rows T(e_i, xi)

    report.add("parallel_phi_t", flags["pc_parallel_phi_residual"])  # max-abs of nabla* phi~
    report.add("parallel_g_t", conn.nabla_bilinear_all(induced.g))
    report.add("parallel_g", conn.nabla_bilinear_all(s.g))
    report.add("parallel_phi", conn.nabla_endo_all(s.phi))
    report.add("parallel_h", conn.nabla_endo_all(s.h))
    for name, ld in (("parallel_pang_l1", l1), ("parallel_pang_l2", l2)):
        # a[i] expresses nabla_{e_i} of the distribution's basis in that basis
        a = np.linalg.pinv(ld.vectors.T) @ (ld.vectors @ conn.gamma).transpose(0, 2, 1)
        report.add(name, a.transpose(0, 2, 1) @ ld.pang + ld.pang @ a)
    return conn, report


def legendre_pair_constants(a: float, b: float) -> tuple[float, float]:
    """Nullity constants of the contact structure generated by a bi-Legendrian
    pair whose Pang coefficients are (a, b):

        kappa = 1 - (a - b)^2 / 16,   mu = 2 - (a + b) / 2.

    The pair is Sasakian exactly when a = b.  A pair whose constants fall beyond
    the float range raises :class:`InvalidPangPair`.
    """
    a, b = float(a), float(b)  # a product of Python floats overflows to inf, with no warning
    kappa = 1.0 - (a - b) * (a - b) / 16.0  # and, unlike **, with no OverflowError
    mu = 2.0 - (a + b) / 2.0
    if not np.isfinite([kappa, mu]).all():
        raise InvalidPangPair(f"(a, b) = ({a:g}, {b:g}) generates constants beyond the float range")
    return kappa, mu
