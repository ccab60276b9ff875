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
"""

from dataclasses import dataclass

import numpy as np

from .contact import ContactMetricStructure, NullityReport
from .errors import (
    ClassificationMismatch,
    DegeneratePang,
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
from .report import DEFAULT_TOL, ResidualReport, max_abs
from .riemann import AffineConnection, form_xy, on_pairs


@dataclass(frozen=True)
class LegendreDistribution:
    """n vectors (rows) spanning a Legendre subbundle, with its Pang data."""

    vectors: np.ndarray  # shape (n, dim)
    pang: np.ndarray  # shape (n, n)
    definiteness: str  # positive | negative | flat | degenerate | indefinite

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def span_projector(self, extra: np.ndarray | None = None) -> np.ndarray:
        """Orthogonal projector onto span(vectors [+ extra rows])."""
        rows = self.vectors if extra is None else np.vstack([self.vectors, extra])
        q, _ = np.linalg.qr(rows.T)
        return q @ q.T


@dataclass(frozen=True)
class LibermannMap:
    """The partial inverse of d eta attached to a nondegenerate Legendre foliation.

    Materialized as a full endomorphism: zero on T F + R xi, solved from
    Pi_F(Lambda Z, X) = d eta(Z, X) on the complementary distribution.
    """

    lambda_op: np.ndarray


def _pang_matrix(model: LieModel, eta: np.ndarray, xi: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Pi[i, j] = 2 d eta([xi, b_i], b_j) for the rows b_i of ``vectors``."""
    xi_brackets = vectors @ model.ad(xi).T  # rows [xi, b_i]
    return 2.0 * xi_brackets @ d_one_form(model, eta) @ vectors.T


def _definiteness(pi: np.ndarray, tol: float) -> str:
    eig = np.linalg.eigvalsh(0.5 * (pi + pi.T))
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


def legendre_distribution(
    model: LieModel,
    eta: np.ndarray,
    xi: np.ndarray,
    vectors: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> LegendreDistribution:
    """Validate (eta-annihilation, d eta-isotropy, dimension) and attach Pang data."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = (model.dim - 1) // 2
    if vectors.shape != (n, model.dim):
        raise NotTransversal(f"expected {n} basis vectors of length {model.dim}")
    if np.linalg.matrix_rank(vectors, tol=1e-12) < n:
        raise NotTransversal("basis vectors are linearly dependent")
    worst_eta = max_abs(vectors @ eta)
    if not worst_eta <= tol:
        raise NotTransversal(f"basis not tangent to the contact distribution ({worst_eta:.3e})")
    deta = d_one_form(model, eta)
    iso = max_abs(vectors @ deta @ vectors.T)
    if not iso <= tol:
        raise NotTransversal(f"d eta does not vanish on the span ({iso:.3e})")
    pi = _pang_matrix(model, eta, xi, vectors)
    return LegendreDistribution(vectors=vectors, pang=pi, definiteness=_definiteness(pi, tol))


def pang_invariant(
    s: ContactMetricStructure, ld: LegendreDistribution, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, str]:
    """Pang form 2 d eta([xi, b_i], b_j) on the distribution's basis."""
    pi = _pang_matrix(s.model, s.eta, s.xi, ld.vectors)
    return pi, _definiteness(pi, tol)


def involutivity_residual(
    model: LieModel, eta: np.ndarray, xi: np.ndarray, vectors: np.ndarray
) -> float:
    """Max deviation of [b_i, b_j] from span(basis), with its eta-component.

    Zero iff the distribution is a foliation whose leaves stay tangent to
    ker(eta).
    """
    q, _ = np.linalg.qr(np.vstack([vectors, xi]).T)
    br = on_pairs(model.c, vectors, vectors)  # [i, j, :] = [b_i, b_j]
    off_span = br - br @ (q @ q.T)  # the projector q q^T is symmetric
    return max_abs(np.concatenate([off_span, (br @ eta)[..., None]], axis=-1))


def eigendistributions(
    s: ContactMetricStructure, report: NullityReport, tol: float = DEFAULT_TOL
) -> tuple[LegendreDistribution, LegendreDistribution]:
    """g-orthonormal eigenbases of h for +-lambda, verified Legendre and involutive."""
    if report.kappa >= 1.0 - tol:
        raise SasakianDegenerate("h has no +-lambda eigenspaces when kappa >= 1")
    lam = report.lam
    # h is g-symmetric: the generalized problem (g h) v = lam g v reduces, with
    # g = L L^T, to the symmetric problem L^-1 (g h) L^-T w = lam w; the vectors
    # v = L^-T w are then g-orthonormal
    gh = s.g @ s.h
    l_inv = np.linalg.inv(np.linalg.cholesky(s.g))
    vals, w = np.linalg.eigh(l_inv @ (0.5 * (gh + gh.T)) @ l_inv.T)
    vecs = l_inv.T @ w
    out = []
    for target in (lam, -lam):
        idx = np.where(np.abs(vals - target) <= max(100 * tol, 1e-8 * max(1.0, abs(lam))))[0]
        if len(idx) != s.n:
            raise SasakianDegenerate(
                f"eigenvalue {target} has multiplicity {len(idx)}, expected {s.n}"
            )
        basis = vecs[:, idx].T
        ld = legendre_distribution(s.model, s.eta, s.xi, basis, tol)
        inv = involutivity_residual(s.model, s.eta, s.xi, basis)
        if not inv <= tol:
            raise NotIntegrable(f"eigendistribution not involutive (residual {inv:.3e})")
        out.append(ld)
    return out[0], out[1]


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
    d_pos, d_neg = eigendistributions(s, report, tol)
    pattern = (d_pos.definiteness, d_neg.definiteness)
    pang_tag = _CLASS_BY_PATTERN.get(pattern)
    if pang_tag is None:
        raise ClassificationMismatch(f"Pang pattern {pattern} matches no class")
    if pang_tag != report.class_tag:
        raise ClassificationMismatch(
            f"Pang-based class {pang_tag} disagrees with invariant-based {report.class_tag}"
        )
    return pang_tag


def libermann_map(
    s: ContactMetricStructure | ParacontactMetricStructure,
    ld: LegendreDistribution,
    other: LegendreDistribution,
    tol: float = DEFAULT_TOL,
) -> LibermannMap:
    """Solve Pi_L(Lambda Z, X) = d eta(Z, X) with kernel T L + R xi.

    ``other`` supplies the complementary Legendre distribution on which the
    map acts nontrivially.  Verifies Lambda^2 = 0 and Lambda [xi, X] = X/2.
    """
    pi = ld.pang
    if abs(np.linalg.det(pi)) <= tol:
        raise DegeneratePang("Pang form is singular; no Libermann map")
    model, eta, xi = s.model, s.eta, s.xi
    dim = model.dim
    deta = d_one_form(model, eta)

    n = ld.n
    # action on the complementary basis: Lambda q_r = sum_j coeffs[r, j] l_j,
    # with sum_j coeffs[r, j] Pi_L(l_j, l_k) = d eta(q_r, l_k)
    rhs = other.vectors @ deta @ ld.vectors.T
    images = np.linalg.solve(pi.T, rhs.T).T @ ld.vectors

    # assemble the full endomorphism in the model basis
    basis_change = np.column_stack([ld.vectors.T, other.vectors.T, xi[:, None]])
    if abs(np.linalg.det(basis_change)) <= tol:
        raise NotTransversal("distributions plus Reeb vector do not span")
    lam_in_frame = np.zeros((dim, dim))
    # columns n..2n-1 (the `other` block) map to the solved images
    coords = np.linalg.solve(basis_change, images.T)  # images expressed in the frame
    lam_in_frame[:, n : 2 * n] = coords
    lam_op = basis_change @ lam_in_frame @ np.linalg.inv(basis_change)

    sq = max_abs(lam_op @ lam_op)
    if not sq <= 10 * tol:
        raise DegeneratePang(f"Lambda^2 != 0 (residual {sq:.3e})")
    xi_brackets = ld.vectors @ model.ad(xi).T  # rows [xi, l]
    half = max_abs(xi_brackets @ lam_op.T - 0.5 * ld.vectors)
    if not half <= 10 * tol:
        raise DegeneratePang(f"Lambda [xi, X] != X/2 on the foliation (residual {half:.3e})")
    return LibermannMap(lambda_op=lam_op)


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
    frame = np.column_stack([l1.vectors.T, l2.vectors.T, xi[:, None]])
    if abs(np.linalg.det(frame)) <= tol:
        raise NotTransversal("span(L1, L2, xi) has rank below the model dimension")
    n = l1.n
    diag = np.diag([1.0] * n + [-1.0] * n + [0.0])
    phi_t = frame @ diag @ np.linalg.inv(frame)
    deta = d_one_form(model, eta)
    g_t = deta @ phi_t + np.outer(eta, eta)
    return ParacontactMetricStructure(model=model, phi_t=phi_t, xi=xi, eta=eta, g_t=g_t)


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
    frame = np.column_stack([l1.vectors.T, l2.vectors.T, xi[:, None]])
    frame_inv = np.linalg.inv(frame)
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
    proj1 = frame @ np.diag([1.0] * n + [0.0] * n + [0.0]) @ frame_inv
    proj2 = frame @ np.diag([0.0] * n + [1.0] * n + [0.0]) @ frame_inv
    ad_xi = model.ad(xi)
    expected = proj2 @ ad_xi @ proj1 + proj1 @ ad_xi @ proj2  # column i: expected T(e_i, xi)
    report.add("torsion_xi_slot", xi @ tors - expected.T)  # xi @ tors has rows T(e_i, xi)

    report.add("parallel_phi_t", conn.nabla_endo_all(induced.phi_t))
    report.add("parallel_g_t", conn.nabla_bilinear_all(induced.g_t))

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
