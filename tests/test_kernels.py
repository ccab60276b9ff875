"""Whole-array tensor kernels against their pointwise references, and
non-finite honesty: a NaN anywhere in a residual must never read as a pass."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kmgeom
from kmgeom import cli, contact, legendre, report, riemann, tower
from kmgeom.catalog import family_3d, get_entry, heisenberg, list_entries, nilpotent_h_5d, rebased
from kmgeom.contact import validate_contact
from kmgeom.errors import GeometryError
from kmgeom.legendre import eigendistributions, legendre_distribution, libermann_map
from kmgeom.lie_model import ContactForm, LieModel, jacobi_residual
from kmgeom.report import rank_test
from kmgeom.riemann import (AffineConnection, curvature_xi, levi_civita, nijenhuis_tensor, on_pairs,
                            signature)
from kmgeom.tower import sasakian_structure

from conftest import CLASS_PARAMS, family, twisted_contact_3d
from reference import (
    bracket,
    connection_identity_suite,
    curvature,
    curvature_tensor,
    nabla,
    nabla_bilinear,
    nabla_endo,
)

# Fixed before the array kernels replaced the basis-pair loops.
KERNEL_TOL = 1e-13


def _near_identity(dim, seed, scale=0.3):
    """A random well-conditioned change of basis I + scale * N(0, 1)."""
    return np.eye(dim) + scale * np.random.default_rng(seed).standard_normal((dim, dim))


def _tensors(s):
    """(model, phi, xi, eta, g, h, eps) of a contact (eps = +1) or paracontact (-1) structure."""
    return s.model, s.phi, s.xi, s.eta, s.g, s.h, s.eps


KERNEL_CASES = {
    **{f"family-{tag}": lambda p=p: family(*p) for tag, p in CLASS_PARAMS.items()},
    "heisenberg-3d": lambda: get_entry("heisenberg-3d").structure,
    "nilpotent-h-5d": lambda: nilpotent_h_5d().structure,
    "heisenberg-11-contact": lambda: heisenberg(11).structure,
    "heisenberg-11-paracontact": lambda: heisenberg(11, "paracontact").structure,
    "not-nullity": lambda: twisted_contact_3d(a=0.7, r=-1.3),
    "family-I-changed-basis":
        lambda: rebased(family_3d(*CLASS_PARAMS["I"]), _near_identity(3, 1)).structure,
}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernels_match_pointwise_references(name):
    s = KERNEL_CASES[name]()
    m, phi, xi, eta, g, h, eps = _tensors(s)
    conn = levi_civita(m, g)
    e = np.eye(m.dim)
    deta = -0.5 * np.einsum("ijk,k->ij", m.c, eta)

    def nij(u, v):
        return (
            phi @ phi @ bracket(m, u, v)
            + bracket(m, phi @ u, phi @ v)
            - phi @ bracket(m, phi @ u, v)
            - phi @ bracket(m, u, phi @ v)
            + 2.0 * eps * (u @ deta @ v) * xi
        )

    def pairs(f):
        return np.array([[f(e[i], e[j], i, j) for j in range(m.dim)] for i in range(m.dim)])

    expected = {
        "curvature_xi": pairs(lambda x, y, i, j: curvature(m, conn, x, y, xi)),
        "nabla_endo_all(phi)": pairs(lambda x, y, i, j: nabla_endo(conn, i, phi) @ y),
        "nabla_endo_all(h)": pairs(lambda x, y, i, j: nabla(conn, x, h @ y) - h @ nabla(conn, x, y)),
        "nabla_bilinear_all(g)": np.array([nabla_bilinear(conn, i, g) for i in range(m.dim)]),
        "nijenhuis_tensor": pairs(lambda x, y, i, j: nij(x, y)),
        "on_pairs(c, phi, h)": pairs(lambda x, y, i, j: bracket(m, phi @ x, h @ y)),
    }
    got = {
        "curvature_xi": curvature_xi(m, conn, xi),
        "nabla_endo_all(phi)": conn.nabla_endo_all(phi),
        "nabla_endo_all(h)": conn.nabla_endo_all(h),
        "nabla_bilinear_all(g)": conn.nabla_bilinear_all(g),
        "nijenhuis_tensor": nijenhuis_tensor(s.form, phi, eps),
        "on_pairs(c, phi, h)": on_pairs(m.c, phi.T, h.T),
    }
    for kernel, want in expected.items():
        assert got[kernel].shape == want.shape, kernel
        assert np.max(np.abs(got[kernel] - want)) <= KERNEL_TOL, kernel


# Fixed before jacobi_residual and curvature_tensor moved from a four-index
# einsum to one matmul; relative to the largest term of the contraction.
CONTRACTION_RTOL = 1e-13


def _random_antisymmetric(dim, seed, zero_frac=0.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((dim, dim, dim))
    c[rng.random(c.shape) < zero_frac] = 0.0
    return c - c.transpose(1, 0, 2)


def _semidirect(dim, seed, broken=False):
    """R xi x| R^(dim-1): [xi, X_a] = p_a Y_a, [xi, Y_a] = q_a X_a with p_a, q_a > 0.

    Sparse, solvable and not nilpotent: ad xi has the real eigenvalues
    +-sqrt(p_a q_a) on each partner pair (X_a, Y_a).  ``broken`` adds
    [X_1, Y_1] = 2 xi, so Jacobi fails on the one support row (X_1, Y_1):
    [X_b, [X_1, Y_1]] = -2 p_b Y_b.
    """
    n = (dim - 1) // 2
    p, q = np.random.default_rng(seed).uniform(0.5, 2.0, (2, n))
    c = np.zeros((dim, dim, dim))
    c[-1, range(n), range(n, 2 * n)] = p
    c[-1, range(n, 2 * n), range(n)] = q
    c[0, n, -1] = 2.0 if broken else 0.0
    return c - c.transpose(1, 0, 2)


def _near_antisymmetric(c, seed):
    """c plus asymmetric noise that LieModel's 1e-12 antisymmetry guard lets through."""
    rng = np.random.default_rng(seed)
    return c + 4e-13 * (rng.random(c.shape) < 0.3) * rng.choice([-1.0, 1.0], c.shape)


CONTRACTION_CASES = {
    **{name: lambda name=name: get_entry(name).model.c
       for name in list_entries() if name != "family-3d"},
    # dims 1 and 2 have no triple i < j < k: the residual is exactly 0
    "zero-1": lambda: np.zeros((1, 1, 1)),
    "zero-2": lambda: np.zeros((2, 2, 2)),
    "random-antisymmetric-5": lambda: _random_antisymmetric(5, 5),
    "random-antisymmetric-21": lambda: _random_antisymmetric(21, 7),
    "random-antisymmetric-41": lambda: _random_antisymmetric(41, 41),
    # sparse constants: the Jacobi product runs on their support only
    "semidirect-7": lambda: _semidirect(7, 7),
    "semidirect-21": lambda: _semidirect(21, 21),
    "semidirect-41": lambda: _semidirect(41, 41),
    "semidirect-broken-21": lambda: _semidirect(21, 3, broken=True),
}


@pytest.mark.parametrize("name", CONTRACTION_CASES)
def test_matmul_contractions_match_einsum(name):
    c = CONTRACTION_CASES[name]()
    m = LieModel(c=c)
    t = np.einsum("jkm,iml->ijkl", c, c)  # [e_i, [e_j, e_k]], the reference form
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    scale = max(np.max(np.abs(t)), 1.0)
    assert abs(jacobi_residual(m) - np.max(np.abs(cyc))) <= CONTRACTION_RTOL * scale

    gam = levi_civita(m, np.eye(m.dim)).gamma
    t = np.einsum("jkm,iml->ijkl", gam, gam)
    want = t - t.transpose(1, 0, 2, 3) - np.einsum("ijm,mkl->ijkl", m.c, gam)
    got = curvature_tensor(m, AffineConnection(gamma=gam))
    scale = max(np.max(np.abs(t)), 1.0)
    assert np.max(np.abs(got - want)) <= CONTRACTION_RTOL * scale


@pytest.mark.parametrize("dim", [3, 5, 11])
def test_rebased_matches_the_plain_einsum(dim):
    entry = family_3d(*CLASS_PARAMS["I"]) if dim == 3 else heisenberg(dim)
    p = _near_identity(dim, dim)
    c = np.einsum("ia,jb,ijk,lk->abl", p, p, entry.model.c, np.linalg.inv(p))  # one O(dim^7) loop
    got = rebased(entry, p).model.c
    assert np.max(np.abs(got - 0.5 * (c - c.transpose(1, 0, 2)))) <= 1e-12 * max(np.max(np.abs(c)), 1.0)


def test_rebased_heisenberg_41_is_valid():
    t = rebased(heisenberg(41), _near_identity(41, 41, 0.05)).structure
    assert jacobi_residual(t.model) <= 1e-10
    assert validate_contact(t).valid


# The residual is the cyclic sum b[j,k,i] + b[k,i,j] + b[i,j,k] of the dense
# b[j, k, i, l] = sum_m c[j,k,m] c[i,m,l] on the triples i < j < k, with no
# further antisymmetry assumed: constants antisymmetric only to within 1e-12 too.
DENSE_FORM_CASES = {
    **{f"near-antisymmetric-{dim}":
       lambda dim=dim: _near_antisymmetric(_random_antisymmetric(dim, dim), dim)
       for dim in (3, 6, 9)},
    **{f"near-antisymmetric-sparse-{dim}":
       lambda dim=dim: _near_antisymmetric(_random_antisymmetric(dim, dim, zero_frac=0.7), dim)
       for dim in (4, 7)},
    "near-antisymmetric-semidirect-7": lambda: _near_antisymmetric(_semidirect(7, 7), 1),
    "near-antisymmetric-heisenberg-11": lambda: _near_antisymmetric(heisenberg(11).model.c, 3),
    "semidirect-broken-21": CONTRACTION_CASES["semidirect-broken-21"],
}


@pytest.mark.parametrize("name", DENSE_FORM_CASES)
def test_jacobi_residual_is_the_dense_form_on_triples(name):
    c = DENSE_FORM_CASES[name]()
    b = np.einsum("jkm,iml->jkil", c, c)
    r = np.arange(len(c))
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    want = np.max(np.abs(b[j, k, i] + b[k, i, j] + b[i, j, k]))
    scale = max(np.max(np.abs(b)), 1.0)
    assert abs(jacobi_residual(LieModel(c=c)) - want) <= CONTRACTION_RTOL * scale


def test_jacobi_residual_closed_forms_at_dim_81():
    """H_81 and H_81 with [xi, X_1] = a Y_1, whose cyclic sum is -2a Y_1 on the
    triples (X_1, X_b, Y_b), from [X_1, [X_b, Y_b]] = [X_1, 2 xi], and 0 elsewhere.
    (The einsum reference's arrays would take 344 MB each at this dimension.)"""
    m = heisenberg(81).model
    assert jacobi_residual(m) == 0.0
    c = m.c.copy()
    c[80, 0, 40], c[0, 80, 40] = 0.75, -0.75
    assert jacobi_residual(LieModel(c=c)) == 1.5


# ------------------------------------------------------------- non-finite residuals

# Non-finite tensors are rejected where they enter the engine (tests/test_entry_checks.py);
# a NaN fed straight to a residual kernel still never reads as a pass.


def _with_nan(a, index):
    a = np.array(a, dtype=float)
    a[index] = np.nan
    return a


def test_nan_connection_fails_metric_compatibility():
    s = family(1.0, 2.0)
    gamma = _with_nan(s.levi_civita().gamma, (1, 0, 0))
    rep = connection_identity_suite(s.model, AffineConnection(gamma=gamma), s.g)
    assert np.isnan(rep["metric_compatibility"])
    assert not rep.valid


def test_a_nan_entry_is_the_worst(capsys):
    """A NaN residual ranks above every number, wherever it stands in the table: in a
    report's ``worst`` and in the identity line of the human output."""
    for entries in ({"a": 1.0, "b": np.nan, "c": np.inf}, {"b": np.nan, "a": 1.0}):
        assert report.ResidualReport(entries=entries).worst[0] == "b"
        cli._human_identities(entries, {})
        assert capsys.readouterr().out == (
            f"identity suites: {len(entries)} checks, worst b = nan\n")
    assert report.ResidualReport(entries={"b": 2.0, "a": 2.0}).worst == ("b", 2.0)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(kmgeom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kmgeom; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "False"



# The one singularity rule, report.nonzero_sv, and the sites that decide by it: through
# report.rank_test (an SVD of the site's matrix), or on the singular values the site's own
# decomposition gave (signature: |eigenvalues|).  Each case names the
# module whose rank_test or nonzero_sv the site calls, the call and its verdict; the test
# feeds the rule the site's input as it is and scaled by 1e-6 and by 1e6, and the verdict
# must not move.  The |det| of the two notes scales with the matrix, so no verdict holds a note.
RULES = {"rank_test": report.rank_test, "nonzero_sv": report.nonzero_sv}
E5 = np.eye(5)


def _h3_times_r2() -> LieModel:
    """H_5 without its bracket [X_2, Y_2]: d eta has rank 2 on the 4-dim ker(eta)."""
    c = heisenberg(5).model.c.copy()
    c[[1, 3], [3, 1]] = 0.0
    return LieModel(c)


def _h5(kind="contact", model=None, **tensors):
    """H_5's structure of ``kind``, with its model or some of its tensors replaced."""
    s = heisenberg(5, kind).structure
    form = s.form if model is None else ContactForm(model, s.xi, s.eta)
    return type(s)(form, **{"phi": s.phi, "g": s.g, **tensors})


def _error(call):
    """(type name, message) of the GeometryError ``call()`` raises, or None."""
    try:
        call()
    except GeometryError as exc:
        return type(exc).__name__, str(exc)
    return None


def _rank(a):
    return [x.tolist() for x in rank_test(a)[:2]]


def _entries(s, *names):
    return [validate_contact(s)[name] for name in names]


def _legendre(model, basis):
    return legendre_distribution(ContactForm(model, E5[4], E5[4]), basis)


def _frame(l1, l2):
    return _error(lambda: legendre._frame(l1, l2, E5[4], kmgeom.DEFAULT_TOL))


def _pang(flip):
    s = family(1.0, 2.0)  # class I: D(lambda) is positive, D(-lambda) negative
    d_pos, d_neg = eigendistributions(s)
    ld = d_pos._replace(pang=np.zeros((1, 1))) if flip else d_pos
    return _error(lambda: libermann_map(s, ld, d_neg))


def _collapsed(frame):
    """``tower._phi_eigenframe`` with D(lambda~) spanned by D(lambda)'s basis."""
    def eigenframe(*args):
        xs, ys, _, minus = frame(*args)
        return xs, ys, xs, minus
    return eigenframe


def _web(monkeypatch, collapse=False):
    """The six 3-web flags of class I's Sasakian structure, sorted; with ``collapse``, the
    pair D(lambda), D(lambda~) is singular."""
    if collapse:
        monkeypatch.setattr(tower, "_phi_eigenframe", _collapsed(tower._phi_eigenframe))
    checks = sasakian_structure(family(1.0, 2.0)).checks
    return sorted(v for k, v in checks.entries.items() if k.startswith("web_"))


HERE = sys.modules[__name__]
# name: (module whose rank_test or nonzero_sv the site calls, the site: the function that
# must call it, call(monkeypatch), verdict)
SITE_CASES = {
    "rank_test": (HERE, "_rank", lambda _: _rank(np.diag([1.0, 3.0])), [2, False]),
    # cond 1e7 is nonsingular and cond 1e10 singular at tol = 1e-9, at every scale
    "rank_test-cond-1e7": (HERE, "_rank", lambda _: _rank(np.diag([1.0, 1e-7])), [2, False]),
    "rank_test-cond-1e10": (HERE, "_rank", lambda _: _rank(np.diag([1.0, 1e-10])), [1, True]),
    "rank_test-deficient": (HERE, "_rank", lambda _: _rank(np.ones((2, 2))), [1, True]),
    "rank_test-zero-stack": (HERE, "_rank", lambda _: _rank(np.zeros((2, 3, 3))),
                             [[0, 0], [True, True]]),
    "levi_civita": (riemann, "levi_civita",
                    lambda _: _error(lambda: levi_civita(_h3_times_r2(), 1e-4 * E5)), None),
    "levi_civita-deficient": (riemann, "levi_civita", lambda _: _error(lambda: levi_civita(
        _h3_times_r2(), np.diag([1.0, 1.0, 1.0, 1.0, 0.0]))), ("DegenerateMetric", riemann.DEGENERATE)),
    "levi_civita-nan-stack": (riemann, "levi_civita", lambda _: levi_civita(_h3_times_r2(), np.stack(
        [E5, np.where(E5 > 0, np.nan, 0.0), 2.0 * E5])).degenerate.tolist(), [False, True, False]),
    "signature": (riemann, "signature", lambda _: signature(_h5("paracontact").g), (3, 2, 0)),
    "signature-deficient": (riemann, "signature", lambda _: signature(np.diag([2.0, -1.0, 0.0])),
                            (1, 1, 1)),
    # the |.| of the eigenvalues are the singular values: cond 1e7 is nondegenerate, 1e10 not
    "signature-cond-1e7": (riemann, "signature", lambda _: signature(np.diag([1.0, -1e-7])),
                           (1, 1, 0)),
    "signature-cond-1e10": (riemann, "signature", lambda _: signature(np.diag([1.0, -1e-10])),
                            (1, 0, 1)),
    "contact_nondegeneracy": (contact, "validate_contact",
                              lambda _: _entries(_h5(), "contact_nondegeneracy"), [0.0]),
    "contact_nondegeneracy-deficient": (
        contact, "validate_contact",
        lambda _: _entries(_h5(model=_h3_times_r2()), "contact_nondegeneracy"), [1.0]),
    "eigenranks": (contact, "validate_contact", lambda _: _entries(
        _h5("paracontact"), "plus_one_eigenrank", "minus_one_eigenrank"), [0.0, 0.0]),
    "eigenranks-deficient": (  # phi~ = +1 on X_1, X_2, Y_1: ranks 3 and 1 on ker(eta), not 2
        contact, "validate_contact",
        lambda _: _entries(_h5("paracontact", phi=np.diag([1.0, 1.0, 1.0, -1.0, 0.0])),
                           "plus_one_eigenrank", "minus_one_eigenrank"), [1.0, 1.0]),
    "legendre_distribution": (legendre, "legendre_distribution",
                              lambda _: _legendre(heisenberg(5).model, E5[:2]).n, 2),
    "legendre_distribution-deficient": (
        legendre, "legendre_distribution",
        lambda _: _error(lambda: _legendre(heisenberg(5).model, E5[[0, 0]])),
        ("NotTransversal", "basis vectors are linearly dependent")),
    "frame": (legendre, "_frame", lambda _: _frame(_legendre(heisenberg(5).model, E5[:2]),
                                                   _legendre(heisenberg(5).model, E5[2:4])), None),
    "frame-deficient": (legendre, "_frame",
                        lambda _: _frame(*[_legendre(heisenberg(5).model, E5[:2])] * 2),
                        ("NotTransversal", "span(L1, L2, xi) has rank below the model dimension")),
    "pang": (legendre, "libermann_map", lambda _: _pang(flip=False), None),
    "pang-deficient": (legendre, "libermann_map", lambda _: _pang(flip=True),
                       ("DegeneratePang", "Pang form is singular; no Libermann map")),
    "web": (tower, "sasakian_structure", _web, [0.0] * 6),
    "web-deficient": (tower, "sasakian_structure", lambda mp: _web(mp, collapse=True),
                      [0.0] * 5 + [1.0]),
}


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("case", SITE_CASES)
def test_singularity_verdict_is_scale_free(case, scale, monkeypatch):
    """A well-conditioned matrix keeps its verdict when scaled, a rank-deficient one stays
    singular at every scale, and a NaN member of a levi_civita stack stays degenerate;
    the site itself reads the verdict from the one rule: rank_test of its matrix, or
    nonzero_sv of the singular values its own decomposition gave (a matrix scaled by a
    positive factor has its singular values scaled by it)."""
    module, site, call, verdict = SITE_CASES[case]
    callers = set()

    def scaled(rule):
        def wrapper(a, tol=kmgeom.DEFAULT_TOL):
            callers.add(sys._getframe(1).f_code.co_name)
            return rule(scale * np.asarray(a), tol)
        return wrapper

    for name, rule in RULES.items():
        if vars(module).get(name) is rule:
            monkeypatch.setattr(module, name, scaled(rule))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(monkeypatch) == verdict
    assert site in callers, f"{site} decided without the shared rule"
