"""Tensors are checked where they enter the engine.

Each entry point that takes raw arrays rejects a NaN or infinite entry, and an
input of the wrong shape, with its designated GeometryError and without a numpy
warning, so that no such entry reaches LAPACK:

* ``ContactForm`` (xi and eta) and ``MetricStructure`` (phi and g, both kinds):
  DimensionMismatch, also for a model of dim < 3, which has no contact distribution
  (the loader makes it a format error, exit 2)
* ``levi_civita``: DegenerateMetric (in a stack, a degenerate member)
* ``signature``, ``legendre_distribution``, ``involutivity_residual`` and the
  bases of ``libermann_map``: DimensionMismatch (its Pang form too, when it is not n x n)

A non-finite Pang form given to ``libermann_map`` raises DegeneratePang
(tests/test_legendre.py).

A structure of the wrong kind is rejected too: the functions defined on contact
structures only (the h-eigendistributions and what reads them, and the tower and its
constructions) raise DimensionMismatch for a paracontact one.  The eps-signed entries
answer for both kinds: on the contact and paracontact structures of ``KINDS`` the
validator, the Blair suite, the canonical connection and the Nijenhuis side report are
valid, and the classification flags are those of the structure's kind.
"""

import json
import warnings

import numpy as np
import pytest

from kmgeom.catalog import heisenberg, nilpotent_h_5d
from kmgeom.cli import main
from kmgeom.contact import (ContactMetricStructure, ParacontactMetricStructure, blair_identity_suite,
                            canonical_connection, classification_flags,
                            integrability_and_parasasaki, nijenhuis_norm, validate_contact)
from kmgeom.lie_model import ContactForm, LieModel
from kmgeom.errors import DegenerateMetric, DimensionMismatch
from kmgeom.legendre import (bilegendrian_connection, classify_class, eigendistributions,
                             involutivity_residual, legendre_distribution, libermann_map)
from kmgeom.riemann import levi_civita, signature
from kmgeom.tower import sasakian_structure, second_bilegendrian_analysis, sequence

from conftest import family

CONTACT = family(1.0, 2.0)  # class I, dim 3
PARACONTACT = heisenberg(5, "paracontact").structure
H5 = heisenberg(5).structure
LEGENDRE_BASIS = np.eye(5)[:2]  # span{X_1, X_2} of H_5
NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


def _poisoned(a, value):
    """A copy of ``a`` with its first entry set to ``value``."""
    a = np.array(a, dtype=float)
    a.flat[0] = value
    return a


def _built(s, **arrays):
    """``s`` built anew from its tensors, as the loader builds it, with ``arrays`` in place
    of some: xi and eta enter through the contact form, phi and g through the structure."""
    t = {**{name: getattr(s, name) for name in ("phi", "xi", "eta", "g")}, **arrays}
    return type(s)(ContactForm(s.model, t["xi"], t["eta"]), t["phi"], t["g"])


def _structure(s, field):
    return lambda value: _built(s, **{field: _poisoned(getattr(s, field), value)})


def _legendre(call, field):
    """``call`` on H_5's basis and contact form, one of the three poisoned: eta and xi reach
    a Legendre function through the form, which rejects them where it is made."""
    def run(value):
        args = {"eta": H5.eta, "xi": H5.xi, "vectors": LEGENDRE_BASIS}
        args[field] = _poisoned(args[field], value)
        return call(ContactForm(H5.model, args["xi"], args["eta"]), args["vectors"])
    return run


def _libermann(value=None):
    """libermann_map with the first entry of D(lambda)'s basis set to ``value``, or with
    that basis one entry short when ``value`` is None."""
    d_pos, d_neg = eigendistributions(CONTACT)
    vectors = d_pos.vectors[:, :-1] if value is None else _poisoned(d_pos.vectors, value)
    return libermann_map(CONTACT, d_pos._replace(vectors=vectors), d_neg)


CASES = {
    **{f"{s.kind}-{field}": (_structure(s, field), DimensionMismatch, "structure tensors must be finite")
       for s in (CONTACT, PARACONTACT) for field in ("phi", "xi", "eta", "g")},
    "levi_civita-g": (lambda v: levi_civita(CONTACT.model, _poisoned(CONTACT.g, v)), DegenerateMetric,
                      "metric is singular"),
    "signature-g": (lambda v: signature(_poisoned(CONTACT.g, v)), DimensionMismatch, "form must be finite"),
    **{f"{call.__name__}-{field}": (_legendre(call, field), DimensionMismatch,
                                    f"{'basis vectors' if field == 'vectors' else 'structure tensors'} must be finite")
       for call in (legendre_distribution, involutivity_residual) for field in ("vectors", "eta", "xi")},
    "libermann_map-vectors": (_libermann, DimensionMismatch, "basis vectors must be finite"),
}


def _raises_without_warning(error, match, call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call(*args)


@NON_FINITE
@pytest.mark.parametrize("case", list(CASES))
def test_non_finite_entry_raises_its_error(case, value):
    call, error, match = CASES[case]
    _raises_without_warning(error, match, call, value)


def _misshapen(s, field):
    return lambda: _built(s, **{field: s.g[:-1, :-1] if field == "g" else getattr(s, field)[:-1]})


def _libermann_pang():
    """libermann_map with D(lambda)'s Pang form one column too wide."""
    d_pos, d_neg = eigendistributions(CONTACT)
    return libermann_map(CONTACT, d_pos._replace(pang=np.ones((1, 2))), d_neg)


def _short_basis(call):
    return lambda: call(H5.form, LEGENDRE_BASIS[:, :-1])


SHAPE_CASES = {
    **{f"{s.kind}-{field}": (_misshapen(s, field), "structure tensor shapes do not match")
       for s in (CONTACT, PARACONTACT) for field in ("g", "eta")},
    "signature-g": (lambda: signature(CONTACT.g[:, :-1]), "form shape"),
    **{f"{call.__name__}-vectors": (_short_basis(call), "basis vectors must have length 5")
       for call in (legendre_distribution, involutivity_residual)},
    "libermann_map-vectors": (_libermann, "basis vectors must have length 3"),
    "libermann_map-pang": (_libermann_pang, r"Pang form shape \(1, 2\) is not \(1, 1\)"),
}


@pytest.mark.parametrize("case", list(SHAPE_CASES))
def test_wrong_shape_raises_dimension_mismatch(case):
    call, match = SHAPE_CASES[case]
    _raises_without_warning(DimensionMismatch, match, call)


@NON_FINITE
def test_non_finite_metric_is_a_degenerate_member_of_a_stack(value):
    g = np.stack([CONTACT.g, _poisoned(CONTACT.g, value), 2.0 * CONTACT.g])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conn = levi_civita(CONTACT.model, g)
    assert conn.degenerate.tolist() == [False, True, False]
    assert np.isnan(conn.gamma[1]).all()
    for b in (0, 2):
        np.testing.assert_allclose(conn.gamma[b], levi_civita(CONTACT.model, g[b]).gamma,
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("cls", [ContactMetricStructure, ParacontactMetricStructure])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_structure_below_dim_3_is_rejected_at_the_door(dim, cls, tmp_path, capsys):
    """n = 0 (dim 1) once passed ``validate`` and then failed inside ``analyze`` and
    ``derive``; dim 2 was an invalid report.  Both are a format error now."""
    last = np.eye(dim)[-1]
    tensors = {"phi": np.zeros((dim, dim)), "xi": last, "eta": last, "g": np.eye(dim)}
    with pytest.raises(DimensionMismatch, match=f"needs dim >= 3, got {dim}"):
        cls(ContactForm(LieModel(np.zeros((dim, dim, dim))), last, last), tensors["phi"], tensors["g"])
    path = tmp_path / "small.json"
    structure = {"kind": cls.kind, **{name: a.tolist() for name, a in tensors.items()}}
    path.write_text(json.dumps({"dim": dim, "brackets": [], "structure": structure}))
    for argv in (["validate"], ["analyze"], ["derive", "--steps", "3"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([argv[0], str(path), *argv[1:]]) == 2
        assert f"needs dim >= 3, got {dim}" in capsys.readouterr().err


CONTACT_ONLY = [eigendistributions, classify_class, bilegendrian_connection,
                lambda s: sequence(s, 2), sasakian_structure, second_bilegendrian_analysis]
WRONG_KIND = {
    "heisenberg-3-paracontact": lambda: heisenberg(3, "paracontact").structure,
    "nilpotent-h-5d": lambda: nilpotent_h_5d().structure,
    "class-II-node-1": lambda: sequence(family(1.0, 0.5), 2)[1].structure,  # complex pair
    "class-I-node-1": lambda: sequence(family(1.0, 2.0), 2)[1].structure,  # real pair
}


@pytest.mark.parametrize("call", CONTACT_ONLY,
                         ids=["eigendistributions", "classify_class", "bilegendrian_connection",
                              "sequence", "sasakian_structure", "second_bilegendrian_analysis"])
@pytest.mark.parametrize("case", list(WRONG_KIND))
def test_a_paracontact_structure_is_the_wrong_kind_for_a_contact_only_function(case, call):
    """These read a paracontact fit as Sasakian (it has no I_M), or, for a real-pair h~,
    reached a Cholesky factor of the indefinite metric and leaked numpy's LinAlgError."""
    _raises_without_warning(DimensionMismatch, "requires? a contact structure, not a paracontact one",
                            call, WRONG_KIND[case]())


@pytest.mark.parametrize("case", list(WRONG_KIND))
def test_the_flags_of_a_paracontact_structure_are_its_integrability_flags(case):
    s = WRONG_KIND[case]()
    found = integrability_and_parasasaki(s)
    assert classification_flags(s) == {key: found[key] for key in ("integrable", "para_sasakian")}


# structures of both kinds: each sign of the tower's nodes in classes I and II
KINDS = {
    "heisenberg-5-contact": lambda: H5,
    "heisenberg-5-paracontact": lambda: PARACONTACT,
    "nilpotent-h-5d": lambda: nilpotent_h_5d().structure,
    "class-I-node-1": lambda: sequence(family(1.0, 2.0), 3)[1].structure,
    "class-I-node-2": lambda: sequence(family(1.0, 2.0), 3)[2].structure,
    "class-II-node-1": lambda: sequence(family(1.0, 0.5), 3)[1].structure,
    "class-II-node-2": lambda: sequence(family(1.0, 0.5), 3)[2].structure,
}
FLAG_KEYS = {"contact": {"sasakian", "k_contact", "tw_parallel"},
             "paracontact": {"integrable", "para_sasakian"}}


@pytest.mark.parametrize("case", list(KINDS))
def test_the_eps_signed_entries_answer_for_both_kinds(case):
    """The Nijenhuis side report read eps = +1 into its phi-shift identity and failed on
    every paracontact structure with h~ != 0 (8.0 on nilpotent-h-5d)."""
    s, tol = KINDS[case](), 1e-9
    reports = {"validate_contact": validate_contact(s, tol),
               "blair_identity_suite": blair_identity_suite(s, tol),
               "canonical_connection": canonical_connection(s, tol)[1],
               "nijenhuis_norm": nijenhuis_norm(s, tol)[1]}
    for name, report in reports.items():
        assert report.valid, (name, report.failures())
    assert set(classification_flags(s, tol)) == FLAG_KEYS[s.kind]
