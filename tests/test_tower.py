"""Canonical paracontact structure, the derived tower and its step checks, the
second bi-Legendrian pair and the compatible Sasakian structures."""

import itertools
import traceback

import numpy as np
import pytest

from kmgeom import DEFAULT_TOL
from kmgeom.contact import boeckx_invariant, nullity_fit, validate_contact
from kmgeom import contact, tower
from kmgeom.catalog import family_3d, heisenberg, rebased
from kmgeom.errors import (
    DegenerateInvariant,
    GeometryError,
    InternalInconsistency,
    InvariantTooSmall,
    NotNullity,
    SasakianDegenerate,
)
from kmgeom.legendre import bilegendrian_connection, eigendistributions
from kmgeom.riemann import signature
from kmgeom.tower import (
    sasakian_structure,
    second_bilegendrian_analysis,
    sequence,
    step_checks,
)

from conftest import CLASS_PARAMS, GRID_DS, GRID_LAMBDAS, family, twisted_contact_3d


@pytest.mark.parametrize(
    "lam,d,kappa_t",
    [(1.0, 0.0, -2.0), (2.0, 1.0, -4.0), (1.0, 2.0, 2.0)],
)
def test_canonical_paracontact_constants(lam, d, kappa_t):
    nodes = sequence(family(lam, d), 2)
    checks = step_checks(nodes[0], nodes[1])
    assert checks.valid, checks.failures()
    pfit = nullity_fit(nodes[1].structure)
    assert pfit.kappa == pytest.approx(kappa_t, abs=1e-8)
    assert pfit.mu == pytest.approx(2.0, abs=1e-8)


def test_canonical_paracontact_rejects_sasakian(sasakian_fixture):
    with pytest.raises(SasakianDegenerate):
        sequence(sasakian_fixture, 2)


def test_derive_next_contact_branch_identity_case():
    # at (1, 0) the normalizer is 1, so phi_2 = h~ exactly
    s = family(1.0, 0.0)
    _, st, node = sequence(s, 3)
    assert node.kind == "contact"
    assert np.allclose(node.structure.phi, st.structure.h)
    assert node.kappa == pytest.approx(0.0, abs=1e-8)
    assert node.mu == pytest.approx(2.0, abs=1e-8)
    assert np.max(np.abs(node.structure.h - s.h)) <= 1e-8  # h_2 = h at I_M = 0
    assert node.tw_parallel


def test_derive_next_contact_branch_deep_case():
    s = family(2.0, 1.0)
    node = sequence(s, 3)[2]
    assert node.kind == "contact"
    assert node.kappa == pytest.approx(-2.0, abs=1e-8)
    assert node.mu == pytest.approx(2.0, abs=1e-8)
    p, q, z = signature(node.structure.g)
    assert (q, z) == (0, 0)
    # h_2 = sqrt(1 - I^2) h with I = 1/2
    expected = np.sqrt(1 - 0.25) * s.h
    assert np.max(np.abs(node.structure.h - expected)) <= 1e-8


def test_derive_next_paracontact_branch():
    s = family(1.0, 2.0)
    nodes = sequence(s, 3)
    node = nodes[2]
    assert node.kind == "paracontact"
    assert node.kappa == pytest.approx(2.0, abs=1e-8)
    assert node.mu == pytest.approx(2.0, abs=1e-8)
    assert node.checks.valid, node.checks.failures()
    # h~_1 = -sqrt(I^2 - 1) h with I = 2
    expected = -np.sqrt(3.0) * s.h
    assert np.max(np.abs(node.structure.h - expected)) <= 1e-8
    # the relation between the two Levi-Civita connections and the (kappa, mu)
    # identity suite of the node are part of the step checks
    checks = step_checks(nodes[1], node)
    for key in ("levi_civita_relation", "nabla_phi_identity", "nabla_h_identity"):
        assert checks[key] <= 1e-8


@pytest.mark.parametrize("lam,d", [(1.0, 0.5), (1.0, 2.0)])
def test_derive_next_is_tower_node_two(lam, d):
    nodes = sequence(family(lam, d), 3)
    node = nodes[2]
    assert node.to_dict()["index"] == 2
    checks = step_checks(nodes[1], node)
    assert checks.valid, checks.failures()
    assert node.checks["predicted_kappa_delta"] <= 1e-9


def test_derive_next_rejects_boundary_invariant():
    s = family(1.0, 1.0)
    nodes = sequence(s, 2)  # node 1 exists at |I_M| = 1 and passes its step checks
    assert step_checks(*nodes).valid
    with pytest.raises(DegenerateInvariant):
        sequence(s, 3)


STEP_CASES = [
    (cls, k) for cls in CLASS_PARAMS for k in range(1, 2 if cls in ("IV", "V") else 6)
]


@pytest.mark.parametrize("cls,k", STEP_CASES, ids=[f"{c}-{k}" for c, k in STEP_CASES])
def test_step_checks_hold_on_every_tower_step(cls, k):
    nodes = sequence(family(*CLASS_PARAMS[cls]), 6 if cls not in ("IV", "V") else 2)
    checks = step_checks(nodes[k - 1], nodes[k], tol=1e-9)
    assert checks.valid, checks.failures()


@pytest.mark.parametrize("cls", ["I", "II", "III"])
@pytest.mark.parametrize("a,b", [(0, 2), (1, 3)])
def test_step_checks_reject_a_skipped_step(cls, a, b):
    nodes = sequence(family(*CLASS_PARAMS[cls]), 6)
    checks = step_checks(nodes[a], nodes[b])
    for key in ("normalized_lie_derivative", "h_closed_form", "levi_civita_relation"):
        assert checks[key] > 1e-3, key


def test_sequence_alternating_pattern():
    nodes = sequence(family(1.0, 0.0), 6)
    assert [n.kind for n in nodes] == ["contact", "paracontact"] * 3
    assert [round(n.kappa, 8) for n in nodes] == [0.0, -2.0, 0.0, -2.0, 0.0, -2.0]
    assert all(n.mu == pytest.approx(2.0, abs=1e-8) for n in nodes)
    assert all(n.tw_parallel for n in nodes if n.kind == "contact")


def test_sequence_all_paracontact_pattern():
    nodes = sequence(family(1.0, 2.0), 4)
    assert [n.kind for n in nodes] == ["contact"] + ["paracontact"] * 3
    for n in nodes[1:]:
        assert n.kappa == pytest.approx(2.0, abs=1e-8)
        assert n.mu == pytest.approx(2.0, abs=1e-8)
        assert n.fit.residual <= 1e-9


def test_sequence_zero_steps_returns_input_node():
    nodes = sequence(family(1.0, 0.0), 0)
    assert len(nodes) == 1
    assert nodes[0].index == 0
    assert nodes[0].kind == "contact"


def test_sequence_rejects_boundary_and_sasakian(sasakian_fixture):
    with pytest.raises(DegenerateInvariant):
        sequence(family(1.0, 1.0), 3)
    # node 1 exists at |I_M| = 1; only a tower of three or more nodes is undefined
    assert [n.kind for n in sequence(family(1.0, 1.0), 2)] == ["contact", "paracontact"]
    with pytest.raises(SasakianDegenerate):
        sequence(sasakian_fixture, 2)


@pytest.mark.parametrize("kind", ["contact", "paracontact"])
def test_a_one_node_walk_checks_the_non_sasakian_guard(kind):
    # the guard reads node 0's fit whatever N is: a walk of one node raises what a walk
    # of two raises (SasakianDegenerate on the Sasakian H_3, DimensionMismatch on the
    # paracontact one)
    s = heisenberg(3, kind).structure
    raised = []
    for n_nodes in (1, 2):
        with pytest.raises(GeometryError) as exc:
            sequence(s, n_nodes)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1]


def test_a_class_iv_walk_of_three_nodes_builds_no_node():
    # |I_M| = 1 is read from node 0's fit before node 1 is built: nothing is kept
    s = family(*CLASS_PARAMS["IV"])
    with pytest.raises(DegenerateInvariant):
        sequence(s, 3)
    assert not [key for key in s._cache if key[0] == "next"]


def test_sequence_reuses_nodes_equal_up_to_roundoff():
    # family-3d(1, 0.5) in a basis of condition number 1e2: node k + 2 equals
    # node k (k >= 1) only up to roundoff, and a node rebuilt from scratch here
    # fails its validation gate (phi_square 1.5e-9 at node 4)
    p = np.array([
        [-0.15844325593339695, -1.476435522247183, 1.517580114569407],
        [-1.9582269570752229, -6.711552248682561, 2.340072929153007],
        [-1.6217339412800236, -5.9681748924593885, 1.9741641876780083],
    ])
    nodes = sequence(rebased(family_3d(1.0, 0.5), p).structure, 6)
    assert [n.kind for n in nodes] == ["contact", "paracontact"] * 3
    for k, earlier in ((3, 1), (4, 2), (5, 1)):
        assert nodes[k].structure is nodes[earlier].structure


def test_constants_two_periodic_on_grid():
    # the |I|<1 tower settles into a two-cycle of constants: nodes 2 and 4
    # repeat node 2, nodes 3 and 5 repeat node 1
    for lam, d in [(1.0, 0.0), (2.0, 1.0), (1.5, 0.5), (3.0, -2.0)]:
        if abs(d) >= lam:
            continue
        nodes = sequence(family(lam, d), 6)
        assert nodes[4].kappa == pytest.approx(nodes[2].kappa, abs=1e-9)
        assert nodes[5].kappa == pytest.approx(nodes[3].kappa, abs=1e-9)
        assert nodes[3].kappa == pytest.approx(nodes[1].kappa, abs=1e-9)
        assert nodes[2].kappa == pytest.approx(nodes[1].kappa + 2.0, abs=1e-9)


def _closed_form(s, lam: float, inv: float, k: int) -> np.ndarray:
    """Tower node k >= 1 of ``s`` (lambda = ``lam``, I_M = ``inv``) in the algebra
    {phi, h, phi h}: sigma_k h / lambda at odd k, sigma_k (phi + (I / lambda) phi h) /
    sqrt(|1 - I^2|) at even k, with sigma_k = +1 for |I| < 1 and
    (-1)^floor((k - 1) / 2) for |I| > 1."""
    sigma = 1.0 if abs(inv) < 1.0 else (-1.0) ** ((k - 1) // 2)
    if k % 2:
        return sigma * s.h / lam
    return sigma * (s.phi + (inv / lam) * s.phi @ s.h) / np.sqrt(abs(1.0 - inv * inv))


@pytest.mark.parametrize("d", GRID_DS)
@pytest.mark.parametrize("lam", GRID_LAMBDAS)
def test_every_node_is_the_closed_form_of_the_step(lam, d):
    # what the one eps-signed step produces, on the 5 x 5 grid that holds the five
    # class points: period 2 from node 1 on when |I| < 1, period 4 (phi_{k+2} = -phi_k)
    # when |I| > 1; at |I| = 1 (classes IV and V) only nodes 0 and 1 exist
    s = family(lam, d)
    nodes = sequence(s, 2 if abs(d) == lam else 9)
    for node in nodes[1:]:
        expected = _closed_form(s, lam, d / lam, node.index)
        worst = np.max(np.abs(node.structure.phi - expected))
        assert worst <= 1e-9 * np.max(np.abs(expected)), (node.index, worst)


def test_second_bilegendrian_analysis_class_i():
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    ana = second_bilegendrian_analysis(s)
    assert ana.checks.valid, ana.checks.failures()
    assert ana.lambda_t == pytest.approx(np.sqrt(3.0), abs=1e-9)
    assert ana.pang_value == pytest.approx(4.0, abs=1e-8)
    assert ana.a * ana.b == pytest.approx(12.0, abs=1e-8)
    assert abs(ana.new_invariant) > 1.0
    # the generated constants regenerate the paracontact constants
    assert ana.kappa_new - 2 + (1 - ana.mu_new / 2) ** 2 == pytest.approx(2.0, abs=1e-8)


def test_second_bilegendrian_analysis_caller_supplied_pair():
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    ana = second_bilegendrian_analysis(s, a=6.0, b=2.0)
    assert ana.checks.valid, ana.checks.failures()
    assert ana.kappa_new == pytest.approx(0.0, abs=1e-12)
    assert ana.mu_new == pytest.approx(-2.0, abs=1e-12)
    assert ana.new_invariant == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("a, b, invariant", [(1e-16, 2e-16, 3.0), (1e-20, 2e-20, 3.0),
                                             (1.0, 2.0, 3.0), (3.0, 3.0, np.inf)])
def test_new_invariant_is_free_of_the_scale_of_the_pair(a, b, invariant):
    """(a + b) / |a - b| does not change when (a, b) is scaled: only a = b, the Sasakian
    member of the family, reads +-inf (a pair closer than 1e-15 once read inf too)."""
    ana = second_bilegendrian_analysis(family(*CLASS_PARAMS["I"]), a=a, b=b)
    assert ana.new_invariant == pytest.approx(invariant, rel=1e-12)
    negative = second_bilegendrian_analysis(family(*CLASS_PARAMS["III"]), a=-a, b=-b)
    assert negative.new_invariant == pytest.approx(-invariant, rel=1e-12)


def test_second_bilegendrian_analysis_wrong_product():
    s = family(1.0, 2.0)
    fit = nullity_fit(s)
    ana = second_bilegendrian_analysis(s, a=1.0, b=1.0)
    assert ana.checks["pang_coefficient_product"] > 1.0  # reported, not hidden


def test_second_bilegendrian_analysis_class_iii():
    s = family(1.0, -2.0)
    fit = nullity_fit(s)
    ana = second_bilegendrian_analysis(s)
    assert ana.checks.valid, ana.checks.failures()
    assert ana.a < 0 and ana.b < 0
    assert ana.new_invariant < -1.0
    assert ana.pang_value == pytest.approx(4.0 * 1.0 * (-2.0 - 1.0))  # negative definite


def test_second_bilegendrian_rejects_small_invariant():
    s = family(1.0, 0.0)
    with pytest.raises(InvariantTooSmall):
        second_bilegendrian_analysis(s)


@pytest.mark.parametrize("d,sign", [(2.0, "+"), (-2.0, "-")])
def test_sasakian_structure(d, sign):
    s = family(1.0, d)
    fit = nullity_fit(s)
    pkg = sasakian_structure(s)
    assert pkg.sign == sign
    assert pkg.checks.valid, pkg.checks.failures()
    assert pkg.checks["h_bar_vanishes"] <= 1e-9
    assert pkg.checks["nijenhuis_vanishes"] <= 1e-8
    assert pkg.checks["fitted_kappa_is_one"] <= 1e-8
    fit_bar = nullity_fit(pkg.structure)
    assert fit_bar.class_tag == "Sasakian"


def test_sasakian_structure_explicit_tensor_class_i():
    # phi-bar_+ = (2 phi + phi h)/sqrt(3) at (kappa, mu) = (0, -2)
    s = family(1.0, 2.0)
    pkg = sasakian_structure(s)
    expected = (2.0 * s.phi + s.phi @ s.h) / np.sqrt(3.0)
    assert np.max(np.abs(pkg.structure.phi - expected)) <= 1e-12


def test_sasakian_output_is_fixed_point():
    # every Sasakian output is rejected at step 1 of the tower
    for d in (2.0, -2.0):
        s = family(1.0, d)
        sas = sasakian_structure(s).structure
        fit = nullity_fit(sas)
        with pytest.raises(SasakianDegenerate):
            sequence(sas, 2)
        with pytest.raises(SasakianDegenerate):
            eigendistributions(sas)
        with pytest.raises(SasakianDegenerate):
            boeckx_invariant(fit.kappa, 0.0)


def test_sasakian_rejects_small_invariant():
    s = family(2.0, 1.0)
    with pytest.raises(InvariantTooSmall):
        sasakian_structure(s)


@pytest.mark.parametrize("d", [2.0, -2.0])
def test_anti_hypercomplex_and_3web(d):
    s = family(1.0, d)
    rep = sasakian_structure(s).checks
    assert rep.valid, rep.failures()
    web_entries = [k for k in rep.entries if k.startswith("web_")]
    assert len(web_entries) == 6


# the 8 entries the 3-web adds to the Sasakian report, in their order
WEB_KEYS = ["phi_tilde_kills_xi", "phi_tilde1_kills_xi"] + [
    f"web_{p}__{q}" for p, q in itertools.combinations(
        ("d_plus_lambda", "d_minus_lambda", "d_plus_lambda_t", "d_minus_lambda_t"), 2)
]
# the |I| > 1 points of the grid, classes I (1, 2) and III (1, -2) among them
LARGE_INVARIANT = [(lam, d) for lam in GRID_LAMBDAS for d in GRID_DS if abs(d) > lam]


@pytest.mark.parametrize("lam,d", LARGE_INVARIANT)
def test_sasakian_report_holds_the_3web(lam, d):
    s = family(lam, d)
    rep = sasakian_structure(s, tol=1e-9).checks
    assert rep.valid, rep.failures()
    assert [k for k in rep.entries if k in WEB_KEYS] == WEB_KEYS
    assert all(rep.notes[k].startswith("|det| = ") for k in WEB_KEYS[2:])
    assert not {"metric_positive_definite", "sasakian_h_zero"} & set(rep.entries)


@pytest.fixture
def failing_validation(monkeypatch):
    """One failing entry in every validation of the tower: node 1 fails its checks."""
    real = tower.validate_contact

    def failing(structures, tol):
        reports = real(structures, tol)
        for rep in reports if isinstance(reports, list) else [reports]:
            rep.add("injected_failure", 1.0)
        return reports

    monkeypatch.setattr(tower, "validate_contact", failing)


def test_constructions_stop_at_a_failed_tower_node(failing_validation):
    # neither construction may build on a node that fails its checks
    s = family(1.0, 2.0)
    for build in (sasakian_structure, second_bilegendrian_analysis):
        with pytest.raises(InternalInconsistency, match="^tower node 1 failed verification"):
            build(s)


def test_a_failed_canonical_pair_is_built_once(failing_validation, monkeypatch):
    # the error of the failed tower is kept on the structure: the second
    # construction raises it again without validating nodes 1 and 2 anew
    real, stacks = tower.validate_contact, []

    def counted(structures, tol):
        if isinstance(structures, list):  # a stack of tower nodes, not phi-bar alone
            stacks.append(len(structures))
        return real(structures, tol)

    monkeypatch.setattr(tower, "validate_contact", counted)
    s = family(1.0, 2.0)
    for build in (sasakian_structure, second_bilegendrian_analysis):
        with pytest.raises(InternalInconsistency, match="^tower node 1 failed verification"):
            build(s)
    assert stacks == [2]


def _structures_built(monkeypatch) -> list:
    """Every MetricStructure constructed from here on."""
    built, init = [], contact.MetricStructure.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(contact.MetricStructure, "__init__", recording_init)
    return built


def _node_key(node):
    """A tower node with its report read as its entries: each node's report is its own."""
    return node._replace(checks=None), None if node.checks is None else dict(node.checks.entries)


def test_a_tower_is_built_once_per_tol_whatever_its_length(monkeypatch):
    # each node keeps its successor: a longer tower walks the kept links and builds only
    # the nodes past them, a shorter one builds nothing; each call returns a list of its own
    s = family(1.0, 2.0)
    built = _structures_built(monkeypatch)
    first = sequence(s, 3)
    assert len(built) == 2
    longer = sequence(s, 6)  # nodes 3 and 4, and node 5's candidate, which is node 1
    assert len(built) == 5
    assert longer[5].structure is longer[1].structure
    second = sequence(s, 3)
    assert len(built) == 5
    assert [*map(_node_key, first)] == [*map(_node_key, second)] == [*map(_node_key, longer[:3])]
    assert first is not second
    first.append(first[0])
    assert len(sequence(s, 3)) == 3
    sequence(s, 1000)
    assert len(built) == 5
    sequence(s, 3, tol=1e-8)  # another tol is another tower
    assert len(built) == 7


@pytest.mark.parametrize("lam,d,most", [(1.0, 2.0, 5), (1.0, -2.0, 5), (2.5, -4.0, 5),
                                        (1.0, 0.5, 3), (2.0, 1.0, 3), (1.0, 0.0, 3)],
                         ids=["I", "III", "III-2.5", "II", "II-2", "II-I0"])
def test_a_long_tower_builds_at_most_one_period(monkeypatch, lam, d, most):
    # from node 1 on the tower has period 4 when |I_M| > 1 and 2 when |I_M| < 1: the
    # structures built are the distinct nodes and the candidate that closes the period
    s = family(lam, d)
    built = _structures_built(monkeypatch)
    nodes = sequence(s, 1000)
    assert len(nodes) == 1000 and len(built) <= most
    period = 4 if abs(d / lam) > 1.0 else 2
    assert all(nodes[k].structure is nodes[k + period].structure for k in range(1, 1000 - period))


def test_a_construction_after_a_longer_tower_builds_only_phi_bar(monkeypatch):
    # sasakian_structure reads nodes 1 and 2 that sequence(s, 6) built and verified
    s = family(1.0, 2.0)
    sequence(s, 6)
    built = _structures_built(monkeypatch)
    package = sasakian_structure(s)
    assert built == [package.structure]


def test_a_failed_node_is_validated_once(monkeypatch):
    # node 2 of this near-boundary class-I space fails its validation (~1.3e-9): the
    # failure is read again from its kept checks, and the shorter tower still passes
    s = family(1.0, 1.00003)
    real, validated = tower.validate_contact, []

    def counted(structures, tol):
        validated.extend(structures)
        return real(structures, tol)

    monkeypatch.setattr(tower, "validate_contact", counted)
    assert len(sequence(s, 2)) == 2
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="^tower node 2 failed verification"):
            sequence(s, 6)
        assert len(sequence(s, 2)) == 2
    with pytest.raises(InternalInconsistency, match="^tower node 2 failed verification"):
        sequence(s, 3)
    assert len(validated) == len(set(validated)) == 4  # nodes 1 to 4, each once


def test_every_derived_structure_is_built_on_the_form_of_its_seed(monkeypatch):
    """The tower nodes, phi-bar and the structure the h-eigenpair induces hold the contact
    form (M, eta, xi) of the structure they are derived from: the same object."""
    for tag, (lam, d) in CLASS_PARAMS.items():
        s = family(lam, d)
        nodes = sequence(s, 2 if tag in ("IV", "V") else 6)  # IV and V have nodes 0 and 1 only
        assert all(node.structure.form is s.form for node in nodes)
    for tag in ("I", "III"):
        s = family(*CLASS_PARAMS[tag])
        assert sasakian_structure(s).structure.form is s.form
    for tag in ("I", "II"):
        s = family(*CLASS_PARAMS[tag])
        built = _structures_built(monkeypatch)
        bilegendrian_connection(s)
        assert [t.kind for t in built] == ["paracontact"] and built[0].form is s.form
        monkeypatch.undo()


def test_the_constructions_read_their_nodes_from_the_tower(monkeypatch):
    # sasakian_structure builds phi-bar and reads phi~ and phi~_1 from sequence(s, 3)
    s = family(1.0, 2.0)
    built = _structures_built(monkeypatch)
    sasakian_structure(s)
    assert len(built) == 3
    nodes = sequence(s, 3)
    assert len(built) == 3
    second_bilegendrian_analysis(s)
    assert len(built) == 3
    assert [node.structure for node in nodes[1:]] == built[1:]


def test_a_kept_error_is_raised_as_a_fresh_copy():
    # the builder runs once; each later call raises a copy with its own attributes
    # and a traceback of its own, and the kept error holds no frames
    s, calls = family(1.0, 2.0), []

    def build():
        calls.append(1)
        raise NotNullity("no nullity condition", 0.5)

    raised = []
    for _ in range(3):
        with pytest.raises(NotNullity, match="^no nullity condition$") as exc:
            s.cached("kept-error", build)
        raised.append(exc.value)
    assert calls == [1]
    assert [e.residual for e in raised] == [0.5, 0.5, 0.5]
    assert len({id(e) for e in raised}) == 3
    assert len(traceback.extract_tb(raised[2].__traceback__)) == len(
        traceback.extract_tb(raised[1].__traceback__))
    assert s._cache["kept-error"].__traceback__ is None
    # the kept fit error of a structure that is no nullity space, likewise
    twisted, fits = twisted_contact_3d(), []
    for _ in range(2):
        with pytest.raises(NotNullity) as exc:
            nullity_fit(twisted)
        fits.append(exc.value)
    assert fits[0] is not fits[1]
    assert str(fits[0]) == str(fits[1]) and fits[0].residual == fits[1].residual
    assert twisted._cache[("nullity", DEFAULT_TOL)].__traceback__ is None


def test_validate_contact_of_tower_contact_nodes():
    nodes = sequence(family(2.0, 1.0), 4)
    for node in nodes:
        if node.kind == "contact":
            assert validate_contact(node.structure).valid
