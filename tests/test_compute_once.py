"""Compute-once analysis: one Levi-Civita solve per distinct metric, each
nullity fit, derived structure, Nijenhuis tensor, Nijenhuis side report,
h-eigenframe, canonical connection and paracontact integrability check built once
per run of the CLI, one contact form (d eta, ad xi and the kernel basis of eta) per
model file, one Legendre validation per distribution, one argument parser per
process, and one decomposition per verdict: numpy's SVD and symmetric eigenvalue
calls per CLI call are pinned."""

import hashlib
import sys

import numpy as np
import pytest

from kmgeom import cli, contact, legendre, lie_model, modelfile, riemann, tower
from kmgeom.catalog import family_3d, nilpotent_h_5d
from kmgeom.modelfile import CatalogEntry

from conftest import CLASS_PARAMS, twisted_contact_3d

COUNTED = {
    "levi_civita": riemann.levi_civita,
    "step_checks": tower.step_checks,
    "blair_identity_suite": contact.blair_identity_suite,
    "nijenhuis_tensor": riemann.nijenhuis_tensor,
    "d_one_form": lie_model.d_one_form,  # built once, by the contact form of the model file
    # one call per distribution: a bi-Legendrian pair is two
    "legendre_distribution": legendre.legendre_distribution,
    "involutivity_residual": legendre.involutivity_residual,
    "libermann_map": legendre.libermann_map,
    "build_parser": cli.build_parser,
}
# the memo entries counted where the memo (contact._each) builds them, one per member:
# the canonical connection read by its CLI stage row and by the integrability check,
# the integrability check read by two paracontact stage rows of the CLI, the
# Nijenhuis norm with its side report, the h-eigenframe and the nullity fit
KEPT = ("canonical_connection", "integrability_and_parasasaki", "nijenhuis_norm",
        "eigendistributions", "nullity")


def _count_calls(monkeypatch) -> tuple[dict, list, dict]:
    """Count calls of the functions in COUNTED, rebinding each name in every
    kmgeom module that binds it, and the builds of the memo entries in KEPT; also
    collect a digest of every metric solved (each member of a stacked Levi-Civita
    call) and, per counted build, the structures that asked for it (kept alive, so
    that their ids stay distinct)."""
    counts = dict.fromkeys([*COUNTED, *KEPT], 0)
    solved = []
    askers = {name: [] for name in KEPT}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "levi_civita":  # one solve per member of a stack of metrics
                for g in np.reshape(args[1], (-1, args[0].dim, args[0].dim)):
                    solved.append(hashlib.sha1(args[0].c.tobytes() + g.tobytes()).digest())
            return fn(*args, **kwargs)

        return wrapper

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "kmgeom":
            continue
        for name, fn in COUNTED.items():
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))

    each = contact._each

    def counting_each(members, key, build):
        name = key if isinstance(key, str) else key[0]
        if name not in KEPT:
            return each(members, key, build)

        def counted(missing):
            counts[name] += len(missing)
            askers[name].extend(missing)
            return build(missing)

        return each(members, key, counted)

    monkeypatch.setattr(contact, "_each", counting_each)
    return counts, solved, askers


@pytest.mark.parametrize(
    "entry, argv, n_metrics, expected",
    [
        # one Nijenhuis tensor for the structure and one for its Sasakian partner;
        # tower nodes 1 and 2 are built without the closed-form checks no caller
        # reads, and their two metrics are solved as one stack; the h- and the
        # h~-eigenpair are two Legendre validations each, one per distribution
        (family_3d(1.0, 2.0), ["analyze", "--sasakian", "--legendre3"], 4,
         {"levi_civita": 3, "step_checks": 0,
          "nijenhuis_tensor": 2, "eigendistributions": 1, "nijenhuis_norm": 2,
          "d_one_form": 1, "legendre_distribution": 4, "involutivity_residual": 4,
          "nullity": 4}),
        # class II: node k + 2 is node k up to roundoff (k >= 1), and shares its
        # structure; one stack per kind (nodes 1, 2) after node 0; the class reads the
        # h-eigenpair, one Legendre validation per distribution
        (family_3d(1.0, 0.5), ["derive", "--steps", "6"], 3,
         {"levi_civita": 3, "step_checks": 0, "nijenhuis_tensor": 1, "eigendistributions": 1,
          "nijenhuis_norm": 1, "d_one_form": 1, "legendre_distribution": 2,
          "involutivity_residual": 2, "nullity": 3}),
        # class I: every node from 1 on is paracontact, and node 5 is node 1;
        # nodes 1-4 are solved as one stack
        (family_3d(1.0, 2.0), ["derive", "--steps", "6"], 5,
         {"levi_civita": 2, "step_checks": 0, "nijenhuis_tensor": 1, "nijenhuis_norm": 1,
          "d_one_form": 1, "nullity": 5}),
        # mu = 2: the tower returns to node 0 at node 2, and node 3 is node 1
        (family_3d(1.0, 0.0), ["derive", "--steps", "6"], 2,
         {"levi_civita": 2, "step_checks": 0, "nijenhuis_tensor": 1, "nijenhuis_norm": 1,
          "d_one_form": 1, "nullity": 2}),
        (nilpotent_h_5d(), ["analyze"], 1,
         {"levi_civita": 1, "step_checks": 0, "canonical_connection": 1, "nijenhuis_tensor": 1,
          "nijenhuis_norm": 0, "d_one_form": 1, "integrability_and_parasasaki": 1,
          "nullity": 1}),
    ],
    ids=["class-I-analyze", "class-II-derive", "class-I-derive", "class-II-mu-2-derive",
         "nilpotent-h-5d-analyze"],
)
def test_cli_solves_each_metric_once(tmp_path, capsys, monkeypatch, entry, argv, n_metrics,
                                     expected):
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(entry))
    counts, solved, askers = _count_calls(monkeypatch)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert {name: counts[name] for name in expected} == expected
    assert len(solved) == len(set(solved)) == n_metrics  # no metric is solved twice
    for name, structures in askers.items():  # one build per structure that asks
        assert counts[name] == len({id(st) for st in structures})


def test_a_derive_that_cannot_walk_its_tower_stops_before_the_contact_rows(tmp_path, capsys, monkeypatch):
    # class IV: the walk reads |I_M| = 1 off the fit, the one solve, and ends the command
    # with exit 3 before any contact row reads the eigenframe, the Nijenhuis tensor or the
    # Blair suite
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(family_3d(*CLASS_PARAMS["IV"])))
    counts, _, _ = _count_calls(monkeypatch)
    assert cli.main(["derive", str(path), "--steps", "6"]) == cli.EXIT_DEGENERATE
    capsys.readouterr()
    expected = {"levi_civita": 1, "eigendistributions": 0, "nijenhuis_tensor": 0,
                "blair_identity_suite": 0}
    assert {name: counts[name] for name in expected} == expected


@pytest.mark.parametrize(
    "entry, argv, expected",
    [
        # each metric's signature reads its one eigvalsh, both paracontact eigenranks are one
        # stacked SVD, and each Pang form's definiteness is read from the eigenvalues its
        # Legendre validation kept.  Each distribution is validated by its own call, with one
        # rank-test svd and one Pang eigvalsh: one of each per distribution, so 2 per pair
        # (analyze: the h- and h~-pairs; derive: the h-pair), and each matrix still once; the
        # one kernel basis of eta is the contact form's svd
        (family_3d(1.0, 2.0), ["analyze", "--sasakian", "--legendre3"], {"svd": 17, "eigvalsh": 7}),
        (family_3d(1.0, 2.0), ["derive", "--steps", "6"], {"svd": 8, "eigvalsh": 4}),
        (CatalogEntry(name="twisted", model=twisted_contact_3d().model,
                      structure=twisted_contact_3d()), ["analyze"], {"svd": 3, "eigvalsh": 1}),
    ],
    ids=["class-I-analyze", "class-I-derive", "not-nullity-analyze"],
)
def test_cli_decomposes_each_matrix_once(tmp_path, capsys, monkeypatch, entry, argv, expected):
    """numpy's SVD and symmetric eigenvalue calls of one CLI call: no verdict factors a
    matrix that a decomposition of its site has already factored."""
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(entry))
    counts = dict.fromkeys(expected, 0)
    for name in expected:
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert counts == expected


@pytest.mark.parametrize(
    "pair",
    [["--a", "-1", "--b", "-12"], ["--a", "1"], ["--a", "1e155", "--b", "1e155"],
     ["--a", "1e200", "--b", "1e-200"], ["--a", "1", "--b", "1e-20"]],
    ids=["wrong-sign", "half-given", "mu-beyond-float-range", "kappa-beyond-float-range",
         "invariant-one"])
def test_rejected_pang_pair_builds_nothing(tmp_path, capsys, monkeypatch, pair):
    # the second pair checks (a, b), and the finite constants and |I'| > 1 it
    # generates, before its eigenframe, Legendre validations and Libermann maps: only the
    # h-eigenpair of the class is validated, one call per distribution
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(family_3d(1.0, 2.0)))
    counts, _, _ = _count_calls(monkeypatch)
    assert cli.main(["analyze", str(path), "--legendre3", *pair]) == 0
    capsys.readouterr()
    assert (counts["legendre_distribution"], counts["libermann_map"]) == (2, 0)


def test_cached_connection_is_shared_and_read_only():
    s = family_3d(1.0, 2.0).structure
    conn = s.levi_civita()
    assert s.levi_civita() is conn
    with pytest.raises(ValueError):
        conn.gamma[0, 0, 0] = 1.0
    pc, _, _ = contact.canonical_connection(nilpotent_h_5d().structure)
    with pytest.raises(ValueError):
        pc.gamma[0, 0, 0] = 1.0


def test_cli_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(family_3d(1.0, 2.0)))
    counts, _, _ = _count_calls(monkeypatch)
    argv = ["analyze", str(path), "--json", "-"]
    assert cli.main(argv) == 0
    first = capsys.readouterr()
    # both kinds of argparse error exit 2: a missing required option, an unknown one
    for bad in (["derive", str(path)], ["analyze", str(path), "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            COUNTED["build_parser"]().parse_args(bad)  # a fresh, uncounted parser
        assert capsys.readouterr().err == err
    assert cli.main(argv) == 0
    assert capsys.readouterr() == first
    # 0 when an earlier test in this process already built the parser
    assert counts["build_parser"] <= 1


def test_one_contact_form_per_model_file(tmp_path, capsys, monkeypatch):
    """d eta and ad xi are computed once per CLI call, by the contact form the loader makes:
    every structure derived from the loaded one reads them from that form."""
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(family_3d(1.0, 2.0)))
    counts = {"d_one_form": 0, "ad": 0}
    d_one_form, ad = lie_model.d_one_form, lie_model.LieModel.ad

    def counting_d_one_form(*args, **kwargs):
        counts["d_one_form"] += 1
        return d_one_form(*args, **kwargs)

    def counting_ad(self, u):
        counts["ad"] += 1
        return ad(self, u)

    for modname, module in list(sys.modules.items()):  # every kmgeom module that binds it
        if modname.split(".")[0] == "kmgeom" and vars(module).get("d_one_form") is d_one_form:
            monkeypatch.setattr(module, "d_one_form", counting_d_one_form)
    monkeypatch.setattr(lie_model.LieModel, "ad", counting_ad)
    assert cli.main(["derive", str(path), "--steps", "6", "--json", "-"]) == 0
    capsys.readouterr()
    assert counts == {"d_one_form": 1, "ad": 1}
