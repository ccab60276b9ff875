"""README's error contract: one row per designated error class of :mod:`kmgeom.errors`,
each with an input that reaches it, where it lands (an exit code, or a report row) and
the test that pins it.  The table must name every class once, and each CLI row's input,
built here with the catalog, must reach its class and land where the row says."""

import json
import os
import re

import pytest
from conftest import twisted_contact_3d

from kmgeom import errors
from kmgeom.catalog import d_homothetic, family_3d, get_entry, heisenberg
from kmgeom.cli import main
from kmgeom.modelfile import CatalogEntry, dumps_entry

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    SECTION = fh.read().split("\n### Error contract\n", 1)[1].split("\n#", 1)[0]
# (class, input, landing, pinned by) of each table row
TABLE = re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \| `(.*?)` \|$", SECTION, flags=re.M)
CLASSES = sorted(name for name, value in vars(errors).items() if isinstance(value, type)
                 and issubclass(value, errors.GeometryError) and value is not errors.GeometryError)
PIN = "tests/test_error_contract.py::test_the_cli_keeps_the_error_contract[{}]"

FULL = ["--sasakian", "--legendre3"]
CONSTRUCTIONS = ("sasakian_construction", "legendre3")


def _twisted() -> CatalogEntry:
    s = twisted_contact_3d()
    return CatalogEntry(name="twisted", model=s.model, structure=s)


DIM_1 = json.dumps({"dim": 1, "brackets": [], "structure": {
    "kind": "contact", "phi": [[0]], "xi": [1], "eta": [1], "g": [[1]]}})

# class: (the model file m.json, as text or a catalog entry maker, or None; argv; exit
# code; the report rows that read {"error": ...}: a message of the class, or for the
# nullity row its "not_nullity")
CONTRACT = {
    "ModelFormatError": ("this is not json", ["analyze", "m.json"], 2, ()),
    "DimensionMismatch": (DIM_1, ["analyze", "m.json"], 2, ()),
    "NonPositiveLambda": (None, ["catalog", "emit", "family-3d", "--lam", "-1", "--d", "0"], 2, ()),
    "NotNullity": (_twisted, ["analyze", "m.json"], 0, ("nullity",)),
    "SasakianDegenerate": (lambda: heisenberg(3), ["analyze", "m.json", "--sasakian"], 0,
                           ("sasakian_construction",)),
    "InvariantTooSmall": (lambda: get_entry("family-3d-class-II"), ["analyze", "m.json", "--sasakian"],
                          0, ("sasakian_construction",)),
    "InvalidPangPair": (lambda: get_entry("family-3d-class-I"),
                        ["analyze", "m.json", "--legendre3", "--a", "1"], 0, ("legendre3",)),
    "DegenerateMetric": (lambda: family_3d(1.0, 1.0 + 2e-9), ["analyze", "m.json", *FULL], 0,
                         CONSTRUCTIONS),
    "InternalInconsistency": (lambda: d_homothetic(family_3d(0.01, 0.01 * (1 + 3e-9)), 100.0),
                              ["analyze", "m.json", *FULL], 0, CONSTRUCTIONS),
    "DegeneratePang": (lambda: family_3d(1.0, 1.0 + 3e-9), ["analyze", "m.json", *FULL], 0,
                       ("legendre3",)),
    "DegenerateInvariant": (lambda: get_entry("family-3d-class-IV"), ["derive", "m.json", "--steps", "3"],
                            3, ()),
    "ClassificationMismatch": (lambda: d_homothetic(family_3d(0.01, 0.01 * (1 + 1e-8)), 100.0),
                               ["analyze", "m.json"], 1, ()),
}


def test_the_table_names_every_class_once():
    assert sorted(name for name, *_ in TABLE) == CLASSES


def test_each_row_names_its_pin():
    for name, reach, _, pin in TABLE:
        if reach.startswith("library only"):
            assert name not in CONTRACT
        else:
            assert pin == PIN.format(name)
        path, _, test = pin.partition("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            assert f"\ndef {test.split('[')[0]}(" in fh.read()
    assert sorted(CONTRACT) == sorted(name for name, reach, *_ in TABLE
                                      if not reach.startswith("library only"))


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_the_cli_keeps_the_error_contract(tmp_path, capsys, monkeypatch, name):
    model, argv, code, rows = CONTRACT[name]
    if model is not None:
        (tmp_path / "m.json").write_text(model if isinstance(model, str) else dumps_entry(model()))
    raised = []
    init = errors.GeometryError.__init__

    def recording(self, *args):
        init(self, *args)
        raised.append((type(self).__name__, str(self)))

    monkeypatch.setattr(errors.GeometryError, "__init__", recording)
    monkeypatch.chdir(tmp_path)
    json_out = ["--json", "report.json"] if argv[0] != "catalog" else []
    assert main([*argv, *json_out]) == code
    messages = [message for cls, message in raised if cls == name]
    assert messages  # the input reaches the class
    err = capsys.readouterr().err
    if code:  # one error line that carries the class's message, and no report
        assert err.startswith("error") and any(message in err for message in messages)
        assert not (tmp_path / "report.json").exists()
        return
    assert err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    for row in rows:
        assert report[row]["error"] in (["not_nullity"] if row == "nullity" else messages)
    if "nullity" not in rows:  # a construction's error leaves the fit, flags and identities
        assert "error" not in report["nullity"] and report["flags"] and report["identities"]
