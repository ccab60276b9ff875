"""Model file format and the command-line interface (exit codes, JSON reports)."""

import json

import numpy as np
import pytest

from kmgeom import modelfile
from kmgeom.catalog import family_3d, nilpotent_h_5d
from kmgeom.cli import main, render_json
from kmgeom.errors import ModelFormatError


MINIMAL = {
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 2.0}}],
}


def test_load_minimal_model():
    doc = modelfile.loads(json.dumps(MINIMAL))
    assert doc.model.dim == 3
    assert doc.model.c[0, 1, 2] == 2.0
    assert doc.model.c[1, 0, 2] == -2.0  # antisymmetrized
    assert doc.structure is None


def test_load_accepts_redundant_antisymmetric_pair():
    doc = modelfile.loads(
        json.dumps(
            {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "coeffs": {"3": 2.0}},
                    {"i": 2, "j": 1, "coeffs": {"3": -2.0}},
                ],
            }
        )
    )
    assert doc.model.c[0, 1, 2] == 2.0


def test_load_rejects_inconsistent_duplicates():
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"3": 2.0}},
            {"i": 2, "j": 1, "coeffs": {"3": 2.0}},  # violates antisymmetry
        ],
    }
    with pytest.raises(ModelFormatError):
        modelfile.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("dim"),
        lambda d: d["brackets"].append({"i": 0, "j": 2, "coeffs": {"3": 1.0}}),
        lambda d: d["brackets"].append({"i": 1, "j": 4, "coeffs": {"3": 1.0}}),
        lambda d: d.update(basis_labels=["only-one"]),
    ],
)
def test_load_rejects_malformed_documents(mutate):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ModelFormatError):
        modelfile.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "where, value",
    [("bracket", float("nan")), ("phi", float("inf")), ("xi", float("nan")), ("g", float("-inf"))],
)
def test_non_finite_model_is_a_parse_error(tmp_path, capsys, where, value):
    doc = json.loads(modelfile.dumps_entry(family_3d(1.0, 2.0)))
    if where == "bracket":
        doc["brackets"][0]["coeffs"]["3"] = value
    else:
        row = doc["structure"][where]
        if isinstance(row[0], list):
            row = row[0]
        row[0] = value
    text = json.dumps(doc)  # writes the NaN / Infinity literals Python's json reads back
    with pytest.raises(ModelFormatError):
        modelfile.loads(text)
    path = tmp_path / "non-finite.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    capsys.readouterr()


def test_load_rejects_non_json():
    with pytest.raises(ModelFormatError):
        modelfile.loads("{not json")


def test_entry_roundtrip():
    entry = nilpotent_h_5d()
    doc = modelfile.loads(modelfile.dumps_entry(entry))
    assert np.allclose(doc.model.c, entry.model.c)
    assert np.allclose(doc.structure.phi_t, entry.structure.phi_t)
    assert np.allclose(doc.structure.g_t, entry.structure.g_t)
    assert doc.expected["kappa"] == -1.0


def test_report_json_roundtrip_is_byte_identical(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(family_3d(1.0, 2.0)))
    out = tmp_path / "report.json"
    code = main(["analyze", str(path), "--json", str(out)])
    assert code == 0
    text = out.read_text().rstrip("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def _emit(tmp_path, name, *args):
    path = tmp_path / f"{name}.json"
    assert main(["catalog", "emit", name, *args, "--out", str(path)]) == 0
    return str(path)


def test_cli_validate_paths(tmp_path, capsys):
    good = _emit(tmp_path, "nilpotent-h-5d")
    assert main(["validate", good]) == 0
    bad = _emit(tmp_path, "broken-jacobi-3d")
    assert main(["validate", bad]) == 1
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    (tmp_path / "garbage.json").write_text("{oops")
    assert main(["validate", str(tmp_path / "garbage.json")]) == 2
    capsys.readouterr()


def test_cli_validate_scaled_metric(tmp_path, capsys):
    bad = _emit(tmp_path, "scaled-metric-3d")
    assert main(["validate", bad]) == 1
    capsys.readouterr()


def test_cli_analyze_family(tmp_path, capsys):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "2")
    code = main(["analyze", path, "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert "class I" in out
    payload = json.loads(out[out.index("{") :])
    assert payload["nullity"]["kappa"] == pytest.approx(0.0, abs=1e-9)
    assert payload["nullity"]["mu"] == pytest.approx(-2.0, abs=1e-9)
    assert payload["nullity"]["boeckx"] == pytest.approx(2.0, abs=1e-9)


def test_cli_analyze_5d_paracontact(tmp_path, capsys):
    path = _emit(tmp_path, "nilpotent-h-5d")
    code = main(["analyze", path, "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{") :])
    assert payload["nullity"]["kappa"] == pytest.approx(-1.0, abs=1e-9)
    assert payload["nullity"]["spectral_type"] == "nilpotent"


def test_cli_analyze_class_iv_reports_disabled_tower(tmp_path, capsys):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "1")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "class IV" in out


def test_cli_derive_exit_codes(tmp_path, capsys):
    good = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "0")
    assert main(["derive", good, "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("node") == 4
    boundary = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "1")
    assert main(["derive", boundary, "--steps", "3"]) == 3
    capsys.readouterr()


def test_cli_derive_tower_constants(tmp_path, capsys):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "2")
    assert main(["derive", path, "--steps", "3", "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    kinds = [n["kind"] for n in payload["tower"]]
    assert kinds == ["contact", "paracontact", "paracontact"]
    assert [round(n["kappa"], 8) for n in payload["tower"]] == [0.0, 2.0, 2.0]


def test_cli_sasakian_and_legendre3(tmp_path, capsys):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "2")
    code = main(["analyze", path, "--sasakian", "--legendre3", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{") :])
    assert payload["sasakian_construction"]["sign"] == "+"
    assert payload["sasakian_construction"]["checks"]["valid"]
    assert payload["legendre3"]["lambda_tilde"] == pytest.approx(np.sqrt(3.0))
    assert payload["legendre3"]["checks"]["valid"]


def test_cli_sasakian_reports_error_inside_unit_band(tmp_path, capsys):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "0")
    assert main(["analyze", path, "--sasakian"]) == 0  # reported, not fatal
    out = capsys.readouterr().out
    assert "sasakian construction:" in out


def test_cli_batch(tmp_path, capsys):
    _emit(tmp_path, "family-3d", "--lam", "1", "--d", "0")
    _emit(tmp_path, "nilpotent-h-5d")
    assert main(["analyze", "--batch", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("== ") == 2


def test_cli_catalog_constants(capsys):
    assert main(["catalog", "emit", "tangent-bundle-constants", "--c", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == -8.0
    assert payload["boeckx"] == pytest.approx(5.0 / 3.0)


def test_render_json_stable():
    report = {"b": 1.0, "a": {"y": np.float64(2.0), "x": [np.int64(1)]}}
    text = render_json(report)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_emitted_files_validate(tmp_path, capsys):
    for name in ("heisenberg-3d", "family-3d-class-III"):
        path = _emit(tmp_path, name)
        assert main(["validate", path]) == 0
    capsys.readouterr()


def test_cli_analyze_reports_non_nullity_without_failing(tmp_path, capsys):
    from kmgeom.catalog import CatalogEntry
    from conftest import twisted_contact_3d

    s = twisted_contact_3d()
    entry = CatalogEntry(name="twisted", model=s.model, structure=s)
    path = tmp_path / "twisted.json"
    path.write_text(modelfile.dumps_entry(entry))
    assert main(["analyze", str(path), "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["structure"]["valid"]
    assert payload["nullity"]["error"] == "not_nullity"
    assert payload["nullity"]["residual"] > 0.1


def test_cli_analyze_model_without_structure(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(MINIMAL))
    assert main(["analyze", str(path)]) == 0
    assert "jacobi" in capsys.readouterr().out
