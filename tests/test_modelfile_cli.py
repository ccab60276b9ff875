"""Model file format and the command-line interface (exit codes, JSON reports)."""

import json
import re
import sys

import numpy as np
import pytest
from conftest import reference_json

from kmgeom import modelfile
from kmgeom.catalog import family_3d, nilpotent_h_5d
from kmgeom.cli import main, render_json
from kmgeom.errors import ClassificationMismatch, ModelFormatError
from kmgeom.lie_model import LieModel


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
    "where, value, accepted",
    [
        ("dim", 3.7, False), ("dim", True, False), ("dim", float("inf"), False), ("dim", 3.0, True),
        ("i", 1.9, False), ("i", True, False), ("i", 1.0, True),
        ("j", 2.5, False), ("j", False, False), ("j", 2.0, True),
        ("coeff", True, False), ("coeff", 2, True),
    ],
)
def test_load_reads_integers_and_numbers_strictly(tmp_path, capsys, where, value, accepted):
    # a bool or a non-integral number must not be truncated to an index or read as 1.0
    doc = json.loads(json.dumps(MINIMAL))
    if where == "dim":
        doc["dim"] = value
    elif where == "coeff":
        doc["brackets"][0]["coeffs"]["3"] = value
    else:
        doc["brackets"][0][where] = value
    text = json.dumps(doc)
    if accepted:
        assert modelfile.loads(text).model.c[0, 1, 2] == 2.0
        return
    with pytest.raises(ModelFormatError):
        modelfile.loads(text)
    path = tmp_path / "strict.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()


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
    assert np.allclose(doc.structure.phi, entry.structure.phi)
    assert np.allclose(doc.structure.g, entry.structure.g)
    assert doc.expected["kappa"] == -1.0


def test_dumps_entry_brackets_match_loop_reference():
    # the nonzero c[i, j, k] with i < j, in (i, j, k) order, as a loop over the basis
    entry = nilpotent_h_5d()
    raw = np.random.default_rng(3).standard_normal((5, 5, 5))
    for c in (entry.model.c, 0.5 * (raw - raw.transpose(1, 0, 2))):  # sparse, dense
        dumped = json.loads(modelfile.dumps_entry(entry._replace(model=LieModel(c=c))))
        reference = []
        for i in range(5):
            for j in range(i + 1, 5):
                coeffs = {str(k + 1): c[i, j, k] for k in range(5) if abs(c[i, j, k]) > 0}
                if coeffs:
                    reference.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
        assert dumped["brackets"] == json.loads(json.dumps(reference))


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


@pytest.mark.parametrize("name", ["family-3d-class-IV", "family-3d-class-V"])
def test_cli_derive_two_steps_on_the_unit_band(tmp_path, capsys, name):
    # at |I_M| = 1 node 2 is undefined, but node 1 (the canonical paracontact
    # structure) exists: --steps 2 returns nodes 0 and 1
    path = _emit(tmp_path, name)
    assert main(["derive", path, "--steps", "2", "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    kappa, mu = payload["nullity"]["kappa"], payload["nullity"]["mu"]
    node0, node1 = payload["tower"]
    assert node0["kind"] == "contact"
    assert node1["kind"] == "paracontact"
    assert node1["kappa"] == pytest.approx(kappa - 2.0 + (1.0 - mu / 2.0) ** 2, abs=1e-9)
    assert node1["mu"] == pytest.approx(2.0, abs=1e-9)


# family_3d(lam, d) has I_M = d / lam: points outside the class band
# |I_M - 1| <= tol (1e-9) but within 1e-8 of |I_M| = 1, inside it, and on I_M = +-1
# at a lambda where d / lam is inexact
BAND_POINTS = [(1.0, 1.0 + 3e-9, "I"), (1.0, 1.0 - 3e-9, "II"), (1.0, 1.0 + 5e-10, "IV"),
               (1.0, 1.0 - 5e-10, "IV"), (1.0, 1.0, "IV"), (0.625, 0.625, "IV"),
               (0.625, -0.625, "V")]


@pytest.mark.parametrize("lam,d,cls", BAND_POINTS)
def test_cli_constructions_follow_the_class_band(tmp_path, capsys, lam, d, cls):
    # the class decides where the space sits: derive exits 3 exactly in classes IV
    # and V, a class I or III construction is never "undefined", and no message
    # states a false inequality
    path = _emit(tmp_path, "family-3d", "--lam", repr(lam), "--d", repr(d))
    assert main(["analyze", path, "--sasakian", "--legendre3", "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("\n{") :])
    assert payload["nullity"]["class"] == payload["nullity"]["class_pang_checked"] == cls
    errors = [payload[key].get("error", "") for key in ("sasakian_construction", "legendre3")]
    code = main(["derive", path, "--steps", "6"])
    errors.append(capsys.readouterr().err)
    assert (code == 3) == (cls in ("IV", "V"))
    if cls in ("I", "III"):
        assert not any("construction undefined" in e for e in errors)
    for value in re.findall(r"\|I_M\| = (\S+) <= 1", "\n".join(errors)):
        assert float(value) <= 1.0


@pytest.mark.parametrize("d", ["2e-5", "0"])
def test_cli_derive_names_the_sasakian_band(tmp_path, capsys, d):
    # lambda = 1e-5: kappa = 1 - 1e-10 < 1, yet within tol of 1; the guard says that
    # the fit puts the structure in the Sasakian band, and prints kappa
    path = _emit(tmp_path, "family-3d", "--lam", "1e-5", "--d", d)
    assert main(["derive", path, "--steps", "6"]) == 1
    assert capsys.readouterr().err == (
        "error: construction requires a non-Sasakian structure: the fit puts this one in the "
        "Sasakian band (kappa >= 1 - tol, or mu indeterminate), kappa = 0.9999999999\n")


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


@pytest.mark.parametrize(
    "a,b,error",
    [("-1", "-12", "a, b must be positive when I_M > 1"),
     ("1", None, "supply both a and b, or neither")],
)
def test_cli_legendre3_reports_a_rejected_pang_pair(tmp_path, capsys, a, b, error):
    # a wrong-sign or half-given (a, b) is the second pair's error, not the run's
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "2")
    pair = ["--a", a] + (["--b", b] if b is not None else [])
    code = main(["analyze", path, "--legendre3", *pair, "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{") :])
    assert payload["legendre3"] == {"error": error}


def test_cli_records_not_nullity_of_a_derived_fit(tmp_path, capsys):
    # family-3d(1, 2) in a basis of condition number 1e2: a class-I nullity
    # space (fit residual 5.6e-10), whose Sasakian partner's fit misses the
    # 1e-9 gate by roundoff (2.7e-9), and whose tower node 2 fails its own
    # checks (metric_compatibility 3.0e-9); the report keeps the structure's own
    # verdict, and the second pair is not built on the failed node
    from kmgeom.catalog import CatalogEntry
    from conftest import rebased

    p = np.array([
        [-2.767607356654867, 2.4921399063025014, 7.24083077801514],
        [-0.10227472896429135, 0.038814206225568644, -0.20694048506778487],
        [-1.4856411127181344, 0.7735698326462813, 5.643547379266397],
    ])
    s = rebased(family_3d(1.0, 2.0).structure, p)
    path = tmp_path / "rebased.json"
    path.write_text(modelfile.dumps_entry(CatalogEntry(name="rebased", model=s.model, structure=s)))
    assert main(["analyze", str(path), "--sasakian", "--legendre3", "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("\n{") :])  # the human text holds a "{" too
    assert payload["nullity"]["class"] == "I"
    assert "nullity condition" in payload["sasakian_construction"]["error"]
    assert payload["legendre3"]["error"].startswith("tower node 2 failed verification")


def test_cli_sasakian_reports_error_inside_unit_band(tmp_path, capsys):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "0")
    assert main(["analyze", path, "--sasakian"]) == 0  # reported, not fatal
    out = capsys.readouterr().out
    assert "sasakian construction:" in out


def test_cli_analyze_prints_the_reason_of_a_parse_error(tmp_path, capsys):
    """analyze names why a file does not parse, as validate does, alone and in a batch."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3, "brackets": [')
    reason = "error: not valid JSON: Expecting value: line 1 column 25 (char 24)"
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [reason]
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [reason, f"error: cannot analyze {bad}"]
    _emit(tmp_path, "nilpotent-h-5d")
    assert main(["analyze", "--batch", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [reason.replace("error: ", f"error: {bad}: ", 1)]
    assert captured.out.count("== ") == 2


def test_cli_batch(tmp_path, capsys):
    _emit(tmp_path, "family-3d", "--lam", "1", "--d", "0")
    _emit(tmp_path, "nilpotent-h-5d")
    assert main(["analyze", "--batch", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("== ") == 2


def test_cli_failed_json_write_is_an_error_line(tmp_path, capsys):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "2")
    target = tmp_path / "no-such-dir" / "x.json"
    assert main(["analyze", path, "--json", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("model family-3d")  # the human report comes first
    assert captured.err.splitlines() == [
        f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'"]


def test_cli_failed_catalog_write_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    assert main(["catalog", "emit", "heisenberg-3d", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'"]


@pytest.mark.parametrize("extra, error", [
    (["PATH", "--batch", "DIR"], "error: --batch takes no model file"),
    (["--batch", "DIR", "--json", "OUT"], "error: --batch takes no --json"),
    (["PATH", "--a", "1", "--b", "12"], "error: --a and --b apply only with --legendre3"),
    (["PATH", "--b", "12"], "error: --a and --b apply only with --legendre3"),
], ids=["path-and-batch", "batch-and-json", "pang-pair-without-legendre3", "b-without-legendre3"])
def test_cli_rejects_options_that_would_be_ignored(tmp_path, capsys, extra, error):
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "2")
    out = tmp_path / "report.json"  # a batch of this one model wrote it before
    argv = [{"PATH": path, "DIR": str(tmp_path), "OUT": str(out)}.get(a, a) for a in extra]
    assert main(["analyze", *argv]) == 2
    assert capsys.readouterr() == ("", error + "\n")
    assert not out.exists()


def test_cli_catalog_constants(capsys):
    assert main(["catalog", "emit", "tangent-bundle-constants", "--c", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == -8.0
    assert payload["boeckx"] == pytest.approx(5.0 / 3.0)


def test_render_json_stable():
    report = {"b": 1.0, "a": {"y": np.float64(2.0), "x": [np.int64(1)]}}
    text = render_json(report)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 10**20, np.float64(2.5), np.int64(-3),
    np.float64("nan"), np.float64("-inf"), np.float32(1.1), (1, (2.0, "t")), (), [], {}, [[]], [{}],
    {"e": {}}, {"l": [[], {}]}, None, True, False, 0, "", "caf\u00e9 \u2202\u03b7", "q\"b\\n\n\t\x01",
    np.array([[1.0, np.nan], [np.inf, -0.0]]), np.array(3.5), np.array([], dtype=float),
    np.array([True, False]), np.arange(3),
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_render_json_is_the_reference_text_on_edge_values(value):
    for report in (value, {"k": value, "a": [value, {"z": value}]}):
        assert render_json(report) == reference_json(report)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_render_json_is_strict_json_on_edge_values(value):
    # NaN, Infinity and -Infinity are Python extensions that strict JSON parsers reject
    for report in (value, {"k": value, "a": [value, {"z": value}]}):
        json.loads(render_json(report), parse_constant=_reject_constant)


@pytest.mark.parametrize("value", [np.bool_(True), {"k": [np.bool_(False)]}, {1, 2}, 1j])
def test_render_json_raises_where_json_does(value):
    with pytest.raises(TypeError):
        reference_json(value)
    with pytest.raises(TypeError):
        render_json(value)


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


@pytest.mark.parametrize("doc", [{"dim": 3, "brackets": []},
                                 {"dim": 3, "brackets": [], "structure": None}])
def test_cli_derive_requires_a_structure(tmp_path, capsys, doc):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    assert main(["derive", str(path), "--steps", "2"]) == 1
    assert capsys.readouterr().err == "error: derive requires a contact structure\n"


def test_cli_derive_reports_non_nullity_as_one_error_line(tmp_path, capsys):
    from kmgeom.catalog import CatalogEntry
    from conftest import twisted_contact_3d

    s = twisted_contact_3d(a=0.7, r=0.4)
    path = tmp_path / "twisted.json"
    path.write_text(modelfile.dumps_entry(CatalogEntry(name="twisted", model=s.model, structure=s)))
    assert main(["derive", str(path), "--steps", "6", "--json", "-"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out[captured.out.index("{") :])
    assert payload["nullity"]["error"] == "not_nullity"
    assert "tower" not in payload
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_cli_derive_reports_an_analyze_error_as_one_error_line(tmp_path, capsys, monkeypatch):
    # a GeometryError of derive's analyze step is an error line and exit 1, as in analyze
    def mismatch(*args, **kwargs):
        raise ClassificationMismatch("Pang class II, invariant class I")

    from kmgeom.legendre import classify_class

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kmgeom" and vars(module).get("classify_class") is classify_class:
            monkeypatch.setattr(module, "classify_class", mismatch)
    path = _emit(tmp_path, "family-3d", "--lam", "1", "--d", "2")
    assert main(["analyze", path]) == 1
    capsys.readouterr()
    assert main(["derive", path, "--steps", "3", "--json", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Pang class II, invariant class I\n"
