"""numpy and the engine load only when a command computes, and each command
loads only the modules it uses.

The child imports ``kmgeom.cli`` and calls its ``main`` (``CLI``), so that the
module has an ``-X importtime`` row of its own: an import at its top level nests
under that row, while the imports of a command run after it.  A cold call that
exits on a parse error, a usage error or ``--help`` imports no numpy, nests no
engine module, numpy or ``dataclasses`` row under ``kmgeom.cli``, and prints
what an in-process call and ``python -m kmgeom.cli`` print; a NaN or infinite
bracket coefficient, bytes that are not UTF-8 and JSON nested past the recursion
limit are such parse errors.  A cold ``analyze``
that computes imports neither ``kmgeom.tower`` (only a construction or
``derive`` needs it) nor ``kmgeom.catalog`` (only ``catalog`` needs it), and
nests no engine module under ``kmgeom.cli``.  In none of these calls does a
kmgeom module import ``dataclasses``, read from the nesting of the rows:
argparse itself may import it on newer Pythons.  The package's public names
resolve on first access to their submodules' objects.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import kmgeom
from kmgeom import cli, modelfile
from kmgeom.catalog import family_3d

# The public names of the package by defining submodule, as they were imported
# eagerly before the package resolved them on access.
PUBLIC = {
    "catalog": ["family_3d", "heisenberg", "nilpotent_h_5d", "tangent_bundle_constants"],
    "contact": ["ContactMetricStructure", "NullityReport", "ParacontactMetricStructure",
                "blair_identity_suite", "boeckx_invariant", "canonical_connection",
                "classification_flags", "integrability_and_parasasaki", "nijenhuis_norm",
                "nullity_fit", "validate_contact"],
    "errors": ["GeometryError"],
    "legendre": ["LegendreDistribution", "bilegendrian_connection", "classify_class",
                 "eigendistributions", "legendre_pair_constants", "libermann_map"],
    "lie_model": ["ContactForm", "LieModel", "d_one_form", "jacobi_residual", "lie_derivative_endo"],
    "modelfile": ["CatalogEntry"],
    "report": ["DEFAULT_TOL", "ResidualReport"],
    "riemann": ["AffineConnection", "levi_civita", "signature"],
    "tower": ["SasakianPackage", "TowerNode", "sasakian_structure",
              "second_bilegendrian_analysis", "sequence", "step_checks"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
ENGINE = {f"kmgeom.{module}" for module in PUBLIC if module not in ("errors", "modelfile")}
CLI = ("-c", "import sys, kmgeom.cli; sys.exit(kmgeom.cli.main(sys.argv[1:]))")


def _child(*args, cwd):
    """(exit code, stdout, stderr without the import log, imports) of a fresh
    ``python -X importtime *args``, with ``src`` on its path; ``imports`` maps each
    imported module name to the names of the imports it ran inside, innermost first."""
    src = os.path.dirname(os.path.dirname(kmgeom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               COLUMNS="80")
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stderr.splitlines(keepends=True)
    log = [line for line in lines if line.startswith("import time:")]
    # a row's name is indented two spaces per level of nesting, and a nested import's
    # row comes before the row of the import it ran inside
    rows = [(len(name) - len(name.lstrip()), name.strip())
            for name in (line.rsplit("|", 1)[-1] for line in log)]
    modules = {}
    for i, (indent, name) in enumerate(rows):
        modules[name] = outer = []
        for level, parent in rows[i + 1:]:
            if level < indent:
                outer.append(parent)
                indent = level
    return proc.returncode, proc.stdout, "".join(line for line in lines if line not in log), modules


def _kmgeom_importers(modules, name):
    """The kmgeom modules among those whose import ran the import of ``name``."""
    return [m for m in modules.get(name, []) if m.split(".")[0] == "kmgeom"]


def _nested_under(modules, name):
    """The modules whose import ran inside the import of ``name``."""
    return {m for m, outer in modules.items() if name in outer}


def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, last_err", [
    (["analyze", "malformed.json"], 2, "error: cannot analyze malformed.json"),
    (["validate", "non-finite.json"], 2,
     "error: bracket coefficients must be finite (no NaN or infinity)"),
    (["validate", "missing.json"], 2,
     "error: cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    (["validate", "bom-utf16.json"], 2,
     "error: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    (["derive", "nested-too-deep.json", "--steps", "3"], 2,
     "error: not valid JSON: maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string"),
    (["derive", "malformed.json"], 2,
     "kmgeom derive: error: the following arguments are required: --steps"),
    (["--help"], 0, None),
], ids=["malformed-file", "non-finite-coefficient", "missing-file", "bom-utf16", "nested-too-deep",
        "usage-error", "help"])
def test_cold_exit_without_arrays_imports_no_numpy(tmp_path, capsys, monkeypatch, argv, code,
                                                   last_err):
    (tmp_path / "malformed.json").write_text('{"dim": 3, "brackets": [')
    (tmp_path / "non-finite.json").write_text(
        '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": NaN}}]}')
    (tmp_path / "bom-utf16.json").write_bytes(b'\xff\xfe{"dim": 3}')
    (tmp_path / "nested-too-deep.json").write_text(
        '{"dim": 3, "expected": ' + "[" * 100000 + "]" * 100000 + "}")
    got = _child(*CLI, *argv, cwd=tmp_path)
    assert got[0] == code
    assert got[2].splitlines()[-1:] == ([last_err] if last_err else [])
    assert not {m for m in got[3] if m.split(".")[0] == "numpy"}, "numpy imported"
    assert not _kmgeom_importers(got[3], "dataclasses")
    eager = _nested_under(got[3], "kmgeom.cli")
    assert "kmgeom.modelfile" in eager  # the row of kmgeom.cli is there
    assert not {m for m in eager if m in ENGINE or m.split(".")[0] in ("numpy", "dataclasses")}
    assert _child("-m", "kmgeom.cli", *argv, cwd=tmp_path)[:3] == got[:3]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert _in_process(argv, capsys) == got[:3]


def test_cold_analyze_that_computes_imports_numpy(tmp_path):
    (tmp_path / "m.json").write_text(modelfile.dumps_entry(family_3d(1.0, 2.0)))
    code, out, err, modules = _child(*CLI, "analyze", "m.json", "--json", "-", cwd=tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out[out.index("\n{") + 1:])["nullity"]["class"] == "I"
    assert "numpy" in modules and "kmgeom.legendre" in modules
    assert not {"kmgeom.tower", "kmgeom.catalog"} & set(modules)
    assert not _kmgeom_importers(modules, "dataclasses")
    assert not ENGINE & _nested_under(modules, "kmgeom.cli")


@pytest.mark.parametrize("argv", [
    ["analyze", "m.json", "--sasakian", "--legendre3"],
    ["derive", "m.json", "--steps", "6"],
], ids=["constructions", "derive"])
def test_cold_tower_call_imports_no_dataclasses(tmp_path, argv):
    (tmp_path / "m.json").write_text(modelfile.dumps_entry(family_3d(1.0, 2.0)))
    code, _, err, modules = _child(*CLI, *argv, cwd=tmp_path)
    assert (code, err) == (0, "")
    assert not _kmgeom_importers(modules, "dataclasses")
    assert "kmgeom.tower" in modules and "kmgeom.catalog" not in modules


def test_bare_package_import_loads_no_numpy(tmp_path):
    code, _, err, modules = _child("-c", "import kmgeom", cwd=tmp_path)
    assert (code, err) == (0, "")
    assert "kmgeom" in modules and "numpy" not in modules


def test_a_lazy_name_gives_its_submodule_an_import_row(tmp_path):
    # the first access of a public name imports its submodule through the import that
    # -X importtime logs: kmgeom.legendre gets a row of its own, at the top level
    code, _, err, modules = _child("-c", "import kmgeom; kmgeom.classify_class", cwd=tmp_path)
    assert (code, err) == (0, "")
    assert modules.get("kmgeom.legendre") == []
    assert "kmgeom.contact" in _nested_under(modules, "kmgeom.legendre")


def test_public_names_are_their_submodules_objects():
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(kmgeom, name) is getattr(importlib.import_module(f"kmgeom.{module}"), name)


def test_star_import_and_dir_list_every_public_name():
    assert sorted(kmgeom.__all__) == NAMES
    assert set(NAMES) <= set(dir(kmgeom))
    namespace = {}
    exec("from kmgeom import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {n: getattr(kmgeom, n) for n in NAMES}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kmgeom.no_such_name  # noqa: B018
    assert not hasattr(kmgeom, "ModelFormatError")  # an errors name the package never exported
