"""The one memo (``contact._each``, with ``MetricStructure.cached`` its stack-of-one
case) keeps every array of every entry read-only, directly or inside a tuple or
record, on every structure that a CLI run builds; a report it keeps is read-only too,
so that no caller's write reaches a later call.  And the memo never changes a CLI
output: a store that never hits, so that every entry is rebuilt on every call, gives
the same bytes (the store and its patch are those of ``tools/equiv.py``)."""

import ast
import importlib.util
import io
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from kmgeom import DEFAULT_TOL, cli, contact, modelfile
from kmgeom.catalog import family_3d, heisenberg, nilpotent_h_5d
from kmgeom.errors import GeometryError, NotNullity
from kmgeom.tower import sequence

from conftest import CLASS_PARAMS

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "equiv.py")
spec = importlib.util.spec_from_file_location("equiv", TOOL)
equiv = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equiv)


def _arrays(value) -> list:
    """Every array that ``value`` holds, directly or inside a tuple or record, and the
    array that each view looks into (a view of a writeable base can be made writeable)."""
    if isinstance(value, np.ndarray):
        return [value, *_arrays(value.base)]
    if isinstance(value, tuple):
        return [arr for item in value for arr in _arrays(item)]
    return []


def _name(key) -> str:
    """The name of a memo key: the key itself, or the first item of a tuple key."""
    return key if isinstance(key, str) else key[0]


def _run_cli(tmp_path, capsys, entry, argv) -> None:
    """``argv`` on the model file of ``entry``, which must exit 0."""
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(entry))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()


# a fixed CLI op set: (entry, argv, the keys its structures keep, among others)
CLI_OPS = {
    "class-I-analyze": (
        family_3d(1.0, 2.0), ["analyze", "--sasakian", "--legendre3"],
        {"levi_civita", "nullity", "nabla_phi", "nijenhuis_norm", "eigendistributions", "next",
         "node"}),
    "class-II-derive": (
        family_3d(1.0, 0.5), ["derive", "--steps", "6"],
        {"levi_civita", "nullity", "nijenhuis_norm", "eigendistributions", "next", "node"}),
    "nilpotent-h-5d-analyze": (
        nilpotent_h_5d(), ["analyze"],
        {"levi_civita", "nullity", "nabla_phi", "canonical_connection",
         "integrability_and_parasasaki"}),
}


def _recorded(monkeypatch) -> list:
    """The list that each structure built from here on joins."""
    built = []
    init = contact.MetricStructure.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(contact.MetricStructure, "__init__", recording_init)
    return built


@pytest.mark.parametrize("entry, argv, keys", CLI_OPS.values(), ids=CLI_OPS)
def test_every_kept_array_is_read_only(tmp_path, capsys, monkeypatch, entry, argv, keys):
    built = _recorded(monkeypatch)
    _run_cli(tmp_path, capsys, entry, argv)
    entries = [(key, value) for s in built for key, value in s._cache.items()]
    assert keys <= {_name(key) for key, _ in entries}
    kept = [arr for _, value in entries for arr in _arrays(value)]
    assert kept and not [arr for arr in kept if arr.flags.writeable]


def test_every_kept_entry_is_read_back_somewhere_in_the_op_set(tmp_path, capsys, monkeypatch):
    """Over the op set, each key the memo writes into a store is found there again by a
    later read (the memo's ``in`` test on a member that holds it): a kept entry that no
    call reads back is built and held for nothing."""
    kept, read = set(), set()

    class Traffic(dict):
        def __contains__(self, key):
            found = dict.__contains__(self, key)
            if found:
                read.add(_name(key))
            return found

        def __setitem__(self, key, value):
            kept.add(_name(key))
            dict.__setitem__(self, key, value)

    init = contact.MetricStructure.__init__

    def traffic_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._cache = Traffic()

    monkeypatch.setattr(contact.MetricStructure, "__init__", traffic_init)
    for entry, argv, _ in CLI_OPS.values():
        _run_cli(tmp_path, capsys, entry, argv)
    assert kept >= {key for _, _, keys in CLI_OPS.values() for key in keys}
    assert kept - read == set()


def test_a_failed_precondition_is_not_kept(tmp_path, capsys, monkeypatch):
    # on the Sasakian H_5 the class row, --sasakian and --legendre3 each stop at the
    # non-Sasakian guard, which runs before the memo: the structure keeps only what was built
    entry = heisenberg(5)
    built = _recorded(monkeypatch)
    _run_cli(tmp_path, capsys, entry, ["analyze", "--sasakian", "--legendre3"])
    s, = built
    assert s._cache and not [key for key, value in s._cache.items() if isinstance(value, GeometryError)]


def test_the_first_raise_of_a_kept_error_carries_the_builders_frames():
    # the memo keeps a copy without frames; the first caller gets the error as raised
    s = family_3d(1.0, 2.0).structure

    def build():
        raise NotNullity("no nullity condition", 0.5)

    with pytest.raises(NotNullity) as first:
        s.cached("kept-error", build)
    assert "build" in [frame.name for frame in traceback.extract_tb(first.value.__traceback__)]
    with pytest.raises(NotNullity) as later:
        s.cached("kept-error", build)
    assert "build" not in [frame.name for frame in traceback.extract_tb(later.value.__traceback__)]


def test_an_error_raised_by_a_stacked_build_is_kept_on_every_member_that_lacked_it():
    # each member that lacked the entry keeps a frameless copy; a member that had it keeps
    # its own value, and a later call runs no build
    s = family_3d(1.0, 2.0).structure
    t, u, v = (contact.ContactMetricStructure(s.form, s.phi, s.g) for _ in range(3))
    contact._each([v], "kept-error", lambda missing: ["kept"] * len(missing))
    builds = []

    def build(missing):
        builds.append(missing)
        raise NotNullity("no nullity condition", 0.5)

    with pytest.raises(NotNullity) as first:
        contact._each([t, u, v], "kept-error", build)
    assert builds == [[t, u]]
    kept = [t._cache["kept-error"], u._cache["kept-error"]]
    assert all(isinstance(err, NotNullity) and err is not first.value for err in kept)
    assert [err.args for err in kept] == [first.value.args] * 2
    assert all(err.__traceback__ is None for err in kept) and v._cache["kept-error"] == "kept"
    assert contact._each([t, u, v], "kept-error", build) == [*kept, "kept"]
    with pytest.raises(NotNullity) as later:
        t.cached("kept-error", lambda: builds.append("again"))
    assert builds == [[t, u]] and later.value.residual == 0.5


def test_only_the_memo_and_the_constructor_touch_the_store():
    # MetricStructure.__init__ creates _cache; contact._each alone reads and writes it
    src = os.path.dirname(contact.__file__)
    users = set()
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        mod = name[:-3]
        defs = [(f"{mod}.{n.name}", n) for n in tree.body if isinstance(n, ast.FunctionDef)]
        defs += [(f"{mod}.{c.name}.{m.name}", m) for c in tree.body if isinstance(c, ast.ClassDef)
                 for m in c.body if isinstance(m, ast.FunctionDef)]
        users |= {next((qual for qual, d in defs if d.lineno <= n.lineno <= d.end_lineno), mod)
                  for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_cache"}
    assert users == {"contact.MetricStructure.__init__", "contact._each"}


def test_a_node_report_written_by_a_caller_does_not_reach_a_later_tower():
    # each node's report is its own copy of the kept verification, with the predicted entries
    s = family_3d(1.0, 2.0).structure
    first = sequence(s, 3)
    first[1].checks.add("note", 1.0)
    second = sequence(s, 3)
    assert "note" not in second[1].checks.entries and second[1].checks.valid
    assert second[1].checks is not first[1].checks


def test_the_tower_writes_nothing_into_the_kept_verification():
    s = family_3d(1.0, 2.0).structure
    nodes = sequence(s, 3)
    kept = nodes[1].structure._cache[("node", DEFAULT_TOL)]
    assert "predicted_kappa_delta" in nodes[1].checks.entries
    assert not {"predicted_kappa_delta", "predicted_mu_delta"} & set(kept.entries)
    with pytest.raises(TypeError):
        kept.add("note", 1.0)


def test_a_kept_report_is_read_only():
    s = heisenberg(5, "paracontact").structure
    _, report, _ = contact.canonical_connection(s)
    with pytest.raises(TypeError):
        report.add("x", 5.0)
    with pytest.raises(TypeError):
        report.notes["x"] = "note"
    assert "x" not in contact.canonical_connection(s)[1].entries and report.valid
    _, side = contact.nijenhuis_norm(family_3d(1.0, 2.0).structure)
    with pytest.raises(TypeError):
        side.add("x", 5.0)
    with pytest.raises(TypeError):
        contact.integrability_and_parasasaki(s)["integrable"] = False


def _outputs(calls: list) -> list:
    """(exit code, stdout, stderr) of each CLI call."""
    outputs = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def test_the_memo_never_changes_a_cli_output(tmp_path, monkeypatch):
    calls = []
    entries = {**{f"class-{tag}": family_3d(*p) for tag, p in CLASS_PARAMS.items()},
               **{f"h5-{kind}": heisenberg(5, kind) for kind in ("contact", "paracontact")}}
    for name, entry in entries.items():
        path = str(tmp_path / f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(modelfile.dumps_entry(entry))
        calls.append(["analyze", path, "--sasakian", "--legendre3", "--json", "-"])
        if name.startswith("class-"):
            calls.append(["derive", path, "--steps", "7", "--json", "-"])
    kept = _outputs(calls)
    equiv.patch_never_hit(monkeypatch.setattr)
    assert _outputs(calls) == kept
    assert [code for code, _, _ in kept] == [0] * 7 + [3, 0, 3, 0, 0]  # IV and V: no node 2
