"""``tools/equiv.py``, the output-equivalence check of the CLI: a small subset of its
call set, run against the working tree itself under a memo that never hits, in this
process, so that the tool cannot rot; and its move classifier on hand-written record
pairs."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kmgeom.catalog import family_3d

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "equiv.py")
spec = importlib.util.spec_from_file_location("equiv", TOOL)
equiv = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equiv)


def test_working_tree_is_identical_to_itself(capsys, monkeypatch):
    started, stores = [], []
    popen, run_call = subprocess.Popen, equiv.run_call

    def counted(argv, *args, **kwargs):
        started.append(argv)
        return popen(argv, *args, **kwargs)

    def run_call_of_a_tree(cli, call):
        assert cli is sys.modules["kmgeom.cli"] and os.environ["COLUMNS"] == "80"
        stores.append(type(sys.modules["kmgeom.catalog"].family_3d(1.0, 2.0).structure._cache))
        return run_call(cli, call)

    monkeypatch.setattr(subprocess, "Popen", counted)
    monkeypatch.setattr(equiv, "run_call", run_call_of_a_tree)
    caller = {name: module for name, module in sys.modules.items() if name.startswith("kmgeom")}
    cwd, environ = os.getcwd(), dict(os.environ)
    assert equiv.main([], keep=lambda name: "h5-" in name) == 0
    assert started == []  # no child interpreter: both trees ran in this process
    assert {name: module for name, module in sys.modules.items() if name.startswith("kmgeom")} == caller
    assert (os.getcwd(), dict(os.environ)) == (cwd, environ)
    # the base runs on the memo as it is; the never-hit store is the head copy's alone
    assert stores == [dict] * 6 + [equiv._NeverHit] * 6
    assert type(family_3d(1.0, 2.0).structure._cache) is dict
    names = [f"{command}:h5-{kind}" for kind in ("contact", "paracontact")
             for command in ("analyze", "derive", "validate")]
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == [f"identical  {name}" for name in names]
    assert out[-1].startswith("6 calls against the working tree with a never-hit memo: 6 identical, 0 differ")


def test_the_never_hit_run_builds_every_structure_on_a_never_hit_store(tmp_path):
    with equiv.kept_caller_state():
        equiv.run_tree(os.path.join(equiv.ROOT, "src"), str(tmp_path), [{"argv": ["catalog", "list"]}],
                       never_hit=True)
        store = sys.modules["kmgeom.catalog"].family_3d(1.0, 2.0).structure._cache
    store["key"] = 1
    assert isinstance(store, equiv._NeverHit) and "key" not in store and store["key"] == 1
    assert type(family_3d(1.0, 2.0).structure._cache) is dict  # the caller's copy is as it was


def test_a_tree_that_changes_the_shared_state_fails_the_run(capsys, monkeypatch):
    run_call = equiv.run_call

    def careless(cli, call):
        np.set_printoptions(precision=3)
        return run_call(cli, call)

    monkeypatch.setattr(equiv, "run_call", careless)
    with np.printoptions():  # gives the caller's print options back
        assert equiv.main([], keep=lambda name: name == "edge-catalog:list") == 1
    assert capsys.readouterr().out.splitlines() == ["the base tree changed numpy's print options"]


def test_first_difference_names_the_stream_and_its_byte_offset():
    record = {"exit": 0, "stdout": "café 1", "stderr": "", "files": {"out.json": "{}"}}
    assert equiv.first_difference(record, dict(record)) is None
    assert equiv.first_difference(record, {**record, "exit": "uncaught"}) == "exit 0 -> 'uncaught'"
    assert equiv.first_difference(record, {**record, "stdout": "café 2"}) == "stdout at byte 6"
    assert equiv.first_difference(record, {**record, "stderr": "error"}) == "stderr at byte 0"
    assert equiv.first_difference(record, {**record, "files": {}}) == "file out.json not written"


# a report as analyze --json - writes it: human text, then the JSON document
REPORT = {"nullity": {"class": "I", "kappa": 0.5, "mu_indeterminate": False, "residual": 4e-16},
          "tower": [{"kappa": 2.0, "fit_residual": 1e-15}]}
TEXT = "nullity: kappa = +0.5, mu = -2 (residual 4.441e-16), I_M = +2, class I\n  eta_xi    0.000e+00\n"


def _record(report=REPORT, text=TEXT, code=0, stderr="", written=REPORT):
    """A record whose stdout holds ``text`` and ``report``, and whose out.json holds
    ``written`` (None: not written)."""
    return {"exit": code, "stdout": text + json.dumps(report, indent=1) + "\n", "stderr": stderr,
            "files": {} if written is None else {"out.json": json.dumps(written)}}


def _moved(**changes):
    """REPORT with the entries at the paths "a__b" (a list index as digits) set anew."""
    report = json.loads(json.dumps(REPORT))
    for path, value in changes.items():
        *keys, last = [int(k) if k.isdigit() else k for k in path.split("__")]
        node = report
        for key in keys:
            node = node[key]
        node[last] = value
    return report


@pytest.mark.parametrize("head, expected", [
    (_record(_moved(nullity__mu_indeterminate=True)),
     ("verdict", "stdout $.nullity.mu_indeterminate (False -> True)")),
    (_record(_moved(nullity__error="not_nullity")), ("verdict", "stdout $.nullity.error (added)")),
    (_record(_moved(tower__0__kappa=float("nan"))), ("verdict", "stdout $.tower[0].kappa (2.0 -> nan)")),
    (_record(_moved(nullity__class="II")), ("verdict", "stdout $.nullity.class ('I' -> 'II')")),
    (_record(code=1), ("verdict", "exit 0 -> 1")),
    (_record(stderr="error: x\n"), ("verdict", "stderr")),
    (_record(text=TEXT.replace("eta_xi", "eta_xi_")),
     ("verdict", "stdout line 2 ('  eta_xi    0.000e+00' -> '  eta_xi_    0.000e+00')")),
    (_record(_moved(tower__0__kappa=np.nextafter(2.0, 3.0))),
     ("digits", "largest 2.2e-16 at stdout $.tower[0].kappa")),
    (_record(_moved(nullity__residual=6e-16, tower__0__fit_residual=3e-15)),
     ("digits", "residuals 0.67 at stdout $.tower[0].fit_residual")),
    (_record(text=TEXT.replace("+0.5", "+0.5000001").replace("0.000e+00", "1.000e-16")),
     ("digits", "largest 2e-07 at stdout line 1 'nullity: kappa'; residuals 1 at stdout line 2 'eta_xi'")),
    (_record(written=_moved(nullity__kappa=None)),
     ("verdict", "file out.json $.nullity.kappa (0.5 -> None)")),
    (_record(written=None), ("verdict", "file out.json")),
    (_record(), ("digits", "no value moved")),
])
def test_classify_sorts_a_move_into_verdict_or_digits(head, expected):
    assert equiv.classify(_record(), head) == expected


def test_call_names_are_unique():
    calls = equiv.call_set(["models/a.json", "models/b.json"], ["heisenberg-3d", "family-3d"])
    assert len({call["name"] for call in calls}) == len(calls)


def test_declared_moves_hold_against_their_parent_alone(tmp_path, monkeypatch, capsys):
    def git(*args):
        config = ["-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"]
        return subprocess.run(["git", "-C", str(tmp_path), *config, *args], capture_output=True,
                              text=True, check=True, timeout=60).stdout.strip()

    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "parent")
    moves = tmp_path / "moves.json"
    moves.write_text(json.dumps({"parent": git("rev-parse", "HEAD"), "moves": {"call": "why"}}))
    monkeypatch.setattr(equiv, "ROOT", str(tmp_path))
    assert equiv.allowed_moves(str(moves), "HEAD") == {"call": "why"}
    git("commit", "-q", "--allow-empty", "-m", "child")
    assert equiv.allowed_moves(str(moves), "HEAD~1") == {"call": "why"}
    capsys.readouterr()
    assert equiv.allowed_moves(str(moves), "HEAD") == {}  # a stale list allows nothing
    assert capsys.readouterr().out.endswith("not HEAD: none allowed\n")


def test_only_a_declared_move_passes_the_gate(monkeypatch, capsys):
    name = "analyze:h5-contact"
    monkeypatch.setattr(equiv, "extract", lambda rev, dest: os.path.join(equiv.ROOT, "src"))
    monkeypatch.setattr(equiv, "first_difference", lambda base, head: "stdout at byte 0")
    for moves, code, line in (({}, 1, f"DIFFERS  {name}: stdout at byte 0"),
                              ({name: "why"}, 0, f"MOVED  {name}: stdout at byte 0 (why)")):
        def allowed_moves(path, rev):
            assert (path, rev) == (equiv.MOVES, "REV")
            return moves

        monkeypatch.setattr(equiv, "allowed_moves", allowed_moves)
        assert equiv.main(["--against", "REV"], keep=lambda call: call == name) == code
        out = capsys.readouterr().out.splitlines()
        assert out[-3:-1] == [line, "    digits: no value moved"]  # the records are the same
        assert f"0 identical, 1 differ ({len(moves)} declared in {equiv.MOVES})" in out[-1]


def test_the_shipped_move_list_names_a_commit_and_its_moves():
    with open(os.path.join(equiv.ROOT, equiv.MOVES), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"parent", "moves"}
    assert len(doc["parent"]) == 40 and int(doc["parent"], 16) >= 0
    assert all(isinstance(reason, str) and reason for reason in doc["moves"].values())
