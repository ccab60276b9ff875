"""``tools/equiv.py``, the output-equivalence check of the CLI: a small subset of its
call set, run against the working tree itself under a memo that never hits, so that
the tool cannot rot."""

import importlib.util
import json
import os
import subprocess

from kmgeom import contact
from kmgeom.catalog import family_3d

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "equiv.py")
spec = importlib.util.spec_from_file_location("equiv", TOOL)
equiv = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equiv)


def test_working_tree_is_identical_to_itself(tmp_path, capsys, monkeypatch):
    interpreters = []
    run = subprocess.run

    def counted(argv, *args, **kwargs):
        if argv[0] == equiv.sys.executable:
            interpreters.append(argv)
        return run(argv, *args, **kwargs)

    monkeypatch.setattr(equiv.subprocess, "run", counted)
    record = tmp_path / "record.txt"
    assert equiv.main(["--record", str(record)], keep=lambda name: "h5-" in name) == 0
    assert len(interpreters) == 3  # the one writer of the model files, then one per tree
    names = [f"{command}:h5-{kind}" for kind in ("contact", "paracontact")
             for command in ("analyze", "derive", "validate")]
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == [f"identical  {name}" for name in names]
    assert out[-1].startswith("6 calls against the working tree with a never-hit memo: 6 identical, 0 differ")
    digests = [line.split("  ") for line in record.read_text().splitlines()]
    assert [name for _, name in digests] == names
    assert all(len(digest) == 64 for digest, _ in digests)


def test_the_never_hit_worker_builds_every_structure_on_a_never_hit_store(tmp_path, monkeypatch):
    monkeypatch.setattr(contact.MetricStructure, "__init__", contact.MetricStructure.__init__)
    spec = tmp_path / "calls.json"
    spec.write_text(json.dumps([{"argv": ["catalog", "list"]}]))
    monkeypatch.chdir(tmp_path)
    assert equiv.worker(str(spec), str(tmp_path / "records.json"), never_hit=True) == 0
    store = family_3d(1.0, 2.0).structure._cache
    store["key"] = 1
    assert isinstance(store, equiv._NeverHit) and "key" not in store and store["key"] == 1


def test_first_difference_names_the_stream_and_its_byte_offset():
    record = {"exit": 0, "stdout": "café 1", "stderr": "", "files": {"out.json": "{}"}}
    assert equiv.first_difference(record, dict(record)) is None
    assert equiv.first_difference(record, {**record, "exit": "uncaught"}) == "exit 0 -> 'uncaught'"
    assert equiv.first_difference(record, {**record, "stdout": "café 2"}) == "stdout at byte 6"
    assert equiv.first_difference(record, {**record, "stderr": "error"}) == "stderr at byte 0"
    assert equiv.first_difference(record, {**record, "files": {}}) == "file out.json not written"


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
        assert out[-2] == line
        assert f"0 identical, 1 differ ({len(moves)} declared in {equiv.MOVES})" in out[-1]


def test_the_shipped_move_list_names_a_commit_and_its_moves():
    with open(os.path.join(equiv.ROOT, equiv.MOVES), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"parent", "moves"}
    assert len(doc["parent"]) == 40 and int(doc["parent"], 16) >= 0
    assert all(isinstance(reason, str) and reason for reason in doc["moves"].values())
