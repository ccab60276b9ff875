"""``tools/equiv.py``, the output-equivalence check of the CLI: a small subset of its
call set, run against the working tree itself, so that the tool cannot rot."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "equiv.py")
spec = importlib.util.spec_from_file_location("equiv", TOOL)
equiv = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equiv)


def test_working_tree_is_identical_to_itself(tmp_path, capsys):
    record = tmp_path / "record.txt"
    assert equiv.main(["--record", str(record)], keep=lambda name: "h5-" in name) == 0
    names = [f"{command}:h5-{kind}" for kind in ("contact", "paracontact")
             for command in ("analyze", "derive", "validate")]
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == [f"identical  {name}" for name in names]
    assert out[-1].startswith("6 calls against the working tree: 6 identical, 0 differ")
    digests = [line.split("  ") for line in record.read_text().splitlines()]
    assert [name for _, name in digests] == names
    assert all(len(digest) == 64 for digest, _ in digests)


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

