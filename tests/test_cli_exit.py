"""The process entry ``kmgeom.cli.run`` (``python -m kmgeom.cli`` and the ``kmgeom``
script) and the in-process API ``kmgeom.cli.main``.

A child ``python -m kmgeom.cli`` ends with ``os._exit`` once its output is written,
and each call below gives what an in-process ``main`` gives: the exit code, stdout,
stderr and the bytes of each file written.  The exit path itself: the ``atexit``
handlers run (a ``weakref.finalize`` left at its default ``atexit=True`` is one of
them) and the interpreter's teardown does not; a stdout that is gone before the
final flush ends the process as the interpreter's own exit does.  The children run
with buffered output (``PYTHONUNBUFFERED`` unset), as a shell runs them.
"""

import os
import subprocess
import sys

import pytest

import kmgeom
from kmgeom import cli, modelfile
from kmgeom.catalog import family_3d, get_entry

SRC = os.path.dirname(os.path.dirname(kmgeom.__file__))


def _child(args, cwd):
    """(exit code, stdout, stderr) of ``python *args`` in ``cwd``, ``src`` on its path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), COLUMNS="80")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _taken(tmp_path, files):
    """The bytes of each of ``files`` under ``tmp_path`` (None if absent), then removed."""
    found = {}
    for name in files:
        path = tmp_path / name
        found[name] = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
    return found


@pytest.fixture
def inputs(tmp_path):
    for name, entry in (("class-I", family_3d(1.0, 2.0)), ("class-IV", family_3d(1.0, 1.0)),
                        ("broken", get_entry("broken-jacobi-3d"))):
        (tmp_path / f"{name}.json").write_text(modelfile.dumps_entry(entry))
    (tmp_path / "malformed.json").write_text('{"dim": 3, "brackets": [')
    (tmp_path / "batch").mkdir()
    (tmp_path / "batch" / "a.json").write_text((tmp_path / "class-I.json").read_text())
    (tmp_path / "batch" / "b.json").write_text('{"dim": 3, "brackets": [')
    return tmp_path


@pytest.mark.parametrize("argv, code, files", [
    (["analyze", "class-I.json", "--sasakian", "--legendre3", "--json", "out.json"], 0, ["out.json"]),
    (["derive", "class-IV.json", "--steps", "6"], 3, []),
    (["analyze", "broken.json"], 1, []),
    (["analyze", "malformed.json"], 2, []),
    (["derive", "class-I.json", "--steps", "4", "--json", "-"], 0, []),
    (["catalog", "emit", "family-3d", "--lam", "1", "--d", "2", "--out", "emitted.json"], 0,
     ["emitted.json"]),
    (["analyze", "--batch", "batch"], 2, []),
], ids=["class-I-json-file", "class-IV-derive", "broken-jacobi", "malformed", "json-stdout",
        "catalog-emit-out", "batch"])
def test_a_child_process_gives_what_main_gives(inputs, capsys, monkeypatch, argv, code, files):
    child = _child(["-m", "kmgeom.cli", *argv], inputs)
    child_files = _taken(inputs, files)
    monkeypatch.chdir(inputs)
    monkeypatch.setenv("COLUMNS", "80")
    got = cli.main(argv)
    captured = capsys.readouterr()
    assert child == (got, captured.out, captured.err)
    assert child_files == _taken(inputs, files)
    assert got == code and all(child_files.values())


# the child's ending: the parent commit's entry, or run()
END = {"interpreter": "sys.exit(cli.main())", "run": "cli.run()"}

EXIT_HOOKS = """
import atexit, sys, weakref
from kmgeom import cli

class Held:
    def __del__(self):  # called by the interpreter's teardown
        print("teardown", file=sys.stderr)

held = Held()
weakref.finalize(held, print, "finalizer", file=sys.stderr)  # an atexit handler of weakref's
atexit.register(print, "handler")  # to stdout, which is flushed after the handlers
sys.argv[1:] = ["catalog", "list"]
"""


def test_run_runs_the_exit_handlers_and_skips_the_teardown(tmp_path):
    normal = _child(["-c", EXIT_HOOKS + END["interpreter"]], tmp_path)
    ended = _child(["-c", EXIT_HOOKS + END["run"]], tmp_path)
    assert normal[1].endswith("\nhandler\n") and normal[2] == "finalizer\nteardown\n"
    assert ended == (0, normal[1], "finalizer\n")


# a stdout that is gone before the final flush: a pipe whose reader has closed, a closed
# file descriptor, no stream at all
GONE = {
    "closed-pipe": "read, write = os.pipe(); os.dup2(write, 1); os.close(read); os.close(write)",
    "closed-fd": "os.close(1)",
    "no-stream": "sys.stdout = None",
}


@pytest.mark.parametrize("gone", GONE)
def test_a_stdout_gone_before_the_flush_ends_as_the_interpreter_ends(tmp_path, gone):
    prelude = f"import os, sys\nfrom kmgeom import cli\nsys.argv[1:] = ['catalog', 'list']\n{GONE[gone]}\n"
    normal = _child(["-c", prelude + END["interpreter"]], tmp_path)
    ended = _child(["-c", prelude + END["run"]], tmp_path)
    assert ended == normal
    assert normal[0] == (0 if gone == "no-stream" else 120)


def test_a_usage_error_and_an_uncaught_exception_take_the_interpreters_exit(tmp_path):
    usage = _child(["-m", "kmgeom.cli", "derive", "m.json"], tmp_path)
    assert usage[0] == 2 and usage[2].endswith("error: the following arguments are required: --steps\n")
    crash = "import sys\nfrom kmgeom import cli\ncli.main = lambda: 1 / 0\n"
    for end in END.values():  # the tracebacks differ by run's own frame
        code, out, err = _child(["-c", crash + end], tmp_path)
        assert (code, out) == (1, "") and err.endswith("ZeroDivisionError: division by zero\n")
