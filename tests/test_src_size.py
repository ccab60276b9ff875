"""The reachability scan of ``tools/src_size.py``: it follows module-level
tables and the implicit dunders of a named class, and leaves the export table out.
The names it lists are pinned, each with the reason no CLI path reaches it, so a
name added later fails here until it is declared."""

import ast
import importlib.util
import os
import re
import textwrap

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_size.py")
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)

# every function or method of src/kmgeom that no code path from cli.main or cli.run names
UNREACHABLE = {
    "catalog.d_homothetic": "a model transform for the tests; no command deforms a model",
    "catalog.rebased": "a model transform for the tests; no command changes the basis",
    "legendre.bilegendrian_connection": "library API: the bi-Legendrian connection of the h-eigenpair",
    "tower.step_checks": "library certificate of one tower step; no command runs it",
}


# the most code lines src/kmgeom may hold (the second figure of its total line): a
# change that adds a capability raises it in its own diff and says why in CHANGES.md
CODE_LINE_BUDGET = 1624


def _total_line(capsys) -> list[str]:
    """The figures of the src/kmgeom total line of ``tools/src_size.py``."""
    src_size.main()
    return next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("src/kmgeom")).split()


def test_code_lines_stay_within_the_budget(capsys):
    assert int(_total_line(capsys)[2]) <= CODE_LINE_BUDGET


def test_unreachable_is_the_declared_list():
    assert src_size.unreachable() == sorted(UNREACHABLE)


def test_unreachable_follows_tables_and_dunders():
    found = set(src_size.unreachable())
    # passed by name to the memo by their accessors, or named only by catalog._ENTRIES
    assert not {"contact._fit_r_xi", "contact._connections", "catalog.nilpotent_h_5d"} & found
    # called by no name, but run when the class is built
    assert "contact.MetricStructure.__init__" not in found
    # exported by the package's __init__ only
    assert "legendre.bilegendrian_connection" in found
    # the process entry is a root of the scan: cli.main does not call it
    assert "cli.run" not in found


def test_a_name_a_body_binds_itself_reaches_no_function_of_that_name(tmp_path):
    (tmp_path / "cli.py").write_text(textwrap.dedent("""
        def main(argv, param):
            for key, step in argv:
                step(key)
            value = helper()
            return [item for item in value] + [param, called()]

        def run():
            main([], None)

        def step(): ...
        def value(): ...
        def item(): ...
        def param(): ...
        def helper(): ...
        def called(): ...
        def never(): ...
    """))
    assert src_size.unreachable(str(tmp_path)) == [
        "cli.item", "cli.never", "cli.param", "cli.step", "cli.value"]


def test_unreachable_is_logged_after_the_sizes(capsys):
    assert src_size.main() == 0
    out = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(out) if line.startswith("not reached from cli.main"))
    assert out[head - 2].startswith("src/kmgeom") and out[head + 1:] == [
        f"  {qual}" for qual in src_size.unreachable()]


def test_total_line_counts_the_linalg_calls(capsys):
    """The fourth figure of the src/kmgeom total line is the number of calls whose callee
    is ``np.linalg.<function>`` (not a method of such a call's result), counted here on
    the syntax trees."""
    total = _total_line(capsys)
    calls = 0
    for name in os.listdir(src_size.SRC):
        if name.endswith(".py"):
            with open(os.path.join(src_size.SRC, name), encoding="utf-8") as fh:
                calls += sum(isinstance(node, ast.Call)
                             and re.fullmatch(r"np\.linalg\.\w+", ast.unparse(node.func)) is not None
                             for node in ast.walk(ast.parse(fh.read())))
    assert int(total[4]) == calls
