"""The reachability scan of ``tools/src_size.py``: it follows module-level
tables and the implicit dunders of a named class, and leaves the export table out."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_size.py")
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)


def test_unreachable_follows_tables_and_dunders():
    found = set(src_size.unreachable())
    # named only by contact._BUILDERS and catalog._ENTRIES
    assert not {"contact._fit_r_xi", "contact._connections", "catalog.nilpotent_h_5d"} & found
    # called by no name, but run when the class is built
    assert "contact.MetricStructure.__init__" not in found
    # exported by the package's __init__ only
    assert "legendre.psi_to_paracontact" in found


def test_unreachable_is_logged_after_the_sizes(capsys):
    assert src_size.main() == 0
    out = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(out) if line.startswith("not reached from cli.main"))
    assert out[head - 2].startswith("src/kmgeom") and out[head + 1:] == [
        f"  {qual}" for qual in src_size.unreachable()]
