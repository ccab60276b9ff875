"""``tools/accuracy.py``, the contract scan: its points and its run on the working tree,
in this process, so that the tool cannot rot.  On the scan's valid nullity spaces a
construction's error is its report row, so ``analyze`` exits non-zero only where the
Pang-checked class disagrees with the invariant class (ROADMAP item 13); and each tower
step reads its root from its own node, so ``derive`` exits 0 on every point with
e >= 1e-6."""

import importlib.util
import os
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "accuracy.py")
spec = importlib.util.spec_from_file_location("accuracy", TOOL)
accuracy = importlib.util.module_from_spec(spec)
spec.loader.exec_module(accuracy)


def test_the_points_are_252_and_outside_the_class_band():
    points = accuracy.points()
    assert len(points) == len(set(points)) == 252
    assert all(abs(abs(inv) - 1.0) > accuracy.TOL for _, _, inv, _ in points)


def test_analyze_ends_a_run_only_on_a_class_mismatch():
    caller = {name: module for name, module in sys.modules.items() if name.startswith("kmgeom")}
    classes, found = accuracy.scan()
    assert {name: module for name, module in sys.modules.items() if name.startswith("kmgeom")} == caller
    assert len(found) == len(classes) == 252 and set(classes) <= {"I", "II", "III", "IV"}
    for (_, e, _, _), cls, out in zip(accuracy.points(), classes, found):
        assert out["analyze"] == 0 or "disagrees with invariant-based" in out["error"]
        assert (out["derive"] == 3) == (cls == "IV")  # exit 3: the fit's class IV or V
        assert out["derive"] == 0 or e <= 1e-8  # away from the band every tower is built
    assert accuracy.summary(classes, found)[0].split()[-2:] == ["I/III", "rows"]
