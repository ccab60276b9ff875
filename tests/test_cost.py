"""``tools/cost.py``, the count meter of fixed CLI ops: its counts repeat exactly in a
second process, and one op's ``np.linalg`` counts are the ones its code path makes.
Its figures are not gated."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cost.py")


def _rows(stdout: str) -> dict:
    """{op: (exit, calls, np.linalg counts)} of the tool's table; the indented function
    rows under each op's row are skipped."""
    rows = {}
    for line in stdout.splitlines()[2:]:
        if line.startswith(" "):
            continue
        op, tree, code, calls, *linalg = line.split()
        assert tree == "head"
        rows[op] = (int(code), int(calls), " ".join(linalg))
    return rows


def test_two_processes_give_identical_counts():
    runs = [subprocess.run([sys.executable, TOOL], capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAILED" not in proc.stdout
    assert runs[0].stdout == runs[1].stdout
    rows = _rows(runs[0].stdout)
    assert len(rows) == int(runs[0].stdout.split()[0])
    assert all(calls > 0 for _, calls, _ in rows.values())
    # under each op's row, the three kmgeom functions of the op with the most calls
    functions = [line for line in runs[0].stdout.splitlines() if line.startswith(" ")]
    assert len(functions) == 3 * len(rows)
    # analyze of a 3-dim model whose brackets break the Jacobi identity stops after the
    # validation: the contact form's kernel basis of eta (one svd), and validate_contact's
    # rank test of d eta on that kernel (one svd) and signature of g (one eigvalsh)
    code, _, linalg = rows["reject-jacobi"]
    assert (code, linalg) == (1, "eigvalsh=1 svd=2")
