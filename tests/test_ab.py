"""``tools/ab.py``, the interleaved in-process A/B timing of two source trees: one
sweep-3d cycle of the working tree against itself, in a child process, so that the
tool cannot rot.  Its figures are not gated."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab.py")


def test_one_sweep_cycle_of_the_working_tree_against_itself_passes():
    proc = subprocess.run([sys.executable, TOOL, "--workload", "sweep-3d", "--cycles", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("sweep-3d, seed 1: 1 cycles of 88 ops after 2 warm-up")
    pooled = {line.split()[0]: line.split()[1] for line in lines[-2:]}
    assert pooled == {"accepted": "64", "reject": "24"}  # one sample per op of the cycle
    assert "FAILED" not in proc.stdout
