"""Host speed references: fixed units of work, timed beside the ops.

On a shared virtual machine the processor's speed drifts in regimes that
last seconds to minutes. On a 2-vCPU KVM guest, a pure-Python loop took
13 ms in one second and 20 ms a few seconds later, and its CPU time moved
with its wall time: the drift is not time stolen by other processes of the
guest but the host running the vCPU slower. Run-long medians cannot remove
a regime that lasts as long as the run.

So the benchmark times a reference unit beside the ops and reports every
timing at reference speed:

    reported = measured * reference / (time of the unit, measured beside it)

that is, the time the op would take on a host that runs the unit in the
reference time. Both units are independent of kmgeom, so a change to the
program cannot move them, and each resembles the work it scales:

  warm  (in-process ops) interpreted Python, many small numpy calls and
        contractions of a dim-21 structure tensor, on one thread. A BLAS
        call large enough to use OpenBLAS's threads ran 50 % slower right
        after a kmgeom op than a moment later, which would tie the scale to
        what ran just before the mark.
  cold  (fresh processes: cli-cold ops and every set-up sample) a fresh
        ``python -c "import numpy"``. Fresh-process times did not follow the
        warm unit (their ratio to it drifted 40 % over 20-s windows), but
        followed this one (a fresh ``import kmgeom.cli`` over it stayed
        within 5 % while the import alone drifted 18 %).

Raw wall times are kept in the result's detail line.
"""

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Time of each unit on the reference host, in ms (about its median on a
# 2-vCPU Xeon (Sapphire Rapids) KVM guest). Any fixed values would do; these
# keep reported figures close to the wall times seen there.
WARM_REF_MS = 4.5
COLD_REF_MS = 200.0

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((6, 6))
_VEC = _RNG.random(21)
_MAT = _RNG.random((21, 21))
_TENSOR = _RNG.random((21, 21, 21))


def warm_unit_ms():
    """Run the warm unit once in this process; its wall time in ms."""
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    b = _SMALL
    for _ in range(250):
        b = (_SMALL @ b) * 0.5
    w = _VEC
    for _ in range(40):
        w = np.einsum("i,j,ijk->k", w, _VEC, _TENSOR)
        w = _MAT @ w
        w = w / np.max(np.abs(w))
    return (perf_counter() - t0) * 1e3


def cold_unit_ms(env):
    """Run the cold unit once, a fresh interpreter importing numpy; its wall time in ms."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=True)
    return (perf_counter() - t0) * 1e3


class Meter:
    """Marks of one unit in time order, and the scale of what ran between them."""

    # Marks within this many seconds of a timed interval set its scale; the
    # host's speed regimes last seconds to minutes.
    WINDOW_S = 1.0
    LEAST = 3

    def __init__(self, unit, ref_ms, every_s):
        self.unit, self.ref_ms, self.every_s = unit, ref_ms, every_s
        self.marks = []  # (perf_counter at the mark, unit ms)
        self.last = None

    def mark(self):
        self.marks.append((perf_counter(), self.unit()))
        self.last = perf_counter()

    def mark_if_due(self):
        """Mark unless the last mark is less than every_s old."""
        if self.last is None or perf_counter() - self.last >= self.every_s:
            self.mark()

    def scale(self, t0, t1):
        """ref_ms over the median unit time of the marks within WINDOW_S of
        [t0, t1], or of the LEAST marks nearest to it if fewer lie there."""
        near = [ms for t, ms in self.marks if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        if len(near) < self.LEAST:
            mid = 0.5 * (t0 + t1)
            near = [ms for _, ms in sorted(self.marks, key=lambda m: abs(m[0] - mid))[:self.LEAST]]
        return self.ref_ms / statistics.median(near)

    def unit_times(self):
        return [ms for _, ms in self.marks]


def warm_meter():
    # The faster of two runs: the first may run on cold caches or catch an interrupt.
    return Meter(lambda: min(warm_unit_ms(), warm_unit_ms()), WARM_REF_MS, every_s=0.25)


def cold_meter(env):
    return Meter(lambda: cold_unit_ms(env), COLD_REF_MS, every_s=1.0)
