"""Per-layer tracing of kmgeom from outside the package.

``Tracer.install`` rebinds every public function of every kmgeom module, in
every module that binds it (``levi_civita`` lives in ``riemann`` but is also
bound in ``contact`` and ``paracontact``), to one timing wrapper per function.
Spans nest on a stack: a span's self time is its duration minus the time of
the child spans inside it. Nothing under ``src/`` changes; ``uninstall``
restores the original bindings.

Span names are ``<layer>.<function>``, the layer being the defining module.
"""

import functools
import hashlib
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LEVI_CIVITA = "riemann.levi_civita"


def import_all():
    """Import every kmgeom module, so functions bound anywhere get wrapped."""
    import kmgeom

    for info in pkgutil.iter_modules(kmgeom.__path__):
        importlib.import_module(f"kmgeom.{info.name}")
    return sorted(name for name in sys.modules if name == "kmgeom" or name.startswith("kmgeom."))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.lc_repeats = 0
        self.wrapped = set()  # span names that exist in the program
        self._stack = []  # child time accumulated per open span
        self._solved = set()  # (c, g) digests solved in the current op
        self._bindings = None  # (module, name, original, wrapper), found on first install

    # -------------------------------------------------------------- binding

    def install(self):
        if self._bindings is None:
            self._bindings, wrappers = [], {}
            for modname in import_all():
                module = sys.modules[modname]
                for name, obj in vars(module).items():
                    if name.startswith("_") or not inspect.isfunction(obj):
                        continue
                    if not (obj.__module__ or "").startswith("kmgeom"):
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._bindings.append((module, name, obj, wrappers[obj]))
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original, _ in self._bindings or ():
            setattr(module, name, original)

    def _wrap(self, fn):
        span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self.wrapped.add(span)
        stack, calls, self_s, raised = self._stack, self.calls, self.self_s, self.raised
        is_lc = span == LEVI_CIVITA

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_lc:
                self._note_solve(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[span] += 1
                raise
            finally:
                dt = perf_counter() - t0
                self_s[span] += dt - stack.pop()
                calls[span] += 1
                if stack:
                    stack[-1] += dt

        return traced

    def _note_solve(self, args, kwargs):
        m = args[0] if args else kwargs.get("m")
        g = args[1] if len(args) > 1 else kwargs.get("g")
        try:
            key = hashlib.sha1(m.c.tobytes() + np.ascontiguousarray(g, dtype=float).tobytes()).digest()
        except (AttributeError, TypeError, ValueError):
            return
        if key in self._solved:
            self.lc_repeats += 1
        self._solved.add(key)

    # ------------------------------------------------------------- op scope

    def new_op(self):
        """Start a new op: repeats of a (c, g) solve count only within one op."""
        self._solved.clear()

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "raised": dict(self.raised),
            "lc_repeats": self.lc_repeats,
            "wrapped": sorted(self.wrapped),
        }


def merge(total, snap):
    """Add one snapshot (possibly from another process) into ``total``."""
    for key in ("calls", "self_s", "raised"):
        bucket = total.setdefault(key, {})
        for name, val in snap[key].items():
            bucket[name] = bucket.get(name, 0) + val
    total["lc_repeats"] = total.get("lc_repeats", 0) + snap["lc_repeats"]
    total["wrapped"] = sorted(set(total.get("wrapped", [])) | set(snap["wrapped"]))
    return total
