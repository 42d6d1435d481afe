"""Layer tracing from outside the library.

``Tracer.install`` wraps every public function of the qglattice modules
(each module's ``__all__``; ``main`` for the CLI) and patches the wrapper
into every ``qglattice`` module namespace that binds the original, so calls
made inside the library are caught too (``lattice.find_root``,
``star.find_root``, ``verify.band_structure`` ...).  A public name that a
later version of the library no longer has is simply not wrapped; its
metrics read zero.

Spans are kept in memory as (name, start, end, parent, task id) and written
out when the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array

MODULES = ("cli", "verify", "lattice", "star", "vertex", "numerics")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_task = array("l")
        self.stack: list[int] = []
        self.active = False
        self.task_id = -1
        self.evals = 0
        self.failed: dict[str, int] = {}
        self.bloch_points = 0
        self.sheet_roots = 0
        self.wrapped: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- switching ---------------------------------------------------------
    def begin(self, task_id: int) -> None:
        self.task_id = task_id
        self.active = True

    def end(self) -> None:
        self.active = False

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        mods = [importlib.import_module(f"qglattice.{m}") for m in MODULES]
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "qglattice" or name.startswith("qglattice."))]
        for short, mod in zip(MODULES, mods):
            for attr in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, attr, None)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                label = f"{short}.{attr}"
                wrapper = self._wrap(label, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, key, fn))
                            setattr(ns, key, wrapper)
                self.wrapped.append(label)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._restore):
            setattr(ns, key, fn)
        self._restore.clear()

    def _wrap(self, label: str, fn):
        name_id = self._name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        tracer = self
        clock = time.perf_counter
        counts_evals = label == "numerics.find_root"
        counts_sheets = label == "lattice.dispersion_sheets"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_task.append(tracer.task_id)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            if counts_evals and args:
                f = args[0]

                def counted(x):
                    tracer.evals += 1
                    return f(x)

                args = (counted,) + args[1:]
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[label] = tracer.failed.get(label, 0) + 1
                raise
            finally:
                tracer.span_end[idx] = clock()
                tracer.stack.pop()
            if counts_sheets:
                grid_n = kwargs.get("grid_n", args[1] if len(args) > 1 else 0)
                tracer.bloch_points += grid_n * grid_n
                tracer.sheet_roots += len(result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.span_end[i] - self.span_start[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,task\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]},{self.span_start[i]!r},"
                         f"{self.span_end[i]!r},{self.span_parent[i]},{self.span_task[i]}\n")
