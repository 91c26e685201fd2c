"""In-memory span tracer that wraps affinespde's public functions from outside.

A span is one call of a wrapped function: its name ("<module>.<function>"),
start, end and parent span.  Spans stay in memory and are reduced to
per-name totals when the command ends.  Nothing under ``src/`` is edited:
``install`` rebinds the module attributes, including every ``from x import f``
alias of the same function object in the other package modules.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc

# Functions whose tracemalloc peak is reported as <name>.peak_alloc_mb.
PEAK_SPANS = ("realization.solve_psi", "realization.reconstruct",
              "oracle.compare_paths")

# (module, which public functions): "*" wraps every public function the
# module defines, a tuple names them, a prefix string ending in "*" filters.
TARGETS = (
    ("cli", "run_*"),
    ("config", "*"),
    ("realization", "*"),
    ("levy", "*"),
    ("oracle", "*"),
    ("funalg", ("shift", "multiply", "differentiate")),
    ("hjmm", ("product_closure",)),
    ("operators", ("operator_matrix",)),
)


class Tracer:
    """peaks=True also measures PEAK_SPANS with tracemalloc, which slows the
    code inside them; timings are taken from passes with peaks=False."""

    def __init__(self, peaks: bool = False):
        self.peak_spans = PEAK_SPANS if peaks else ()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.peaks: dict[int, float] = {}
        # open peak spans: [span index, bytes at entry, max bytes seen]
        self._peak_stack: list[list] = []

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        if name in self.peak_spans:
            self._enter_peak(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()
        if self._peak_stack and self._peak_stack[-1][0] == idx:
            self._exit_peak()

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    # tracemalloc runs only while a peak span is open, so the symbolic
    # algebra elsewhere is not slowed by allocation tracing.
    def _enter_peak(self, idx: int) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            outer = self._peak_stack[-1]
            outer[2] = max(outer[2], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([idx, cur, cur])

    def _exit_peak(self) -> None:
        idx, base, top = self._peak_stack.pop()
        _cur, peak = tracemalloc.get_traced_memory()
        top = max(top, peak)
        self.peaks[idx] = (top - base) / 2 ** 20
        if self._peak_stack:
            outer = self._peak_stack[-1]
            outer[2] = max(outer[2], top)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()

    def summary(self) -> dict:
        """Per-name calls, total time (outermost calls only), self time and
        largest peak allocation, plus the counters and the root-span time."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        per: dict[str, dict] = {}
        roots = 0.0
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            rec = per.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[i]
            p = self.parents[i]
            nested = False
            while p >= 0:
                if self.names[p] == name:
                    nested = True
                    break
                p = self.parents[p]
            if not nested:
                rec["total_s"] += dur
            if self.parents[i] < 0:
                roots += dur
            if i in self.peaks:
                rec["peak_alloc_mb"] = max(rec.get("peak_alloc_mb", 0.0),
                                           self.peaks[i])
        return {"spans": per, "counters": dict(self.counters),
                "root_s": roots, "n_spans": n}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _hooks(tracer: Tracer) -> dict:
    """Exact counters taken from a wrapped call's arguments and result."""

    def write_grid_path(args, kwargs, out):
        file = _arg(args, kwargs, 1, "file")
        if isinstance(file, str):
            tracer.count("oracle.write_grid_path.bytes", os.path.getsize(file))

    def grid_cells(args, kwargs, out):
        values = out.values if hasattr(out, "values") else out
        tracer.count("oracle.grid_cells", values.size)

    def invariant_span(args, kwargs, out):
        tracer.count("realization.invariant_span.dim", out.basis.dim)

    def ensemble(args, kwargs, out):
        tracer.count("levy.paths", len(_arg(args, kwargs, 3, "seeds")))

    def one_path(args, kwargs, out):
        if not tracer.inside("levy.sample_increment_ensemble"):
            tracer.count("levy.paths", 1)

    return {
        "oracle.write_grid_path": write_grid_path,
        "oracle.solve_spde_grid": grid_cells,
        "oracle.solve_spde_modal": grid_cells,
        "realization.invariant_span": invariant_span,
        "levy.sample_increment_ensemble": ensemble,
        "levy.sample_increments": one_path,
    }


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if hook is not None:
            hook(args, kwargs, out)
        return out

    return traced


def _selected(module, which) -> list[str]:
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        if isinstance(which, tuple):
            keep = attr in which
        else:
            keep = attr.startswith(which[:-1])
        if keep:
            out.append(attr)
    return out


def install(tracer: Tracer) -> None:
    """Wrap the TARGETS functions of the imported affinespde package.  Every
    module attribute bound to a wrapped function object is rebound, so calls
    through aliases are traced too."""
    hooks = _hooks(tracer)
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and k.split(".")[0] == "affinespde"]
    replaced: dict[int, object] = {}
    for short, which in TARGETS:
        module = sys.modules[f"affinespde.{short}"]
        for attr in _selected(module, which):
            fn = getattr(module, attr)
            name = f"{short}.{attr}"
            replaced[id(fn)] = _wrap(tracer, name, fn, hooks.get(name))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
