"""In-memory call tracing of kerrdeco's public functions, installed from outside.

The tracer wraps each function named in ``TRACED`` and rebinds the wrapper
under every name that refers to the original in the ``kerrdeco`` package and
its modules, so ``cli.propagate``, ``analytics.propagate`` and
``evolution.propagate`` are all traced. ``DensityMatrix2Q`` validation is
traced by replacing the class's ``__post_init__``. ``rj_factor`` is called
about 36 times per ``propagate`` call, so it is only counted, not timed.

Each span is kept in flat arrays (name id, start, end, parent index) and
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer (kerrdeco module) -> functions whose calls are timed as spans
TRACED = {
    "evolution": ("propagate", "trajectory", "closed_form_rho", "integrate_master_grid"),
    "states": ("DensityMatrix2Q", "initial_density", "random_density_matrix"),
    "measures": ("concurrence", "negativity", "eof", "log_negativity"),
    "linalg": ("nonneg_spectrum_of_product", "hermitian_eigenvalues",
               "partial_transpose_first", "trace_distance"),
    "analytics": ("numeric_envelope", "check_ordering_inequalities"),
    "cli": ("run_figure", "run_simulate", "run_sweep", "load_scenario"),
    "verify": ("run_checks",),
}
# functions whose calls are counted without a span
COUNTED = {"evolution": ("rj_factor",)}
# classes traced through their validating __post_init__
_CLASSES = {("states", "DensityMatrix2Q")}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
COUNT_NAMES = tuple(f"{mod}.{fn}" for mod, fns in COUNTED.items() for fn in fns)


class Tracer:
    """Spans and call counts of the traced functions, kept in memory."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """Record one span around the body, e.g. a whole benchmark job."""
        idx = self._open(self.name_index(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn):
        name_id = self.name_index(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opened(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def mark(self) -> tuple:
        """Position to pass to ``summary`` later: span index and counts so far."""
        return len(self.start), dict(self.counts)

    def summary(self, since: tuple) -> dict:
        """calls, total_s and self_s per traced function since ``mark()``.

        Self time is a span's duration minus the durations of its direct
        child spans. Counted functions report ``calls`` only.
        """
        lo, counts0 = since
        ids = np.array(self.name_id[lo:], dtype=np.intp)
        dur = np.array(self.end[lo:]) - np.array(self.start[lo:])
        parent = np.array(self.parent[lo:], dtype=np.intp) - lo
        inside = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[inside], dur[inside])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        out = {}
        for name in SPAN_NAMES:
            i = self._ids[name]
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        for name in COUNT_NAMES:
            out[f"{name}.calls"] = self.counts[name] - counts0[name]
        return out

    def save(self, path) -> None:
        """Write every span to an .npz file (times relative to the first span)."""
        start = np.array(self.start)
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_id),
                            start=start - t0, end=np.array(self.end) - t0,
                            parent=np.array(self.parent))


def _kerrdeco_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "kerrdeco" or name.startswith("kerrdeco."))]


@contextmanager
def installed(tracer: Tracer):
    """Trace kerrdeco inside the block; every original binding is restored after it."""
    wrappers = {}  # id(original) -> (original, wrapper)
    patches = []   # (object, attribute, original, wrapper)
    for table, make in ((TRACED, tracer.timed), (COUNTED, tracer.counted)):
        for mod_name, fns in table.items():
            mod = importlib.import_module(f"kerrdeco.{mod_name}")
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if (mod_name, fn) in _CLASSES:
                    cls = getattr(mod, fn)
                    post_init = cls.__dict__["__post_init__"]
                    patches.append((cls, "__post_init__", post_init, make(name, post_init)))
                else:
                    orig = getattr(mod, fn)
                    wrappers[id(orig)] = (orig, make(name, orig))
    for mod in _kerrdeco_modules():
        for attr, val in vars(mod).items():
            if id(val) in wrappers and wrappers[id(val)][0] is val:
                patches.append((mod, attr, val, wrappers[id(val)][1]))
    undo = []
    try:
        for obj, attr, orig, wrapper in patches:
            undo.append((obj, attr, orig))
            setattr(obj, attr, wrapper)
        yield tracer
    finally:
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)
