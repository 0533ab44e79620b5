"""In-memory span recorder for the traced benchmark run.

Inside ``Tracer.tracing``, every public function of the auesim layer modules
is replaced, at each module-level name the package looks it up through, by a
wrapper that records one span per call: function, start, end, parent span and
invocation id.  Spans are kept in flat arrays and only summarised or written
out once the run is over.  Spans are taken in the benchmark process only: a forked pool
worker inherits the wrappers but they call straight through, so time spent in
workers shows as the parent's self time in the function that waits for them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import types
from array import array
from pathlib import Path

import numpy as np


def _np(values: array) -> np.ndarray:
    # a copy, so the array stays free to grow
    return np.frombuffer(values, dtype=np.int64).copy()


class Tracer:
    def __init__(self, modules: dict[str, types.ModuleType]):
        self._modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("q")
        self.parent = array("q")
        self.invocation = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._current = -1
        self._enabled = True
        self._bindings = self._find_bindings()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._enabled = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn: types.FunctionType):
        fid = self._id(name)
        fns, parents, invocations = self.fn, self.parent, self.invocation
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            invocations.append(self._current)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _find_bindings(self) -> list[tuple[types.ModuleType, str, types.FunctionType, types.FunctionType]]:
        """(module, name, function, wrapper) for every layer-module name bound to a public layer function."""
        defined = {}
        for short, module in self._modules.items():
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    defined[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in defined.items()}
        return [
            (module, attr, obj, wrappers[obj])
            for module in self._modules.values()
            for attr, obj in vars(module).items()
            if isinstance(obj, types.FunctionType) and obj in wrappers
        ]

    @contextlib.contextmanager
    def tracing(self, invocation: int):
        """Record spans of the calls made inside the block under ``invocation``."""
        self._current = invocation
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def summary(self) -> tuple[dict[str, int], dict[str, float], float, float]:
        """Calls and self time in ns per function, root time in ns, and run_sweep accounting.

        A span's self time is its duration minus the durations of its direct
        children.  The last value is the self time of every span inside a
        ``harness.run_sweep`` span over the total duration of those spans
        (1.0 when the spans nest properly, 0.0 when run_sweep was never called).
        """
        fn, parent = _np(self.fn), _np(self.parent)
        duration = _np(self.end) - _np(self.start)
        child = parent >= 0
        children_ns = np.bincount(parent[child], weights=duration[child], minlength=fn.size)
        self_ns = duration - children_ns
        width = len(self.names)
        calls = np.bincount(fn, minlength=width)
        self_per_fn = np.bincount(fn, weights=self_ns, minlength=width)
        root_ns = float(duration[~child].sum())

        accounted = 0.0
        sweep_id = self._ids.get("harness.run_sweep")
        if sweep_id is not None:
            inside = [False] * fn.size
            sweep_ns = 0.0
            # parents are recorded before their children, so one forward pass suffices
            for i, (f, p) in enumerate(zip(self.fn, self.parent)):
                if f == sweep_id and not (p >= 0 and inside[p]):
                    inside[i] = True
                    sweep_ns += float(duration[i])
                else:
                    inside[i] = p >= 0 and inside[p]
            if sweep_ns > 0.0:
                accounted = float(self_ns[np.array(inside, dtype=bool)].sum()) / sweep_ns
        return (
            {name: int(calls[i]) for i, name in enumerate(self.names)},
            {name: float(self_per_fn[i]) for i, name in enumerate(self.names)},
            root_ns,
            accounted,
        )

    def write(self, path: Path) -> None:
        """Write every span as flat arrays; ``names`` maps the ``fn`` ids to function names."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=_np(self.fn),
            parent=_np(self.parent),
            invocation=_np(self.invocation),
            start_ns=_np(self.start),
            end_ns=_np(self.end),
            scope=np.array("benchmark process only; pool workers are not traced"),
        )
