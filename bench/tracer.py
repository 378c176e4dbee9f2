"""Spans and counters recorded from outside the package.

The package imports functions by name (``from .survdata import km_fit``), so
a call goes through whatever the *caller's* module binds under that name.
Wrapping only the defining module would record nothing; ``Tracer.install``
therefore replaces every binding of a target function in every ``pwexp``
module (aliases such as ``simulation.pwe_sample`` included) and patches
methods on their class. ``uninstall`` restores the originals.

A span is (name, start, end, parent). Spans stay in memory, in flat arrays,
until the run ends. Calls made inside process-pool workers run in another
process: their spans are lost there, which the caller reports.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a call the benchmark itself makes."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str | None, hook=None):
        """Wrapper recording a span ``name`` (none when ``name`` is None,
        which leaves the time with the caller) and then calling
        ``hook(counters, args, kwargs, result)``."""
        counters = self.counters
        if name is None:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(counters, args, kwargs, out)
                return out

            return counting
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counters, args, kwargs, out)
            return out

        return wrapper

    def install(self, functions, methods):
        """``functions``: (function, span name or None, hook); every binding
        in a ``pwexp`` module is replaced. ``methods``: (class, attribute,
        span name, hook)."""
        modules = [m for n, m in sys.modules.items() if n == "pwexp" or n.startswith("pwexp.")]
        for fn, name, hook in functions:
            wrapper = self._wrap(fn, name, hook)
            bound = 0
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"tracer: no pwexp module binds {fn.__qualname__}")
        for cls, attr, name, hook in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        return len(self.name)

    def summarize(self, begin: int, end: int) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)} over spans [begin, end).

        Self time is a span's duration minus the durations of its direct
        children, which nest strictly because the spans come from one thread.
        """
        child = [0.0] * (end - begin)
        for i in range(begin, end):
            p = self.parent[i]
            if p >= begin:
                child[p - begin] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(begin, end):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            self_s[nm] += self.end[i] - self.start[i] - child[i - begin]
        return {nm: (calls[nm], self_s[nm]) for nm in calls}
