"""Tracing from outside the program: wrap every public function of pgblock.

Each public module-level function and each public method of a class that a
pgblock module defines is replaced by a wrapper, in every namespace that
holds it: `blocking.incidence` and `search.incidence` are the same function
looked up in two places, and both are patched. Methods are patched on their
class, so calls through an instance see the wrapper.

Timed wrappers keep, per function: calls, inclusive time (outermost calls
only, so recursion is not counted twice) and self time (duration minus the
time covered by traced callees). Field arithmetic and a few per-point helpers
are counted only, because they run millions of times and a timer would
dominate them. Aggregates are kept in memory; nothing is written per call.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

MODULES = ("gf", "pgkernel", "counting", "blocking", "constructions", "search", "cli")

# Called per point or per field element: counted, never timed.
COUNT_ONLY = {
    "counting.theta", "counting.gaussian",
    "pgkernel.GeometryContext.normalize", "pgkernel.GeometryContext.point_index",
    "pgkernel.GeometryContext.point",
}

# Functions whose distinct return values are counted: a cache miss returns a
# new object, so this counts incidence builds without reading any cache.
DISTINCT_RESULTS = {"blocking.incidence"}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.results: dict[str, dict[int, object]] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        stack, depth = self._stack, self._depth
        calls[name] = 0
        inclusive[name] = 0.0
        self_time[name] = 0.0
        depth[name] = 0
        seen = self.results.setdefault(name, {}) if name in DISTINCT_RESULTS else None

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_time[name] += elapsed - frame[0]
                if not depth[name]:
                    inclusive[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if seen is not None:
                seen[id(result)] = result
            return result
        return wrapper

    def _wrap(self, name, fn):
        module = name.split(".", 1)[0]
        if module == "gf" or name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self._counted(name, fn)
        return self._timed(name, fn)

    # -- install / remove -----------------------------------------------------

    def install(self):
        """Patch pgblock in place; remove() restores the originals."""
        import pgblock

        modules = [importlib.import_module(f"pgblock.{m}") for m in MODULES]
        replacements = {}   # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, f"{short}.{attr}")
        for mod in modules + [pgblock]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._set(mod, attr, wrapper)
        return self

    def _patch_class(self, cls, qualname):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{qualname}.{attr}", raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(f"{qualname}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{qualname}.{attr}", raw)
            else:
                continue
            self._set(cls, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- queries ----------------------------------------------------------------

    def count(self, *names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def seconds(self, *names) -> float:
        return sum(self.inclusive.get(n, 0.0) for n in names)

    def module_self(self, module) -> float:
        prefix = module + "."
        return sum(t for n, t in self.self_time.items() if n.startswith(prefix))

    def distinct_results(self, name) -> int:
        return len(self.results.get(name, ()))

    def table(self) -> list[dict]:
        """Every traced function that was called, busiest first."""
        rows = [{"name": n, "calls": c,
                 "inclusive_s": self.inclusive.get(n), "self_s": self.self_time.get(n)}
                for n, c in self.calls.items() if c]
        return sorted(rows, key=lambda r: -(r["self_s"] or 0.0))
