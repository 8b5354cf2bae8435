"""Spans around calls into treerow, recorded from outside the package.

`Tracer.install` wraps the public functions of every treerow module (and
the constructors of the poset classes).  Each wrapper is bound under the
module that defines the function and in every namespace that imported it,
so a call between modules shows up as a child span of its caller, e.g.
``tiling.orbit_of_tiling`` -> ``tiling.validate_tiling``.  Untraced runs
never call `install`, so they run the program untouched.

Spans live in flat typed arrays until the run ends: name index, start,
end (seconds, `time.perf_counter`) and the index of the parent span.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# the modules of treerow that do work; errors and __init__ do none
LAYERS = ("poset", "rowmotion", "tiling", "stats", "families", "continuous", "cli")


def _all_orbits(tracer, orbits):
    tracer.count("rowmotion.orbits", len(orbits))
    tracer.count("rowmotion.antichains", sum(o.size for o in orbits))


def _orbit_of(tracer, orbit):
    tracer.count("rowmotion.orbits", 1)
    tracer.count("rowmotion.antichains", orbit.size)


def _tiling_of_orbit(tracer, tiling):
    tracer.count("tiling.cells", tiling.rows * tiling.columns)


def _order_search(tracer, result):
    tracer.count("continuous.restarts", result.restarts)
    if result.max_bits is not None:
        tracer.counts["continuous.max_bits"] = max(
            tracer.counts.get("continuous.max_bits", 0), result.max_bits
        )


# counts read off a call's result, by span name
COUNTERS = {
    "rowmotion.all_orbits": _all_orbits,
    "rowmotion.orbit_of": _orbit_of,
    "rowmotion.enumerate_antichains": lambda t, r: t.count("rowmotion.antichains", len(r)),
    "tiling.tiling_of_orbit": _tiling_of_orbit,
    "continuous.order_search": _order_search,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``, a child of the span
        open when it starts."""
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if counter is not None:
                counter(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each layer of ``package``."""
        prefix = package.__name__ + "."
        layers = {layer: importlib.import_module(prefix + layer) for layer in LAYERS}
        modules = [package] + [m for k, m in sys.modules.items() if k.startswith(prefix)]
        wrappers: dict[int, object] = {}
        for layer, mod in layers.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    # constructors count as poset work: building a tree is
                    # the set-up every tree operation pays
                    if layer == "poset" and "__init__" in vars(obj):
                        self._replace(obj, "__init__", self._wrap(name, vars(obj)["__init__"]))
                elif callable(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._replace(mod, attr, wrappers[id(obj)])

    def _replace(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> "Tracer":
        """A copy of the spans recorded so far."""
        copy = Tracer()
        copy.names = list(self.names)
        for attr in ("name", "start", "end", "parent"):
            setattr(copy, attr, array(getattr(self, attr).typecode, getattr(self, attr)))
        return copy

    def clear(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]
        self.counts.clear()

    def self_times(self) -> dict[str, list]:
        """Per span name: [calls, total self time]."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i, n in enumerate(self.name):
            rec = out.setdefault(self.names[n], [0, 0.0])
            rec[0] += 1
            rec[1] += self.end[i] - self.start[i] - child[i]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: names, then [name, start, end, parent]."""
        with open(path, "w") as fh:
            fh.write('{"names": ')
            json.dump(self.names, fh)
            fh.write(', "spans": [\n')
            n = len(self.start)
            for i in range(n):
                fh.write(
                    f'[{self.name[i]}, {self.start[i]!r}, {self.end[i]!r}, {self.parent[i]}]'
                    + (",\n" if i + 1 < n else "\n")
                )
            fh.write("]}\n")
