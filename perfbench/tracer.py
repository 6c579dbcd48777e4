"""Outside-in span tracer for the pancha layer modules.

The tracer wraps every public function of each layer module from the
outside: it rebinds the function's name in every ``pancha.*`` module
namespace and replaces it inside the registries that hold function
references (``checks.SUITES`` and ``experiments.RUNNERS``).  Module
globals are looked up at call time, so calls made inside a module go
through the wrappers too.  Nothing under ``src/`` is edited.

Each call records one span: its name, start and end (``perf_counter_ns``),
the span that was open when it began, and whether an exception left it.
Spans are kept in flat arrays in memory and summarised (and optionally
written out) when the run ends.  A span's self time is its duration
minus the durations of its direct children; children of one span never
overlap because the program is single threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: layer modules, in dependency order
LAYERS = ("core", "phase", "geometry", "transport", "twophoton", "dual",
          "checks", "experiments", "cli")


def layer_functions(pancha_modules):
    """Map span name ``<layer>.<function>`` to the public function object."""
    targets = {}
    for layer in LAYERS:
        mod = pancha_modules[layer]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                targets[f"{layer}.{name}"] = obj
    return targets


class Tracer:
    """Records spans around the layer functions while installed.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``,
    called after the span closes to add counters measured at the same
    boundary (path steps, bytes returned, Haar draws).
    """

    def __init__(self, hooks=None):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error_spans: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._hooks = hooks or {}
        self._wrapped: dict[int, object] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def inside(self, names) -> bool:
        """True when a span named in ``names`` is open."""
        return any(self.names[self.name_of[i]] in names for i in self._stack)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.error_spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(me)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[me] = clock()
                stack.pop()
                errors.append(me)
                raise
            end[me] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self, pancha_modules):
        """Wrap every layer function wherever the program can reach it.

        May be called again after ``uninstall``; spans keep accumulating.
        """
        if not self._wrapped:
            self._wrapped = {id(fn): self._wrap(name, fn) for name, fn
                             in layer_functions(pancha_modules).items()}
        wrapped = self._wrapped
        for modname, mod in list(sys.modules.items()):
            if modname != "pancha" and not modname.startswith("pancha."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._undo.append((setattr, mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        suites = pancha_modules["checks"].SUITES
        for suite, fns in list(suites.items()):
            self._undo.append((dict.__setitem__, suites, suite, fns))
            suites[suite] = tuple(wrapped[id(fn)] for fn in fns)
        runners = pancha_modules["experiments"].RUNNERS
        for key, fn in list(runners.items()):
            self._undo.append((dict.__setitem__, runners, key, fn))
            runners[key] = wrapped[id(fn)]
        return self

    def uninstall(self):
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    # -- summarising -------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, plus integer self time per span."""
        name_of = np.frombuffer(self.name_of, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        duration = end - start
        covered = np.zeros_like(duration)
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child])
        error = np.zeros(len(start), dtype=bool)
        error[self.error_spans] = True
        return {"name_of": name_of, "parent": parent, "start": start,
                "end": end, "duration": duration, "self": duration - covered,
                "error": error}

    def save(self, path):
        """Write every span to ``path`` (numpy ``.npz``)."""
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **spans)

    def by_name(self) -> dict:
        """Per span name: calls, errors, total and self nanoseconds."""
        spans = self.arrays()
        n = len(self.names)
        calls = np.bincount(spans["name_of"], minlength=n)
        errors = np.bincount(spans["name_of"], weights=spans["error"], minlength=n)
        total = np.zeros(n, dtype=np.int64)
        own = np.zeros(n, dtype=np.int64)
        np.add.at(total, spans["name_of"], spans["duration"])
        np.add.at(own, spans["name_of"], spans["self"])
        return {name: {"calls": int(calls[i]), "errors": int(errors[i]),
                       "total_ns": int(total[i]), "self_ns": int(own[i])}
                for i, name in enumerate(self.names)}
