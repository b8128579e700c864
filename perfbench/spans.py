"""Wrapping the package's public functions from outside, for tracing.

Nothing under src/ is edited.  A function can be bound under several
names: ``from .polynomials import roots`` makes ``dessins.monodromy.roots``
a second name for ``dessins.polynomials.roots``, and the package re-exports
``monodromy`` over the submodule attribute of the same name.  So every
patch replaces the function at every binding site found by identity in the
loaded ``dessins`` modules, and the modules themselves are taken from
``sys.modules`` (``import dessins.monodromy as m`` would return the
re-exported function).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "dessins"


def package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def patch_everywhere(original, replacement) -> list[tuple]:
    """Rebind ``original`` to ``replacement`` in every package module;
    returns the undo records for ``restore``."""
    undo = []
    for mod in package_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo: list[tuple]) -> None:
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


def public_functions() -> list[tuple[str, object]]:
    """(layer.function, function) for each public function defined at
    module level in a package submodule; the layer is the module name
    without the package prefix."""
    out = []
    for mod in package_modules():
        if mod.__name__ == PACKAGE:
            continue
        layer = mod.__name__[len(PACKAGE) + 1:]
        for name, value in sorted(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", value))
    return out


class Tracer:
    """Spans kept in memory: [name, parent index, start, end, item].

    A span's parent is the span that was open when it started, so self
    time is a span's duration minus the durations of its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([qualname, stack[-1] if stack else -1, clock(), 0.0, self.item])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for qualname, fn in public_functions():
            self._undo += patch_everywhere(fn, self._wrap(qualname, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, _, start, end, _), inner in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - inner)
        return out
