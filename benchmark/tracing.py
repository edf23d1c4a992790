"""Per-layer call counts and self times, measured from outside the library.

`Tracer.install()` replaces every function and method defined in the
source of each `tropicalc` module by a wrapper that counts its calls and,
when the call crosses from one layer (module) into another, times it.  The
package imports with ``from .x import y``, so each wrapped function is
rebound under every name that refers to it in every `tropicalc` module, and
methods are replaced on their class.  `uninstall()` puts the originals back.

A layer's self time is the time of its spans minus the time of the spans it
opened into other layers.  A call within the same layer opens no span, so
the time of standard-library code (`Fraction` arithmetic, argparse, json)
counts to the layer that called it.

Code that drives the library under a tracer must look functions up on their
module at call time (``nev.jensen_report(...)``), never keep a reference taken
before `install()`, or those calls go untraced.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

LAYERS = (
    "poly",
    "numeric",
    "polyseg",
    "singular",
    "nevanlinna",
    "curves",
    "randgen",
    "manifest",
    "cli",
)

# Generated or trivial methods whose spans would cost more than they show.
_SKIPPED = {"__eq__", "__hash__", "__repr__", "__bool__"}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, list[int]] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.scan_repeats = 0
        self._layer = "bench"
        self._child = 0.0
        self._scanned: set = set()
        self._scanned_refs: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- per-operation state --------------------------------------------------

    def begin_operation(self) -> None:
        """Forget which functions were scanned: repeats count per operation."""
        self._scanned.clear()
        self._scanned_refs.clear()

    def count(self, name: str) -> int:
        cell = self.calls.get(name)
        return cell[0] if cell else 0

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        cell = self.calls.setdefault(name, [0])
        tracer = self
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell[0] += 1
            if tracer._layer == layer:
                return fn(*args, **kwargs)
            outer_layer, outer_child = tracer._layer, tracer._child
            tracer._layer, tracer._child = layer, 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - tracer._child
                tracer._layer, tracer._child = outer_layer, outer_child + elapsed

        traced.__wrapped__ = fn
        return traced

    def _wrap_scan(self, fn, layer: str, name: str):
        inner = self._wrap(fn, layer, name)
        tracer = self

        def scan(f, window=None, **flags):
            # Identity of f, value of rational bounds, identity of algebraic
            # ones: comparing algebraic numbers would call into the library.
            # The references kept stop a freed id from being reused.
            bounds = None
            if window is not None:
                bounds = tuple(
                    b if isinstance(b, (int, Fraction)) else ("id", id(b))
                    for b in window
                )
            key = (id(f), bounds, tuple(sorted(flags.items())))
            if key in tracer._scanned:
                tracer.scan_repeats += 1
            else:
                tracer._scanned.add(key)
                tracer._scanned_refs.append((f, window))
            return inner(f, window, **flags)

        scan.__wrapped__ = fn
        return scan

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {
            layer: sys.modules[f"tropicalc.{layer}"] for layer in LAYERS
        }
        holders = [sys.modules["tropicalc"], *modules.values()]
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            source = module.__file__
            for attr, value in list(vars(module).items()):
                if _defined_in(value, source):
                    name = f"{layer}.{attr}"
                    if name == "singular.scan":
                        replaced[id(value)] = self._wrap_scan(value, layer, name)
                    else:
                        replaced[id(value)] = self._wrap(value, layer, name)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    self._install_methods(value, layer, source)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._set(holder, attr, wrapper)

    def _install_methods(self, cls: type, layer: str, source: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr in _SKIPPED:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                if _defined_in(value.__func__, source):
                    wrapped = self._wrap(value.__func__, layer, name)
                    self._set(cls, attr, staticmethod(wrapped))
            elif _defined_in(value, source):
                self._set(cls, attr, self._wrap(value, layer, name))

    def _set(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": {name: cell[0] for name, cell in sorted(self.calls.items())},
            "singular.scan.repeats": self.scan_repeats,
        }


def _defined_in(value, source: str) -> bool:
    code = getattr(value, "__code__", None)
    return code is not None and code.co_filename == source
