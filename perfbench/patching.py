"""Benchmark-side wrapping of the program's public entry points.

The benchmark never edits ``src/repro``.  To trace a layer, or to add a
fixed host delay to it, it rebinds the function or method in place for
the duration of one run and restores it afterwards.

A target is written ``"module:qualname"``, e.g.
``"repro.serve.server:InferenceServer.submit"`` or
``"repro.hw.perf:estimate_performance"``.  Module-level functions are
often imported by name into other modules (``from repro.hw.perf import
estimate_performance``), so :meth:`Patcher.wrap` also rebinds every
``repro.*`` module global that holds the same function object.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable

__all__ = ["Patcher", "busy_wait", "delayed"]


def delayed(fn: Callable, seconds: float, switch: list) -> Callable:
    """``fn`` preceded by a fixed host delay while ``switch[0]``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if switch[0]:
            busy_wait(seconds)
        return fn(*args, **kwargs)
    return wrapper


def busy_wait(seconds: float) -> None:
    """Spin for ``seconds`` of host time (sleep is too coarse for µs)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Patcher:
    """Installs wrappers and remembers how to undo them."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        """``setattr`` that :meth:`restore` undoes (an attribute the
        owner did not hold itself, such as a method looked up on an
        instance's class, is deleted again)."""
        previous = vars(owner).get(name, self._ABSENT)
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)

    def wrap(self, target: str, make: Callable[[Callable], Callable],
             *, everywhere: bool = True) -> bool:
        """Replace ``target`` with ``make(original)``.

        ``everywhere=False`` rebinds only the named module's global, so
        a function is wrapped as one caller sees it (e.g. the runtime's
        ``estimate_performance`` but not the DSE's).

        Returns False (and changes nothing) when the target does not
        exist, so the benchmark keeps running across refactors that
        rename an entry point; the affected per-layer metric then reads 0.
        """
        module_name, _, qualname = target.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return False
        raw = getattr(owner, "__dict__", {}).get(name)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            self.set(owner, name, type(raw)(make(raw.__func__)))
            return True
        wrapped = make(raw)
        self.set(owner, name, wrapped)
        if isinstance(owner, type) or not everywhere:
            return True
        # rebind from-imports of the same function in other modules,
        # including bindings another Patcher already wrapped
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not mod_name.startswith("repro"):
                continue
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                if value is raw:
                    self.set(module, attr, wrapped)
                elif getattr(value, "__wrapped__", None) is raw:
                    self.set(module, attr, make(value))
        return True

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is self._ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
