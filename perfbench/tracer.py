"""Outside-in call tracer for the plane_layers package.

The package has no instrumentation of its own, so spans are taken from the
outside: each traced function is replaced by a wrapper in every loaded
`plane_layers` module that holds a binding to it (`from .mst import
build_emst` copies the binding into each importing module, so patching the
defining module alone would miss most calls).  A wrapper records the call
count and the self time of its name: the call's duration minus the time spent
in nested traced calls.  `uninstall` puts every original binding back.

A target is `(name, module, attribute)`; the attribute may name a method as
`Class.method`.  A target that no longer exists is reported in `absent` and
its counts stay zero.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "plane_layers"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.stats = {name: SpanStats() for name, _, _ in self.targets}
        self.absent: list[str] = []
        self._open: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextmanager
    def paused(self):
        """Run the body without recording (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _modules(self) -> list:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        self.absent = []
        for name, module, attr in self.targets:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if path and isinstance(owner, type):
                if not self._patch_method(name, owner, leaf):
                    self.absent.append(name)
                continue
            original = getattr(owner, leaf, None) if owner is not None and not path else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _patch_method(self, name: str, cls: type, leaf: str) -> bool:
        raw = vars(cls).get(leaf)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrap(name, raw.__func__))
        elif callable(raw):
            patched = self._wrap(name, raw)
        else:
            return False
        self._patches.append((cls, leaf, raw))
        setattr(cls, leaf, patched)
        return True

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats.calls += 1
                stats.self_s += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration

        return traced
