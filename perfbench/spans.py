"""Span recorder that wraps the public functions of the ctmdp layers.

Only the benchmark's traced run installs it. Each public function of
``ctmdp.model``, ``dp``, ``occupation``, ``lp_core``, ``sim`` and ``cli`` is
replaced by a wrapper at every module attribute that refers to it, including
names one module imported from another (``ctmdp.occupation.solve_backward``),
and the three ``write_csv`` methods are wrapped on their classes. Nested
calls therefore become child spans. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

LAYERS = ("model", "dp", "occupation", "lp_core", "sim", "cli")
CSV_METHODS = (("dp", "ValueGrid"), ("occupation", "OccupationGrid"),
               ("sim", "Trajectory"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Tracer.spans
    route: str
    n_steps: int | None  # n_steps of a TimeGrid argument, when one is passed


class Tracer:
    """In-memory span list plus the wrapper bookkeeping."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.route = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        grid_type = self.package.dp.TimeGrid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = next((a.n_steps for a in (*args, *kwargs.values())
                          if isinstance(a, grid_type)), None)
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0,
                                   self._stack[-1] if self._stack else None,
                                   self.route, steps))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in (self.package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        for layer, cls_name in CSV_METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__["write_csv"]
            self._patches.append((cls, "write_csv", original))
            setattr(cls, "write_csv",
                    self._wrap(f"{layer}.{cls_name}.write_csv", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]
