"""Span recorder for the traced benchmark run.

`SpanRecorder.install()` replaces each layer function by a wrapper that
records a span (layer, parent span, start, end, work counts) and calls the
original.  A function is rebound in every folnerlab module namespace that
holds it, so a call through `from .analysis import shell_alpha` is traced
like a call through `analysis.shell_alpha`; `Graph` methods are replaced on
the class.  `uninstall()` restores the originals.  Spans stay in memory
until the caller writes them out at the end of the run.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

from layers import Layer

LAYER, PARENT, START, END, COUNTS = range(5)


class SpanRecorder:
    def __init__(self, layers: tuple[Layer, ...]):
        self.layers = layers
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn):
        spans, stack, counters = self.spans, self._stack, layer.counters

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer.name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counters:
                span[COUNTS] = {name: f(args, kwargs, result) for name, f in counters.items()}
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("span recorder already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "folnerlab" or name.startswith("folnerlab.")]
        for layer in self.layers:
            module_name, *path = layer.name.split(".")
            module = importlib.import_module(f"folnerlab.{module_name}")
            if len(path) == 2:  # a method of a class
                cls = getattr(module, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, staticmethod):
                    self._patch(cls, path[1], staticmethod(self._wrap(layer, raw.__func__)))
                else:
                    self._patch(cls, path[1], self._wrap(layer, raw))
                continue
            original = getattr(module, path[0])
            traced = self._wrap(layer, original)
            for m in modules:
                for attribute, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attribute, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, value = self._patches.pop()
            setattr(owner, attribute, value)

    def aggregate(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per layer: summed self time, call count and summed counters of the
        spans recorded since index `first`.  Self time is a span's duration
        minus the durations of its direct children."""
        spans = self.spans
        children = defaultdict(float)
        for span in spans[first:]:
            if span[PARENT] >= 0:
                children[span[PARENT]] += span[END] - span[START]
        totals: dict[str, dict[str, float]] = {
            layer.name: {"self_s": 0.0, "calls": 0, **dict.fromkeys(layer.counters, 0)}
            for layer in self.layers
        }
        for index in range(first, len(spans)):
            span = spans[index]
            entry = totals[span[LAYER]]
            entry["self_s"] += span[END] - span[START] - children[index]
            entry["calls"] += 1
            for name, value in (span[COUNTS] or {}).items():
                entry[name] += value
        return totals
