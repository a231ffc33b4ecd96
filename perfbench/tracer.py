"""Span tracing of the cgnp modules from outside the package.

`Tracer.install` replaces every module-level binding of each function named
in a layer module's ``__all__`` with a timing wrapper, in every loaded
``cgnp`` module. Calls that go through a module global are therefore caught
wherever they come from: ``training.backward``, ``graph.matmul``,
``models.batch_norm`` and the calls ``autodiff.affine`` makes to its
siblings all record spans. `Tracer.restore` puts the original objects back.

A span is the tuple ``(name, start, end, parent, raised, info)``: times in
seconds from ``time.perf_counter``, the index of the enclosing span or -1,
whether the call raised, and the value of the name's measure hook (None
without one). Spans stay in memory until `write_spans` saves them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time

import numpy as np

NAME, START, END, PARENT, RAISED, INFO = range(6)


class Tracer:
    def __init__(self, layers, measures=None):
        """``layers``: module names under ``cgnp`` whose ``__all__`` functions
        are traced. ``measures``: span name -> ``hook(args, kwargs, result)``
        whose return value is kept as the span's info."""
        self.layers = tuple(layers)
        self.measures = dict(measures or {})
        self.spans: list[tuple] = []
        self.traced: set[str] = set()
        self.absent_layers: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = {}  # id(function) -> (function, wrapper)
        for layer in self.layers:
            try:
                module = importlib.import_module(f"cgnp.{layer}")
            except ImportError:
                self.absent_layers.append(layer)
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and id(fn) not in targets:
                    name = f"{layer}.{attr}"
                    targets[id(fn)] = (fn, self._wrap(fn, name, self.measures.get(name)))
                    self.traced.add(name)
        for module in [m for n, m in list(sys.modules.items()) if n == "cgnp" or n.startswith("cgnp.")]:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _wrap(self, fn, name, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, True, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = None if measure is None else measure(args, kwargs, result)
            spans[index] = (name, start, end, parent, False, info)
            return result

        return traced


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread, strict nesting), so the
    sum of their durations is the part of the parent's interval they cover.
    """
    duration = np.array([s[END] - s[START] for s in spans], dtype=np.float64)
    parent = np.array([s[PARENT] for s in spans], dtype=np.intp)
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


def write_spans(path, spans, header: str) -> None:
    """Save spans as gzip CSV: one line per span, times in seconds."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(f"# {header}\nname,start,end,parent,raised,info\n")
        for name, start, end, parent, raised, info in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{int(raised)},{'' if info is None else info}\n")
