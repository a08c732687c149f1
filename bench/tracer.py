"""Span recording around functions of an already-imported package.

A ``Tracer`` wraps functions from outside the package under test: each
wrapped call appends one span (name, start, end, parent span, item count) to
flat in-memory arrays, and the spans are written out once the run ends. Flat
arrays keep per-call cost and memory low enough for hot functions called
hundreds of thousands of times.

``install`` rebinds every module-level alias of a wrapped function, so a
call made through ``from .x import y`` is recorded as well. A target whose
module or attribute no longer exists is skipped and simply records no spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` may be ``"Class.method"``.

    ``items`` maps (args, kwargs, result) to a work count stored on the span,
    such as the number of documents passed in.
    """

    module: str
    attr: str
    span: str
    items: Callable | None = None


class Tracer:
    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span: str, fn, items=None):
        nid = self.name_id(span)
        names, parents, starts, ends, counts = (
            self.name, self.parent, self.start, self.end, self.items
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if items is not None:
                try:
                    counts[idx] = int(items(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the signature changed: the count reads zero, the run goes on
            return result

        return traced

    def install(self, package: str, targets) -> Callable[[], None]:
        """Wrap every target that exists; returns a function that undoes it."""
        undo: list[tuple[object, str, object]] = []
        for target in targets:
            try:
                module = importlib.import_module(f"{package}.{target.module}")
            except ModuleNotFoundError:
                continue
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self.wrap(target.span, original, target.items)
            if owner is module:
                for alias_owner, alias in _module_aliases(package, original):
                    undo.append((alias_owner, alias, original))
                    setattr(alias_owner, alias, wrapped)
            else:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def save(self, path: str) -> None:
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            items=np.array(self.items, dtype=np.int64),
        )


def _module_aliases(package: str, fn):
    """Every (module, attribute) in the package bound to the object ``fn``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one call stack, so every child lies inside its parent
    and children of one parent never overlap.
    """
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    kids = parent >= 0
    return duration - np.bincount(parent[kids], weights=duration[kids], minlength=len(start))


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


def span_stats(tracer: Tracer) -> dict[str, SpanStats]:
    """Per span name: call count, inclusive and self seconds, summed items."""
    name = np.array(tracer.name, dtype=np.int32)
    start = np.array(tracer.start, dtype=np.float64)
    end = np.array(tracer.end, dtype=np.float64)
    own = self_times(start, end, np.array(tracer.parent, dtype=np.int64))
    size = len(tracer.names)
    calls = np.bincount(name, minlength=size)
    total = np.bincount(name, weights=end - start, minlength=size)
    self_s = np.bincount(name, weights=own, minlength=size)
    items = np.bincount(name, weights=np.array(tracer.items, dtype=np.int64), minlength=size)
    return {
        label: SpanStats(int(calls[i]), float(total[i]), float(self_s[i]), int(items[i]))
        for i, label in enumerate(tracer.names)
    }


def child_items(tracer: Tracer, child: str, parent: str) -> int:
    """Summed items of ``child`` spans whose direct parent is a ``parent`` span."""
    if child not in tracer.names or parent not in tracer.names:
        return 0
    name = np.array(tracer.name, dtype=np.int32)
    par = np.array(tracer.parent, dtype=np.int64)
    items = np.array(tracer.items, dtype=np.int64)
    has_parent = par >= 0
    mask = has_parent & (name == tracer.names.index(child))
    mask[has_parent] &= name[par[has_parent]] == tracer.names.index(parent)
    return int(items[mask].sum())
