"""In-memory spans around calls into ibsest's public functions.

The tracer wraps functions from outside the package: it replaces every
binding of a function object in the loaded modules (a module that did
``from .likelihood import joint_likelihood_bounds`` holds its own binding)
and restores them on exit.  A span is (name, start, end, parent);
spans are kept in flat arrays and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Replace every binding of ``original`` in the loaded modules by
    ``replacement``; return what ``restore`` needs to undo it."""
    entries = []
    for mod in list(sys.modules.values()):
        for key, value in list(getattr(mod, "__dict__", {}).items()):
            if value is original:
                setattr(mod, key, replacement)
                entries.append((mod, key, original))
    return entries


def restore(entries) -> None:
    for mod, key, original in reversed(entries):
        setattr(mod, key, original)


@contextmanager
def substituted(original, replacement):
    """Calls to ``original`` go to ``replacement`` while the block runs."""
    entries = rebind(original, replacement)
    try:
        yield
    finally:
        restore(entries)


class Tracer:
    def __init__(self, functions: tuple[str, ...]):
        """``functions`` are dotted names, ``package.module.function``."""
        self.functions = functions
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, label: str) -> int:
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self._stack.pop()
        self.end[i] = time.perf_counter()

    @contextmanager
    def span(self, label: str):
        """A span opened by the benchmark itself, e.g. around one pass."""
        i = self._open(label)
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def active(self):
        """Trace every function while the block runs."""
        try:
            for dotted in self.functions:
                self._wrap(dotted)
            yield
        finally:
            self._unwrap()

    def _wrap(self, dotted: str) -> None:
        """A function that does not exist is recorded as missing instead of
        raising."""
        module_name, attr = dotted.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.add(dotted)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.add(dotted)
            return
        label = dotted.split(".", 1)[1]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = self._open(label)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(i)

        self._restore += rebind(original, traced)

    def _unwrap(self) -> None:
        restore(self._restore)
        self._restore.clear()

    def table(self) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: inclusive durations and self times, in seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        names = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        return {
            label: {"dur": dur[names == nid], "self": self_time[names == nid]}
            for nid, label in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Columnar gzip JSON: names, then one array per span field."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "missing": sorted(self.missing),
            "name": list(self.name),
            "parent": list(self.parent),
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
