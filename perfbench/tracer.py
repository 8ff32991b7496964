"""Spans around calls into the library, recorded from outside it.

A target is named by its qualified name (``certify_decomposition``,
``OperationSystem.validate``).  ``install`` finds the defining function in
any loaded ``vcsp`` module and replaces every reference to that function
object across those modules (methods are replaced on their class), so
re-exports and ``from ... import`` bindings are all covered and a function
that moves to another module is still found.  A target that cannot be found
is reported in ``missing``.

Spans are kept in memory as ``[name, start, end, parent, instance]``;
counters (``count`` targets and ``post`` hooks) attach to the innermost open
span.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _vcsp_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vcsp" or name.startswith("vcsp."))]


def _find(qualname):
    """(owner class or None, attribute name, function) for a qualified name."""
    owner_name, _, attr = qualname.rpartition(".")
    for module in _vcsp_modules():
        if owner_name:
            owner = vars(module).get(owner_name)
            if inspect.isclass(owner) and attr in vars(owner):
                fn = vars(owner)[attr]
                if owner.__module__.startswith("vcsp") and callable(fn):
                    return owner, attr, fn
        else:
            fn = vars(module).get(attr)
            if (inspect.isfunction(fn) and fn.__qualname__ == attr
                    and fn.__module__.startswith("vcsp")):
                return None, attr, fn
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.instance = None
        self.missing = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def begin(self, name):
        """Open a span by hand (the benchmark's own root span per call)."""
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else -1, self.instance]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, idx, counter, amount):
        key = (idx, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span_wrapper(self, name, fn, post):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                if post is not None:
                    post(tracer, idx, args, kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        stack = self.stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (stack[-1] if stack else -1, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self, targets):
        """Wrap each ``(qualname, kind, post)``; kind is "span" or "count"."""
        for qualname, kind, post in targets:
            found = _find(qualname)
            if found is None:
                self.missing.append(qualname)
                continue
            owner, attr, fn = found
            if kind == "span":
                wrapper = self._span_wrapper(qualname, fn, post)
            else:
                wrapper = self._count_wrapper(qualname, fn)
            if owner is not None:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in _vcsp_modules():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path, origin):
        """Write one JSON line per span, times relative to ``origin``."""
        per_span = {}
        for (idx, counter), value in self.counts.items():
            per_span.setdefault(idx, {})[counter] = value
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "instance": inst,
                    "counts": per_span.get(idx, {})}) + "\n")
