"""Outside-in tracing: wrap program functions from the benchmark's own files
and record spans (name, start, end, parent, op id), self times and counts.

A wrapped function is rebound in its defining module (or class) and in every
other module that bound the same object under a name, e.g. through
``from .partitions import j_alpha``.  :meth:`Tracer.uninstall` puts every
original object back.

Spans of "kept" targets are stored one by one.  Targets called thousands of
times per operation are aggregated instead: one record per (nearest kept
ancestor, parent name, name) with a count, total and self time, so memory
stays bounded while parentage is kept.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``qualname`` is "name" or "Class.method" in
    ``module``; ``span`` is the recorded name and ``layer`` its owner.
    ``before(args, kwargs)`` returns a state that ``after(state, result,
    counts)`` turns into counter increments."""

    module: str
    qualname: str
    span: str
    layer: str
    keep: bool = False
    before: object = None
    after: object = None


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, parent id, op id, start, end, self)
        self.aggregates = {}     # (ancestor id, parent name, name) -> [n, total, self]
        self.by_name = {}        # name -> [calls, total, self]
        self.layer_self = {}     # layer -> self seconds
        self.counts = {}         # counter -> value
        self.ops = {}            # op id -> op name
        self.op = 0
        self._next_id = 1
        self._stack = [[0, "rep", 0.0]]   # [span id for children, name, child time]
        self._patches = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _close(self, name, layer, keep, sid, parent, t0, t1, own):
        dur = t1 - t0
        parent[2] += dur
        stat = self.by_name.get(name)
        if stat is None:
            stat = self.by_name[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dur
        stat[2] += own
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
        if keep:
            self.spans.append((sid, name, parent[0], self.op, t0, t1, own))
        else:
            key = (parent[0], parent[1], name)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += own

    def _wrap(self, fn, target: Target):
        stack, clock, close = self._stack, time.perf_counter, self._close
        name, layer, keep = target.span, target.layer, target.keep
        before, after, counts = target.before, target.after, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent[0]
            state = before(args, kwargs) if before is not None else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(name, layer, keep, sid, parent, t0, t1, t1 - t0 - frame[2])
            if after is not None:
                after(state, result, counts)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__traced__ = True
        return wrapper

    @contextmanager
    def span(self, name: str, op: bool = False):
        """A kept span around benchmark code; ``op=True`` starts a new op id."""
        if op:
            self.op += 1
            self.ops[self.op] = name
        parent = self._stack[-1]
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close(name, "bench", True, sid, parent, t0, t1, t1 - t0 - frame[2])

    # -- installing and removing wrappers ------------------------------------

    def install(self, targets, package: str):
        """Wrap every target.  Module-level functions are rebound wherever a
        module of ``package`` holds the same object."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for t in targets:
            owner = sys.modules[t.module]
            if "." in t.qualname:
                cls_name, attr = t.qualname.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, t)
                for alias, value in list(owner.__dict__.items()):
                    if value is original:
                        self._patch(owner, alias, wrapper)
                continue
            original = getattr(owner, t.qualname)
            wrapper = self._wrap(original, t)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str, phase: str, append: bool = False):
        """Write the ops, kept spans and aggregates as JSON lines tagged with
        ``phase``; span ids are unique within a phase."""
        with open(path, "a" if append else "w") as fh:
            def put(record):
                fh.write(json.dumps({"phase": phase, **record}) + "\n")

            for op_id, name in sorted(self.ops.items()):
                put({"kind": "op", "op": op_id, "name": name})
            for sid, name, parent, op, t0, t1, own in self.spans:
                put({"kind": "span", "id": sid, "name": name, "parent": parent,
                     "op": op, "start": t0, "end": t1, "self_s": own})
            for (ancestor, parent_name, name), (n, total, own) in sorted(
                    self.aggregates.items()):
                put({"kind": "aggregate", "name": name, "parent": ancestor,
                     "parent_name": parent_name, "calls": n, "total_s": total,
                     "self_s": own})


def public_functions(module) -> list:
    """Names of the module's public functions (memoized ones included),
    defined in that module; generator functions are left out because their
    work happens after the call returns."""
    out = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        func = getattr(value, "__wrapped__", value)
        if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
            out.append(name)
    return sorted(out)
