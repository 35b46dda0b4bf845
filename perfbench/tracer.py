"""Per-layer tracing of the nakayama package, installed from outside it.

Every public function of the traced layers is replaced by a wrapper in every
loaded module that binds it.  Binding-level patching is needed because
``from .core import injective`` leaves the same function object bound in
``core``, ``homology``, ``tilting``, ``endo`` and ``checks``; patching only
``core.injective`` would miss every call made through those names.

A wrapper records one span per call: (span id, parent span id, function id,
start, end, raised).  Spans stay in memory until ``fold`` turns them into
per-function counts and self times; a span's self time is its duration
minus the durations of its direct children.  The benchmark folds after each
item so memory stays bounded by the spans of one item.
"""

import functools
import inspect
import itertools
import sys
import time
from contextlib import contextmanager

LAYERS = ("core", "homology", "tilting", "sweeps", "checks", "endo",
          "linalg", "oracle")

# functions whose argument tuples are collected for distinct_ratio
DISTINCT = frozenset({"core.injective", "homology.pdim_table",
                      "homology.idim_table"})


def layer_functions():
    """{"<layer>.<name>": function} for the public functions each layer defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules["nakayama." + layer]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out["%s.%s" % (layer, name)] = obj
    return out


def self_times(spans):
    """{span id: self time} for spans listed in completion order."""
    child = {}
    out = {}
    for sid, parent, _, start, end, _ in spans:
        d = end - start
        out[sid] = d - child.pop(sid, 0.0)
        child[parent] = child.get(parent, 0.0) + d
    return out


class Tracer:
    """Span recorder plus per-function totals (calls, self time, errors)."""

    def __init__(self):
        self.names = []        # function id -> "<layer>.<name>" (or a root name)
        self.spans = []
        self.calls = []
        self.self_s = []
        self.errors = []
        self.seen = {}         # function id -> set of argument keys
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []     # (namespace dict, attribute, original)

    def _fid(self, name):
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.errors.append(0)
        return len(self.names) - 1

    def _wrap(self, name, fn):
        fid = self._fid(name)
        seen = self.seen.setdefault(fid, set()) if name in DISTINCT else None
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, fid, start, end, raised))

        return functools.update_wrapper(wrapper, fn)   # sets __wrapped__ = fn

    def install(self):
        """Patch every loaded module's binding of each layer function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in list(sys.modules.values()):
            ns = getattr(mod, "__dict__", None)
            if not isinstance(ns, dict):
                continue
            for attr, value in list(ns.items()):
                w = wrappers.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    self._patches.append((ns, attr, value))
                    ns[attr] = w
        return len(self._patches)

    def restore(self):
        """Put every original function back where it was bound."""
        while self._patches:
            ns, attr, original = self._patches.pop()
            ns[attr] = original

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def root(self, name):
        """A root span for one unit of the benchmark's own work (set-up, one item)."""
        fid = self._fid(name)
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, fid, start, end, False))

    def fold(self):
        """Add the recorded spans to the per-function totals and drop them."""
        selfs = self_times(self.spans)
        for sid, _, fid, _, _, raised in self.spans:
            self.calls[fid] += 1
            self.self_s[fid] += selfs[sid]
            self.errors[fid] += raised
        self.spans.clear()

    def totals(self):
        """{name: (calls, self seconds, errors, distinct argument count or None)}."""
        return {name: (self.calls[f], self.self_s[f], self.errors[f],
                       len(self.seen[f]) if f in self.seen else None)
                for f, name in enumerate(self.names)}
