"""Span tracer that wraps a package's public functions from the outside.

The tracer discovers the package's modules at run time, wraps every
public module-level function in every namespace of the package that binds
it (so `from .count import f` bindings and calls through a module's own
globals are both caught), and records one span per call: function id,
start, end and the span that caused it.  A layer is the module that
defines the function; its self time is the time its spans cover minus the
time their child spans cover.

Spans stay in memory.  After SPAN_CAP calls of one function the tracer
keeps only that function's call count and total self time, so hot helpers
do not grow the span list without bound.  Watched functions always keep
their spans, together with a small summary of their arguments that the
caller's `watch` function computes at call time.  Generator bodies run
after the wrapper returns, so their work is charged to the consumer.
"""

import functools
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

SKIP = {"cli"}  # a thin command-line wrapper, never on a timed path
SPAN_CAP = 10_000


class Tracer:
    """Wrap, record and unwrap.  One tracer per traced process."""

    def __init__(self, package, watch=None):
        self.package = package
        self.watch = dict(watch or {})  # "pkg.module.func" -> summarize(arguments)
        self.names = []  # function id -> "pkg.module.func"
        self.layers = []  # function id -> layer (module short name)
        self.calls = []
        self.self_s = []
        self.spans = []  # [fid, start, end, parent span index or -1]
        self.events = []  # (span index, "pkg.module.func", summary)
        self.absent = []
        self.watch_errors = []
        self._stack = []
        self._saved = []  # (namespace, name, original) for uninstall

    # -- discovery -------------------------------------------------------------

    def modules(self):
        """The package and its submodules, except the skipped ones."""
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            if info.name in SKIP:
                continue
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self):
        """Wrap every public function; return the watched names not found."""
        prefix = self.package.__name__ + "."
        mods = self.modules()
        wrapped = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(prefix) or home[len(prefix):] in SKIP:
                    continue
                key = id(obj)
                if key not in wrapped:
                    wrapped[key] = self._wrap(obj, home[len(prefix):])
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[key])
        found = set(self.names)
        self.absent = sorted(name for name in self.watch if name not in found)
        return self.absent

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, layer, qualified=None):
        fid = len(self.names)
        qualified = qualified or f"{fn.__module__}.{fn.__name__}"
        self.names.append(qualified)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        summarize = self.watch.get(qualified)
        sig = inspect.signature(fn) if summarize else None
        cap = float("inf") if summarize else SPAN_CAP
        stack, spans, calls, self_s, events = self._stack, self.spans, self.calls, self.self_s, self.events

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_sid = parent[2] if parent else -1
            calls[fid] += 1
            if calls[fid] <= cap:
                sid = len(spans)
                spans.append([fid, 0.0, 0.0, parent_sid])
            else:
                sid = parent_sid
            if summarize is not None:
                try:
                    events.append((sid, qualified, summarize(sig.bind(*args, **kwargs).arguments)))
                except (TypeError, AttributeError, KeyError):
                    # the function's signature no longer fits the summary
                    if qualified not in self.watch_errors:
                        self.watch_errors.append(qualified)
            frame = [0.0, 0.0, sid]  # start, time covered by children, span
            stack.append(frame)
            frame[0] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[fid] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if sid != parent_sid:
                    spans[sid][1] = start
                    spans[sid][2] = end

        return wrapper

    def root(self, name, fn):
        """fn wrapped as a span of the caller's own layer, "bench"."""
        return self._wrap(fn, "bench", name)

    # -- results ---------------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds)} over every wrapped function."""
        out = {}
        for layer, c, s in zip(self.layers, self.calls, self.self_s):
            calls, secs = out.get(layer, (0, 0.0))
            out[layer] = (calls + c, secs + s)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "functions": [  # a span's function is an index into this list
                        {"name": n, "layer": l, "calls": c, "self_s": s}
                        for n, l, c, s in zip(self.names, self.layers, self.calls, self.self_s)
                    ],
                    "absent": self.absent,
                    "watch_errors": self.watch_errors,
                    "events": self.events,
                    "span_fields": ["function", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )
