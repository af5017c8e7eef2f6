"""In-memory spans around calls into the jordan_spectra modules.

``Tracer.install`` replaces every public function of the measured modules
with a timing wrapper, in the defining module and in every other
``jordan_spectra`` namespace that imported it by name.  Each importing
namespace gets its own wrapper, so a span records which module made the
call (``via``): ``geometry.lp_feasible`` and ``operational.lp_feasible``
are the same solver reached from two layers.

A span is (name, start, end, parent), stored column-wise so that a million
spans stay small.  Self time is a span's duration minus the durations of
its direct children; calls nest strictly, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

MODULES = (
    "scalars",
    "exactla",
    "exactlp",
    "hypercomplex",
    "algebra",
    "spectral",
    "geometry",
    "operational",
    "symmetry",
    "classification",
    "cli",
)


class Tracer:
    def __init__(self):
        self.labels = []  # label id -> (name, via); name is "module.function"
        self._label_ids = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}  # span index -> dict written by a hook
        self._stack = []
        self._installed = []

    # -- recording ---------------------------------------------------------

    def _label_id(self, name, via):
        key = (name, via)
        lid = self._label_ids.get(key)
        if lid is None:
            lid = self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        return lid

    def open(self, name, via=""):
        i = len(self.label)
        self.label.append(self._label_id(name, via))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @property
    def count(self) -> int:
        return len(self.label)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, name, via, hook):
        open_, close, attrs = self.open, self.close, self.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                attrs[i] = hook(args, kwargs, result)
            return result

        return traced

    def install(self, hooks=None):
        """Wrap the public functions of MODULES everywhere they are bound.

        ``hooks`` maps "module.function" to ``hook(args, kwargs, result)``,
        which runs after the span closes and returns a dict kept with the
        span.  A hook must not call traced functions.
        """
        hooks = hooks or {}
        namespaces = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "jordan_spectra" or name.startswith("jordan_spectra.")
        }
        for short in MODULES:
            mod = sys.modules.get("jordan_spectra." + short)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                for ns_name, ns in namespaces.items():
                    via = ns_name.rpartition(".")[2]
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            wrapped = self._wrapper(obj, name, via, hooks.get(name))
                            setattr(ns, bound, wrapped)
                            self._installed.append((ns, bound, obj))

    def uninstall(self):
        for ns, bound, obj in reversed(self._installed):
            setattr(ns, bound, obj)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def name_of(self, i) -> str:
        return self.labels[self.label[i]][0]

    def via_of(self, i) -> str:
        return self.labels[self.label[i]][1]

    def has_children(self):
        out = [False] * self.count
        for p in self.parent:
            if p >= 0:
                out[p] = True
        return out

    def ancestors(self, i):
        p = self.parent[i]
        while p >= 0:
            yield p
            p = self.parent[p]
