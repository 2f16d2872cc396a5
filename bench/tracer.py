"""In-memory spans around the public functions of each svmsoc layer.

The tracer replaces functions by wrappers from outside the program: at the
module that defines them and at every module that imported them, so a call
through `svmsoc.cli.batch_classify` and one through
`svmsoc.driver.batch_classify` land in the same span name.  Each span keeps
its name, start, end, parent and root (the benchmark span that caused it:
a request, a correctness check or a probe, named after the request's size).
Spans are stored in flat arrays and reduced to per-name self times only when
the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

# The five program layers; `errors` holds only exception types.
LAYERS = ("model_io", "accel", "driver", "synth", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = bytearray()
        self.current = -1

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span."""
        nid = self._id(name)
        name_id, parent_a, root_a = self.name_id, self.parent, self.root
        start_a, end_a, raised = self.start, self.end, self.raised
        clock = time.perf_counter_ns
        tracer = self

        # The span bookkeeping of `span` is inlined here: this runs on every
        # traced call, some of them (format_real) a few microseconds long.
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(name_id)
            name_id.append(nid)
            parent_a.append(parent)
            root_a.append(idx if parent < 0 else root_a[parent])
            end_a.append(0)
            raised.append(0)
            tracer.current = idx
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end_a[idx] = clock()
                tracer.current = parent

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. `bench.request`."""
        nid = self._id(name)
        parent = self.current
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.root.append(idx if parent < 0 else self.root[parent])
        self.end.append(0)
        self.raised.append(0)
        self.current = idx
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.current = parent

    def summary(self):
        """Reduce the spans to {(root name, span name): (calls, self ns, total ns, raised)}."""
        if not self.name_id:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        roots = np.frombuffer(self.root, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        raised = np.frombuffer(bytes(self.raised), dtype=np.uint8).astype(np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        keys = names[roots].astype(np.int64) * len(self.names) + names
        uniq, group = np.unique(keys, return_inverse=True)
        sums = [
            np.bincount(group, minlength=len(uniq)),
            *(np.bincount(group, weights=w, minlength=len(uniq)) for w in (own, dur, raised)),
        ]
        out = {}
        for k, key in enumerate(uniq.tolist()):
            r, n = divmod(key, len(self.names))
            out[(self.names[r], self.names[n])] = tuple(int(s[k]) for s in sums)
        return out


def _is_function(obj) -> bool:
    return callable(obj) and not isinstance(obj, type) and hasattr(obj, "__module__")


def instrument(tracer: Tracer, package) -> None:
    """Wrap the public functions of every layer, at home and at each importer.

    A function is wrapped when its module lists it in `__all__`, when another
    module imports it (a layer boundary), or when it is `cli.main`.  Private
    helpers imported across layers are wrapped at the importer's binding only,
    so calls inside their own module stay untraced.
    """
    modules = {"svmsoc": package}
    modules.update({name: getattr(package, name) for name in LAYERS})
    wrapped: dict[int, object] = {}

    def wrapper(obj, home: str):
        w = wrapped.get(id(obj))
        if w is None:
            w = wrapped[id(obj)] = tracer.wrap(f"{home}.{obj.__name__}", obj)
            wrapped[id(w)] = w
        return w

    for mod_name, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if not _is_function(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("svmsoc.") or home not in LAYERS:
                continue
            home_mod = modules[home]
            if home == mod_name:
                if name in getattr(mod, "__all__", ()) or (home, name) == ("cli", "main"):
                    setattr(mod, name, wrapper(obj, home))
                continue
            setattr(mod, name, wrapper(obj, home))
            if not name.startswith("_") and getattr(home_mod, name, None) is obj:
                setattr(home_mod, name, wrapper(obj, home))
