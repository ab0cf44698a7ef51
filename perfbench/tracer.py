"""Spans around the public functions of seifertq, installed from outside.

``Tracer.install`` replaces every public function of every loaded
``seifertq`` module at each name a caller binds: ``seifertq.tv.rt_closed``
and ``seifertq.rt.z_direct`` are wrapped as well as ``seifertq.rt.rt_closed``,
so calls between modules and inside one module are both seen.  The class
``RootContext`` is traced through its ``__init__``, and the coloring
generator of the state sum through each ``next()``, so that enumeration and
weighting separate.  ``uninstall`` puts every original back.

A span is (name, start, end, parent, call id, raised).  Spans go into
``array`` columns in memory and are only aggregated or written out after
the timed work ends.  The self time of a span is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so direct children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# The layers: every module of seifertq that has public functions.
MODULES = (
    "symbols",
    "congruence",
    "rootdata",
    "rt",
    "tv",
    "growth",
    "triangulation",
    "statesum",
    "cli",
)

_NO_PARENT = -1


class Tracer:
    """Records spans and per-call counts for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.raised = array("b")
        self._stack: list[int] = []
        self.call_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.call.append(self.call_id)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        if raised:
            self.raised[idx] = 1
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` (for calls made by the benchmark)."""
        idx = self.open(self.intern(name))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(idx, raised=True)
            raise
        self.close(idx)
        return result

    # -- wrapping ----------------------------------------------------------

    def _wrap_function(self, name: str, fn, hook):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, raised=True)
                raise
            tracer.close(idx)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    except BaseException:
                        tracer.close(idx, raised=True)
                        raise
                    tracer.close(idx)
                    yield item

            return traced()

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function at every seifertq binding."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"seifertq.{short}")
            public = getattr(module, "__all__", ["main"])
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isclass(fn) and attr == "RootContext":
                    init = fn.__init__
                    self._set(fn, "__init__", self._wrap_function("rootdata.RootContext", init, None))
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                label = f"{short}.{attr}"
                if short == "statesum" and attr == "enumerate_admissible_colorings":
                    wrappers[id(fn)] = self._wrap_generator("statesum.enumerate", fn)
                else:
                    wrappers[id(fn)] = self._wrap_function(label, fn, _HOOKS.get(label))
        for modname, module in list(sys.modules.items()):
            if modname != "seifertq" and not modname.startswith("seifertq."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The span columns as numpy arrays (views; record no span while they live)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: self seconds, total seconds, calls and raised calls."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        child = np.zeros(len(dur))
        nested = cols["parent"] >= 0
        np.add.at(child, cols["parent"][nested], dur[nested])
        own = dur - child
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = cols["name"] == nid
            out[name] = {
                "self_s": float(own[mask].sum()),
                "total_s": float(dur[mask].sum()),
                "calls": int(mask.sum()),
                "raised": int(cols["raised"][mask].sum()),
            }
        return out

    def children_per_span(self, child: str, ancestor: str) -> list[int]:
        """For every ``ancestor`` span, how many ``child`` spans run below it."""
        if ancestor not in self._name_ids:
            return []
        aid = self._name_ids[ancestor]
        counts = {idx: 0 for idx in range(len(self.name)) if self.name[idx] == aid}
        cid = self._name_ids.get(child)
        for idx in range(len(self.name)):
            if self.name[idx] != cid:
                continue
            up = self.parent[idx]
            while up != _NO_PARENT:
                if up in counts:
                    counts[up] += 1
                    break
                up = self.parent[up]
        return list(counts.values())

    def write(self, path) -> None:
        """Write the span columns and the name table as one compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


# Counts taken from arguments and results at the span boundary.


def _count_z_direct(counts, args, result) -> None:
    counts["rt.z_direct.terms"] += result.term_count


def _count_enumerate_solutions(counts, args, result) -> None:
    counts["congruence.enumerate_solutions.tried"] += 2 ** len(args[0])
    counts["congruence.enumerate_solutions.hits"] += 0 if result is None else result.cardinality


def _count_tv_statesum(counts, args, result) -> None:
    tri, r = args[0], args[1]
    counts["statesum.colorings"] += result.term_count
    counts["statesum.grid"] += ((r - 1) // 2) ** tri.edge_count


_HOOKS = {
    "rt.z_direct": _count_z_direct,
    "congruence.enumerate_solutions": _count_enumerate_solutions,
    "statesum.tv_statesum": _count_tv_statesum,
}
