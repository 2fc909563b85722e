"""In-memory span tracer installed from outside the program.

The traced run wraps public callables of ``repro`` modules (class methods and
module-level functions) with timing shims.  Each call becomes one span:
name, start, end and the index of the span that was open when it started.
Spans stay in memory and are written out once, when the run ends.  Only the
thread that created the tracer records spans; calls from other threads (the
serving tier's dispatcher and collector) pass straight through.

The untraced run installs nothing, so its end-to-end numbers carry no
tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time

import numpy as np


def region(tracer: "Tracer | None", name: str):
    """A span named ``name`` when tracing, otherwise nothing."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Tracer:
    """Append-only span log with a parent stack (single recording thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: TeacherCache objects seen by the traced lookup, by id
        self.caches: dict[int, object] = {}
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording                                                            #
    # ------------------------------------------------------------------ #
    def recording(self) -> bool:
        return threading.get_ident() == self._thread

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # ------------------------------------------------------------------ #
    # Installing wrappers                                                  #
    # ------------------------------------------------------------------ #
    def timed(self, name, fn):
        """``fn`` wrapped so each call on the recording thread is a span.

        ``name`` is a string or a callable ``(args) -> str`` choosing the
        span name per call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            index = tracer.open(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def timed_generator(self, name, fn):
        """Wrap a generator function so each ``next()`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if not tracer.recording():
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                else:
                    index = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                yield item

        return traced

    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]
                              if isinstance(owner, type)
                              else getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap_method(self, cls: type, attribute: str, name, generator=False):
        """Wrap ``cls.attribute`` when ``cls`` itself defines it."""
        if attribute not in cls.__dict__:
            return
        original = cls.__dict__[attribute]
        wrapper = (self.timed_generator(name, original) if generator
                   else self.timed(name, original))
        self.patch(cls, attribute, wrapper)

    def wrap_function(self, fn, name) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it."""
        wrapper = self.timed(name, fn)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Analysis                                                             #
    # ------------------------------------------------------------------ #
    def _arrays(self):
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends, dtype=np.float64)
        parents = np.asarray(self.parents, dtype=np.int64)
        return starts, ends, parents

    def durations(self) -> np.ndarray:
        starts, ends, _ = self._arrays()
        return ends - starts

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part its direct children cover."""
        durations = self.durations()
        _, _, parents = self._arrays()
        child_time = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        return durations - child_time

    def roots_of(self) -> np.ndarray:
        """Index of the top-level span each span descends from."""
        _, _, parents = self._arrays()
        roots = np.arange(len(parents))
        for index, parent in enumerate(parents):  # parents precede children
            if parent >= 0:
                roots[index] = roots[parent]
        return roots

    def outermost(self) -> np.ndarray:
        """Mask of spans with no ancestor of the same name (no double count)."""
        mask = np.ones(len(self.names), dtype=bool)
        for index, parent in enumerate(self.parents):
            ancestor = parent
            while ancestor >= 0:
                if self.names[ancestor] == self.names[index]:
                    mask[index] = False
                    break
                ancestor = self.parents[ancestor]
        return mask

    def layer_table(self, root_names: tuple[str, ...]) -> dict[str, dict]:
        """Per span name under the given roots: calls, total, self, p50, max."""
        if not self.names:
            return {}
        durations = self.durations()
        selfs = self.self_times()
        roots = self.roots_of()
        keep_root = np.array([self.names[r] in root_names for r in roots])
        outer = self.outermost()
        names = np.asarray(self.names)
        table = {}
        for name in sorted(set(names[keep_root])):
            mask = keep_root & (names == name)
            inclusive = durations[mask & outer]
            table[name] = {
                "calls": int(inclusive.size),
                "total_ms": float(inclusive.sum() * 1e3),
                "self_ms": float(selfs[mask].sum() * 1e3),
                "p50_ms": float(np.median(inclusive) * 1e3),
                "max_ms": float(inclusive.max() * 1e3),
            }
        return table

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in zip(self.names, self.starts,
                                                self.ends, self.parents):
                handle.write(json.dumps({
                    "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent}) + "\n")
