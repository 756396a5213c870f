"""Span recording around the program's public entry points.

:class:`Tracer` replaces a function or method with a wrapper that records
one span per call -- name, start, end and the span that was open when the
call began -- and restores the original on :meth:`Tracer.uninstall`.  Spans
stay in flat in-memory arrays while the run lasts and are written out once
(:meth:`Tracer.write`) after it ends.

A layer's *self time* is the duration of its spans minus the part covered by
their child spans, so the self times of all layers and the unattributed
remainder add up to the traced wall time.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer"]


class Tracer:
    """Wraps callables in span-recording shims; off until :meth:`start`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.recording = False
        self.clear()

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a module or a class.  Class- and static methods keep
        their kind.  ``on_call(*args, **kwargs)`` runs just before each
        call, in a ``trace.hooks`` span of its own so that its cost is not
        charged to ``name`` (for counters that need the arguments).
        """
        original = owner.__dict__[attr]
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if kind else original
        span_id = self._span_id(name)
        hook_id = self._span_id("trace.hooks")
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            if on_call is not None:
                hook = tracer._open(hook_id)
                on_call(*args, **kwargs)
                tracer._close(hook)
            index = tracer._open(span_id)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", attr)
        self.replace(owner, attr, kind(traced) if kind else traced)

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every recorded span."""
        self._span = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def _open(self, span_id: int) -> int:
        index = len(self._span)
        self._span.append(span_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` (summed span durations) and
        ``self_s`` (summed durations minus the time their child spans took)."""
        span = np.array(self._span, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int32)
        duration = np.array(self._end) - np.array(self._start)
        children = np.zeros(len(span))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        own = duration - children
        result: Dict[str, Dict[str, float]] = {}
        for span_id, name in enumerate(self.names):
            mine = span == span_id
            result[name] = {
                "calls": int(mine.sum()),
                "total_s": float(duration[mine].sum()),
                "self_s": float(own[mine].sum()),
            }
        return result

    def write(self, path) -> None:
        """Write the spans as tab-separated ``name start end parent`` lines,
        times in seconds from the first span."""
        origin = self._start[0] if len(self._start) else 0.0
        with open(path, "w") as handle:
            handle.write("name\tstart_s\tend_s\tparent\n")
            for index in range(len(self._span)):
                handle.write(
                    f"{self.names[self._span[index]]}\t"
                    f"{self._start[index] - origin:.9f}\t"
                    f"{self._end[index] - origin:.9f}\t{self._parent[index]}\n"
                )
