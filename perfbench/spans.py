"""In-memory span recorder for the benchmark's traced runs.

The benchmark wraps the public function of each layer it measures (see
``run.py`` and ``deploy.py``) with :meth:`SpanRecorder.wrap`.  Every call then
files one span: its name, start and end (``time.perf_counter`` seconds), the
span that was open on the same thread when it started (its parent) and a
shared id that ties together the spans of one decision.  Spans stay in memory
until :func:`write_spans` writes them out at the end of the run.

Nothing here is imported by the program; the wrappers are installed only in
traced runs and removed again by :meth:`SpanRecorder.unwrap_all`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

__all__ = ["SpanRecorder", "read_spans", "summarize", "write_spans"]


class SpanRecorder:
    """Collects spans from any thread; wraps and unwraps layer functions."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent id, shared id, size)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ----------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, shared_id=None, size=None) -> None:
        """File a span measured by the caller (e.g. a queue wait)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        self.spans.append((next(self._ids), name, start, end, parent, shared_id, size))

    def call(self, name: str, function: Callable, args, kwargs, shared_id=None,
             size: Optional[Callable] = None):
        """Run ``function`` inside a span named ``name``.

        ``shared_id`` defaults to the enclosing span's; ``size(result)``, when
        given, is stored with the span (frame bytes, batch size).
        """
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        if shared_id is None and stack:
            shared_id = stack[-1][1]
        span_id = next(self._ids)
        stack.append((span_id, shared_id))
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append(
            (span_id, name, start, end, parent, shared_id,
             None if size is None else size(result))
        )
        return result

    # -------------------------------------------------------------- patching
    def wrap(self, owner, attribute: str, name: str,
             shared_id: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``shared_id(*args, **kwargs)`` derives the decision id from the call;
        without it the span takes the id of the span it runs inside.
        """
        # A class's own __dict__ keeps staticmethod wrappers visible.
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        static = isinstance(original, staticmethod)
        function = original.__func__ if static else original
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            sid = shared_id(*args, **kwargs) if shared_id is not None else None
            return recorder.call(name, function, args, kwargs, sid)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, staticmethod(wrapper) if static else wrapper)

    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace ``owner.attribute`` with a hand-written wrapper."""
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def unwrap_all(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def write_spans(path, *span_lists) -> None:
    """Write the spans of one or more processes as JSON, one list per span."""
    fields = ("id", "name", "start", "end", "parent", "shared_id", "size")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": fields, "processes": [list(spans) for spans in span_lists]},
                  handle)


def read_spans(path) -> list:
    """The spans of the first process in a :func:`write_spans` file."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["processes"][0]


def summarize(spans) -> dict:
    """Per span name: count, total seconds and total size."""
    totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for _, name, start, end, _, _, size in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        if size is not None:
            entry[2] += size
    return {
        name: {"count": count, "seconds": seconds, "size": size}
        for name, (count, seconds, size) in totals.items()
    }
