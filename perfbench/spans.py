"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the program's layers at run time,
from the benchmark's own files; nothing under ``src/`` knows about it.
Each wrapped call records one span: ``(id, name, start, end, parent,
request)``.  Spans are kept in memory and written out when the run ends.

Parentage follows the calling thread's stack of open spans.  A span
opened on a thread with no open span (the worker pool's fan-out threads)
takes as parent the innermost span open on the driving thread, so the
pool's transport calls nest under ``WorkerPool.query_batch``.  Self time
is a span's duration minus the union of the intervals its children
cover, so children running in parallel on other threads are not counted
twice.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any


class SpanRecorder:
    """Records spans around wrapped callables while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        #: request id stamped on every span; the workload bumps it per call.
        self.request = 0
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_main_thread(self) -> None:
        """Make the calling thread the one other threads' spans anchor to."""
        self._main_stack = self._stack()

    def traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call records a span called ``name``."""
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                anchor = recorder._main_stack
                parent = anchor[-1] if anchor else 0
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, recorder.request)
                )

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced version until :meth:`restore`.

        Class attributes keep their kind: a classmethod or staticmethod
        is re-wrapped as one, so bound calls see the same arguments.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.traced(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.traced(name, raw.__func__))
        elif isinstance(owner, type) and not callable(getattr(raw, "__get__", None)):
            # A builtin stored on a class (``ForkingPickler.loads``) is
            # not bound on access; keep it unbound.
            replacement = staticmethod(self.traced(name, raw))
        else:
            replacement = self.traced(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(
    spans: Iterable[tuple[int, str, float, float, int, int]],
) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(
            children.get(span_id, []), start, end
        )
    return out

