"""The benchmark's open-loop request generator.

One thread sends requests on a Poisson schedule drawn from the workload
seed and serves each one before looking at the next, so a slow call
delays every request due behind it.  Latency is charged from the
scheduled arrival, which counts that queueing (no coordinated omission).

Two delays are told apart:

* ``lag``: how late the generator itself sent a request that was not
  waiting behind another one (sleep overshoot);
* ``backlog``: how many requests were already due when one was sent.
  Waiting behind a backlog is the system's delay and is inside latency.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

#: Sleep until this close to the due time, then spin: ``time.sleep``
#: overshoots by tens of microseconds.
_SPIN_S = 0.0005


@dataclass
class OpenLoopStep:
    """What one fixed-rate step measured (times in seconds)."""

    rate: float
    latencies: np.ndarray
    lags: np.ndarray
    max_backlog: int
    #: Requests not yet started when the last one fell due.
    backlog_at_end: int
    #: Calls that raised (each counts as missing any latency limit).
    errors: int

    def growing(self) -> bool:
        """True when the queue was still building at the end of the step."""
        return self.backlog_at_end > max(3, 0.01 * self.latencies.size)


def run_open_loop(
    call: Callable[[int], bool],
    request_ids: Sequence[int],
    rate: float,
    rng: np.random.Generator,
) -> OpenLoopStep:
    """Send ``request_ids`` in order at Poisson ``rate`` per second.

    ``call(i)`` serves request ``i`` and returns False when it failed.
    """
    count = len(request_ids)
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    latencies = np.empty(count)
    lags = np.zeros(count)
    starts = np.empty(count)
    max_backlog = 0
    errors = 0
    origin = time.perf_counter() + 0.002
    for i, request in enumerate(request_ids):
        deadline = origin + due[i]
        now = time.perf_counter()
        if now < deadline:
            if deadline - now > _SPIN_S:
                time.sleep(deadline - now - _SPIN_S)
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    break
            lags[i] = now - deadline
        else:
            backlog = int(np.searchsorted(due, now - origin, side="right")) - i
            max_backlog = max(max_backlog, backlog)
        starts[i] = now
        if not call(request):
            errors += 1
        latencies[i] = time.perf_counter() - deadline
    backlog_at_end = int((starts > origin + due[-1]).sum()) if count else 0
    return OpenLoopStep(
        rate=rate,
        latencies=latencies,
        lags=lags,
        max_backlog=max_backlog,
        backlog_at_end=backlog_at_end,
        errors=errors,
    )
