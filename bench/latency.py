"""A model backend that stands in for a remote one: fixed latency per call.

``LatencyModel`` wraps a ``ScriptedModel``, sleeps a fixed time on every
call, and reports the inner backend id, so a trace made at any latency is
byte-identical to one made at 0 ms.  It logs the start and end of every
call; overlapping intervals then give the number of serial round trips.
It also logs each wait, which is time spent on the simulated remote.
The sleep happens outside any lock, so an engine that issues calls from
several threads really does overlap them.
"""

from __future__ import annotations

import threading
import time

from gabm.model import GenerativeModel, ScriptedModel


class LatencyModel(GenerativeModel):
    def __init__(self, inner: ScriptedModel, latency_ms: float):
        super().__init__()
        self.inner = inner
        self.latency_s = latency_ms / 1000.0
        self._lock = threading.Lock()
        # (start, end, caller, prompt chars) per call, in completion order.
        self.calls: list[tuple[float, float, str, int]] = []
        # (start, end) of every simulated wait; the benchmark leaves this
        # time unscaled when it scales the rest of a turn to the host.
        self.waits: list[tuple[float, float]] = []

    @property
    def backend_id(self) -> str:
        return self.inner.backend_id

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        if self.latency_s:
            start = time.perf_counter()
            time.sleep(self.latency_s)
            end = time.perf_counter()
            with self._lock:
                self.waits.append((start, end))
        return self.inner._complete(prompt, max_chars)

    def sample_text(self, prompt: str, *, max_chars: int | None = None, caller: str = "") -> str:
        start = time.perf_counter()
        response = super().sample_text(prompt, max_chars=max_chars, caller=caller)
        end = time.perf_counter()
        with self._lock:
            self.calls.append((start, end, caller, len(prompt)))
        return response


def serial_rounds(calls: list[tuple[float, float, str, int]]) -> int:
    """Number of groups of calls whose intervals overlap one another."""
    rounds = 0
    busy_until = float("-inf")
    for start, end, _, _ in sorted(calls):
        if start >= busy_until:
            rounds += 1
        busy_until = max(busy_until, end)
    return rounds
