"""Host speed, measured beside the engine's work, to scale the benchmark's times.

The benchmark runs on a shared machine whose speed drifts: other load slows
this process by up to a half for tens of seconds at a time, in CPU time as
much as in wall time, so the fastest of several tries is slow too.  Every
timed section is therefore bracketed by runs of ``reference``, a fixed
pure-Python routine doing the kind of work the engine does (dict counts,
float sums, string joins, a sort).  A section that took ``t`` while the
reference took ``r`` around it is reported as ``t * REF_S / r``: the time
it would take on a host where the reference takes ``REF_S``.  Time spent
waiting on the simulated model does not scale with the host and is left
as measured.

A section that runs long, such as a build that embeds 40k memories, can
span a change of host speed, so ``Sampler`` also runs the reference every
``PERIOD_S`` from a wall-clock timer signal while the section runs, and
scales each stretch between two measurements by their mean.

The reference is part of the benchmark, not of the program, and must not
change: scaled times of two commits compare only under the same one.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

# About what the reference takes on an unloaded 2.1 GHz Xeon vCPU under
# CPython 3; it only sets the scale of the reported times.
REF_S = 0.0005

_WORDS = tuple(f"w{i}" for i in range(200))
_VECTOR = tuple((i * 37 % 101) / 101 for i in range(64))


def reference() -> int:
    counts: dict[str, int] = {}
    rows = []
    for i in range(140):
        word = _WORDS[i * 7 % 200]
        counts[word] = counts.get(word, 0) + 1
        score = sum(a * b for a, b in zip(_VECTOR, _VECTOR[i % 7:]))
        rows.append((score, word, " ".join(_WORDS[i % 50:i % 50 + 5])))
    rows.sort()
    return len(counts) + len(rows)


def measure(repeats: int = 1) -> tuple[float, float]:
    """(wall s, CPU s) of one run of ``reference``, the median of ``repeats``."""
    walls, cpus = [], []
    for _ in range(repeats):
        wall, cpu = perf_counter(), process_time()
        reference()
        cpus.append(process_time() - cpu)
        walls.append(perf_counter() - wall)
    return statistics.median(walls), statistics.median(cpus)


# Seconds of wall time between measurements inside a section.
PERIOD_S = 0.02


class Sampler:
    """Scaled duration of one section, measured at its ends and every PERIOD_S.

    ``with Sampler(repeats) as sampler: call()`` then ``sampler.scaled()``.
    The timer's handler runs in the main thread between bytecodes; the
    time it spends is left out of the section.  Only the main thread may
    use it.
    """

    def __init__(self, repeats: int):
        self.repeats = repeats
        # (wall when the measurement began, wall when it ended, reference wall s)
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, repeats: int) -> None:
        began = perf_counter()
        ref, _ = measure(repeats)
        self.samples.append((began, perf_counter(), ref))

    def _on_timer(self, signum, frame) -> None:
        self._sample(1)

    def __enter__(self) -> Sampler:
        self._sample(self.repeats)
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(self.repeats)

    def scaled(self) -> float:
        """The section's time at reference speed, measurements left out."""
        total = 0.0
        for (_, resumed, ref0), (paused, _, ref1) in zip(self.samples, self.samples[1:]):
            total += (paused - resumed) * REF_S * 2 / (ref0 + ref1)
        return total
