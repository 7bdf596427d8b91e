"""Host speed, sampled inside the process that runs the program.

On a shared 2-vCPU virtual machine the same Python code ran at speeds up
to about 1.9x apart. The speed drifted within seconds and held a level
for seconds to minutes, so a 30-second run's raw wall time depended on
when it ran: across runs of the same code its quartiles spread by a
quarter to a third of the median. Timing more work in a run did not help,
because the slow and fast stretches last longer than a run.

The speed does hold steady over a few tens of milliseconds. So while an
invocation runs, a timer interrupts it every ``INTERVAL_S`` and times a
fixed piece of exact rational arithmetic, ``kernel``, in the same
process. The invocation's time, less those samples, divided by the mean
sample, is its duration in samples. That ratio moves with the program,
not with the host: on one ladder pass after another, the raw pass time
spread by 0.32 of its median and the ratio by 0.04.

Each reported ``*_ref_s`` figure is that ratio times ``REFERENCE_SAMPLE_S``:
the invocation's duration on a host where one sample takes 1 ms. Samples
took 0.6 to 1.1 ms on the 2-vCPU machine above, so these figures are near
its raw seconds. Limits: the samples measure pure-Python arithmetic on
small fractions, so a slowdown that hits the program but not them (say,
memory traffic from other tenants) still shows; and the samples run with
the garbage collector paused, so they do not pay for the program's heap.
"""

from __future__ import annotations

import contextlib
import gc
import signal
from fractions import Fraction
from time import perf_counter
from typing import Callable

INTERVAL_S = 0.02
REFERENCE_SAMPLE_S = 1e-3


def kernel() -> Fraction:
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = x * Fraction(i, i + 2) + Fraction(1, i)
    return x


class Sampler:
    """Times ``kernel`` once on entry and on every timer tick while running."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))
        if enabled:
            gc.enable()

    @contextlib.contextmanager
    def running(self):
        kernel()  # untimed: the first run after a fork pays for copied pages
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy_between(self, start: float, end: float) -> float:
        """Time spent sampling in samples that started in ``[start, end)``."""
        return sum(d for s, d in self.samples if start <= s < end)

    def reference_seconds(self, seconds: float) -> float:
        """``seconds`` of work, timed at the speed the samples saw, at reference speed."""
        return seconds * REFERENCE_SAMPLE_S / (sum(d for _, d in self.samples) / len(self.samples))


def bracketed(run: Callable[[], object]) -> tuple[float, float]:
    """Raw and reference duration of ``run()``, for work done in another
    process, where the timer cannot reach: three speed samples are taken
    just before it and three just after it."""
    sampler = Sampler()
    kernel()
    for _ in range(3):
        sampler.sample()
    start = perf_counter()
    run()
    seconds = perf_counter() - start
    for _ in range(3):
        sampler.sample()
    return seconds, sampler.reference_seconds(seconds)
