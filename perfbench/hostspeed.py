"""Host speed references, so that times measured on a shared host can be normalised.

On a shared host the speed of a core changes from second to second with the
load of other tenants: the same pure-Python loop takes from 0.16 to 0.30 s
within a minute, and a fresh interpreter that imports numpy from 0.11 to
0.22 s.  Such phases last longer than a run, so medians over a run do not
remove them.  Each time the benchmark reports is therefore measured next to
a fixed reference job that does not touch rispect, and reported as

    program seconds * reference job's time on a quiet host / reference job's time now,

the time the work would take on a quiet host.  The host's speed cancels; the
program's own cost does not, because the reference job is the same code on
every commit.  There are two references, one for each kind of work timed:

* In-process work (the commands): a calibration kernel (interpreted float
  arithmetic, calls, sorting and a dict).  While the program runs,
  `Sampler` times the kernel from a SIGALRM handler every `INTERVAL_S`, so
  the samples fall inside the program's own stretch of time and on the same
  CPU; the time spent in the handler is subtracted from the program's
  timings.  Each sample first runs `WARM_ROUNDS` untimed, so that it times
  the core, not the cache misses the program's working set leaves behind.
  Timing the kernel on its own, back to back before and after the work, does
  not do: the other CPU of the same machine can run at another speed at the
  same moment, and the speed moves within tens of milliseconds.
* Fresh-interpreter set-up: a fresh interpreter that imports what rispect
  needs from outside the repository (`REFERENCE_SNIPPET`), run right before
  or after each set-up interpreter.  Interpreter start, file reads and
  imports slow down with the host in ways the in-process kernel does not
  follow.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

# Reference times on a 2-core Xeon VM (Python 3.11, numpy 2.4) in a quiet
# phase; they only set the scale of the normalised times.
REFERENCE_KERNEL_S = 4.0e-4
REFERENCE_INTERPRETER_S = 0.11
REFERENCE_SNIPPET = "import argparse, json, numpy"
INTERVAL_S = 0.005
WARM_ROUNDS = 2

_XS = [((i * 7919) % 1000) / 997.0 + 0.01 for i in range(40)]


def kernel(rounds: int = 25) -> float:
    acc = 0.0
    for _ in range(rounds):
        for x in _XS:
            acc += math.log(x) * x**0.75 + math.sqrt(x)
        order = sorted(range(len(_XS)), key=_XS.__getitem__)
        table = {i: _XS[i] for i in order}
        acc += sum(table[i] for i in order[::3])
    return acc


def program_time(start: tuple, end: tuple) -> float:
    """Seconds between two marks, less the kernel time spent between them."""
    return (end[0] - start[0]) - (end[1] - start[1])


def plain_mark() -> tuple:
    """A mark without a sampler: nothing to subtract, no samples."""
    return time.perf_counter(), 0.0, 0


class Sampler:
    """Times `kernel` every `INTERVAL_S` while entered as a context manager."""

    def __init__(self) -> None:
        self.samples = array("d")
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel(WARM_ROUNDS)
        t1 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t1)
        self.spent += time.perf_counter() - t0

    def mark(self) -> tuple:
        """A point in time: (clock, kernel time spent so far, samples so far)."""
        return time.perf_counter(), self.spent, len(self.samples)

    def normalised(self, start: tuple, end: tuple, pad: int = 0) -> float:
        """`program_time` scaled by the mean kernel time between the marks.

        `pad` widens the window of samples by that many on each side, for
        stretches shorter than a few sampling intervals."""
        window = self.samples[max(0, start[2] - pad) : end[2] + pad]
        if not window:
            raise RuntimeError("no host speed sample between the two marks")
        return program_time(start, end) * REFERENCE_KERNEL_S * len(window) / sum(window)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
