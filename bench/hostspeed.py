"""How fast the host runs Python at the moment: a fixed reference loop.

A shared host can change speed over seconds to minutes, independently of
the program, as other tenants come and go: on a 2-vCPU KVM guest this loop
ran up to 1.7x slower from one minute to the next.  The benchmark times `reference_loop` before and after every job
and every set-up probe, and every `SAMPLE_INTERVAL_S` while a job runs
(`Sampler`), and reports times scaled to the loop's nominal duration,
`REFERENCE_S`: a job that took 1.2 s while the loop took 0.6 ms reports
1.2 * 0.5 / 0.6 = 1.0 s.  A change to the program moves the scaled time as
it moves the wall time; a change of host speed moves both the job and the
loop, and cancels.  The unscaled wall times are kept in every record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Nominal seconds of one reference loop: the unit the scaled times are in.
REFERENCE_S = 0.0005
SAMPLE_INTERVAL_S = 0.2
_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def reference_loop(repeats: int = 3) -> float:
    """Seconds of a fixed pure-Python expansion, the best of `repeats`.

    Each sweep grows the word ball of radius 7 in Z^3 with tuple
    arithmetic and a set, like the program's own product expansions.  The
    garbage collector is off during the sweeps, so that the loop does not
    depend on what the program left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            seen = {(0, 0, 0)}
            frontier = [(0, 0, 0)]
            for _ in range(7):
                grown = []
                for x, y, z in frontier:
                    for a, b, c in _STEPS:
                        g = (x + a, y + b, z + c)
                        if g not in seen:
                            seen.add(g)
                            grown.append(g)
                frontier = grown
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def host_reference(samples: list[float]) -> float:
    """The reference loop's seconds over a stretch of time sampled evenly:
    the harmonic mean, so that scaling by it averages the host's speed."""
    return statistics.harmonic_mean(samples)


def scaled(seconds: float, reference_s: float) -> float:
    """`seconds` measured while the reference loop took `reference_s`,
    scaled to the loop's nominal speed."""
    return seconds * REFERENCE_S / reference_s


class Sampler:
    """Times the reference loop every SAMPLE_INTERVAL_S inside the `with`
    block, from a SIGALRM handler of the main thread.

    `samples` holds the loop's seconds; `wall_s` and `cpu_s` the wall and
    CPU seconds the handler took, which the caller takes off its own
    timing of the block.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference_loop(2))
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
