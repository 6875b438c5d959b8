"""Host-speed references: fixed computations timed before, during and after
every measured call.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x, over times from under a second to minutes, invisibly to the guest
(process CPU time equals wall time, no steal is reported).  A fixed
computation slows down with the call it is timed next to, so

    scaled = net wall * NOMINAL_S / mean(reference samples)

is the call's time at the host speed at which the reference takes
NOMINAL_S (each reference is sized to take about that long on a quiet 2-core
x86-64 VM).  Speed changes within a call too, so the reference is sampled
during the call as well: a profiling timer (SIGPROF, every SAMPLE_EVERY_S of
CPU time) runs one reference in its signal handler, and the time spent in
handlers is taken out of the call's wall time.  The raw times are kept too.

Slow periods do not slow every kind of work alike: interpreter-bound Python
and numpy calls on arrays of 10^2 to 10^4 elements drift by different
factors.  So each workload gets a reference shaped like its own hot path:
event steps of a delay-free pulse-coupled network of its size (drift to the
next threshold, jump by the phase response, reset the firers, box the fired
indices into a tuple), or scalar float arithmetic through a dict.  The
references live in the benchmark and share no code with the program, so a
change to the program cannot change them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

LOG_RATIO = math.log(1.0 - 1.0 / 1.05)  # phase response of I = 1.05
SAMPLE_EVERY_S = 0.05  # CPU time between reference samples inside a call
NOMINAL_S = 0.003


@dataclass(frozen=True)
class Reference:
    """A fixed computation of about NOMINAL_S shaped like one workload's hot path.

    n, events, fired: `events` event steps on n phases, boxing `fired`
        indices per event (0 events for none).
    scalar_rounds: rounds of interpreter-bound scalar arithmetic.
    """

    n: int = 0
    events: int = 0
    fired: int = 0
    scalar_rounds: int = 0

    def work(self) -> float:
        acc = 0.0
        if self.events:
            n = self.n
            phases = np.linspace(0.5 / n, 1.0, n)
            src = np.arange(n, dtype=np.int64) % 97
            for e in range(self.events):
                top = float(phases.max())
                phases += 1.0 - top
                np.minimum(phases, 1.0, out=phases)
                m = np.bincount(src[: e % 13 + 1], minlength=n)
                y = 1.05 * -np.expm1(LOG_RATIO * phases) + m * (0.1 / n)
                np.minimum(y, 1.0, out=y)
                jumped = np.log1p(-y / 1.05) / LOG_RATIO
                np.copyto(phases, jumped, where=m > 0)
                fired = np.nonzero(phases >= 1.0 - 1e-12)[0]
                phases[fired] = 0.0
                boxed = tuple(int(i) for i in src[: self.fired])
                acc += top + len(boxed) + len(fired)
        x = 0.05
        state = {"x": x}
        for i in range(self.scalar_rounds):
            y = 1.05 * -math.expm1(LOG_RATIO * x) + 0.001
            x = math.log1p(-min(y, 0.999) / 1.05) / LOG_RATIO * 0.999 + 1e-3
            state["x"] = x if i & 1 else -x
            acc += state["x"] * x if x < 0.5 else len(state) - x
        return acc

    def seconds(self) -> float:
        """Wall time of one computation."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self, wall_s: float, samples: list[float]) -> float:
        """wall_s at the nominal host speed, from the samples taken with it."""
        return wall_s * NOMINAL_S / statistics.fmean(samples)


class Sampler:
    """Context manager: samples `reference` every SAMPLE_EVERY_S of CPU time.

    Entering returns the list the sample times are appended to.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: list[float] = []

    def _on_tick(self, signum, frame) -> None:
        self.samples.append(self.reference.seconds())

    def __enter__(self) -> list[float]:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self.samples

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


# pcodelay's import and set-up: module bodies, dataclasses, config parsing.
SETUP_REFERENCE = Reference(scalar_rounds=4_500)
