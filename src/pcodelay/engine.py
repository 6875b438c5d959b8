"""Deterministic event-driven simulator for delay-coupled pulse oscillators.

The network is all-to-all: n oscillators with phase in (0, 1] rising at unit
rate and state x = f(phase) given by a curves.CurveSpec.  An oscillator
reaching phase 1 fires: its phase resets to exactly 0.0 and one pulse is
delivered to every other oscillator after a fixed delay tau.  A pulse
arriving when the receiver sits at phase theta advances it to
jump(theta, 1); pulses arriving together combine their increments before
the inversion, and a receiver pushed to threshold fires in the same event.
An oscillator never receives its own pulse, so when m oscillators fire
together each firer later absorbs m - 1 pulses and every bystander m.

Execution is event-driven.  The only events are pulse arrivals and threshold
crossings; they are processed in time order, with events closer than
tol_time merged into one instant.  Times are absolute float64, and arrivals
are scheduled at exactly fire_time + tau, so the delayed copies of one
firing share one bit pattern.  Runs are deterministic: identical params,
initial phases and injected pulses give bit-identical trajectories, which
the command-line layer turns into byte-identical output files.

Pulses in flight are kept as volleys: every oscillator that fires in one
event sends its pulse after the same delay, so the queue is a deque of
(arrival_time, sources) pairs in arrival order.  The per-event work lives in
the numpy kernel _kernel.step_once, which pops the volleys due and appends
the new one; step() wraps it and raises RuntimeError on an event that makes
no progress.  Apart from the kernel, step() does no Python work per firer: a
few array operations keep each oscillator's last firing time for the running
min_interfire_gap.  The state keeps no firing history; a caller that needs
one reads it off the StepReports.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernel
from .curves import CouplingParams, CurveSpec, log_ratio

__all__ = ["ModelParams", "PendingSpike", "StepReport", "NetworkState"]


@dataclass(frozen=True)
class ModelParams:
    """Everything that defines one network: curve, coupling, tolerances.

    tol_time groups events into one instant and must stay well under the
    delay (enforced: < tau / 100) so grouped arrivals can never straddle a
    delay period.  tol_phase is the firing-detection band below 1; phases
    are compared against 1 - tol_phase, never against 1 exactly.
    """

    curve: CurveSpec
    coupling: CouplingParams
    tol_time: float = 1e-9
    tol_phase: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.tol_time < self.coupling.tau / 100.0):
            raise ValueError(
                f"tol_time must lie in (0, tau/100) = (0, {self.coupling.tau / 100.0}), "
                f"got {self.tol_time}"
            )
        if not (0.0 <= self.tol_phase < 1e-3):
            raise ValueError(f"tol_phase must lie in [0, 1e-3), got {self.tol_phase}")


class PendingSpike(NamedTuple):
    """One pulse in flight; delivered to every oscillator except its source."""

    arrival_time: float
    source: int


@dataclass(frozen=True)
class StepReport:
    """What one event did.

    arrival_sources lists the source of every pulse consumed at this event
    (duplicates possible only if duplicates were injected); fired lists the
    oscillators that reached threshold, in index order.  Each firer's
    outgoing pulse is due at exactly event_time + tau.
    """

    event_time: float
    arrival_sources: tuple[int, ...]
    fired: tuple[int, ...]


class NetworkState:
    """Mutable simulation state: clock, phases, pending volleys, last firings.

    Construct with phases in (0, 1]; exactly 1.0 is legal and fires at t=0,
    exactly 0 is not (a freshly reset oscillator implies a pulse already in
    flight, which a fresh state does not have; use inject_pending to build
    such configurations).

    Pending pulses are held as volleys, one (arrival_time, sources) pair
    per firing event; the pipeline view flattens them to one PendingSpike
    per pulse.

    Args:
        params: model definition.
        initial_phases: length-n sequence, each in (0, 1].
    """

    def __init__(self, params: ModelParams, initial_phases: Sequence[float]) -> None:
        n = params.coupling.n
        phases = np.array(initial_phases, dtype=np.float64).reshape(-1)
        if phases.shape[0] != n:
            raise ValueError(
                f"expected {n} initial phases, got {phases.shape[0]}"
            )
        if not np.all(np.isfinite(phases)):
            raise ValueError("initial phases must be finite")
        if phases.min() <= 0.0 or phases.max() > 1.0:
            raise ValueError(
                "initial phases must lie in (0, 1]; 0 is reserved for "
                "oscillators that just fired (see inject_pending)"
            )
        self.params = params
        self._now = 0.0
        self._phases = phases
        # Volleys (arrival_time, read-only int64 sources), in arrival order.
        self._pending: deque[tuple[float, np.ndarray]] = deque()
        self._big_i = params.curve.i
        self._log_ratio = log_ratio(params.curve)
        self._last_fire = np.full(n, -math.inf)
        self._min_gap = math.inf

    # ------------------------------------------------------------------
    # views

    @property
    def n(self) -> int:
        return self.params.coupling.n

    @property
    def now(self) -> float:
        return self._now

    @property
    def phases(self) -> np.ndarray:
        """Read-only view of the current phases."""
        view = self._phases.view()
        view.flags.writeable = False
        return view

    @property
    def pipeline(self) -> tuple[PendingSpike, ...]:
        """Pending pulses in arrival order."""
        return tuple(
            PendingSpike(t, s)
            for t, sources in self._pending
            for s in sources.tolist()
        )

    @property
    def min_interfire_gap(self) -> float:
        """Smallest gap between consecutive firings of one oscillator, +inf if none.

        Covers the whole run; audit_run over the run's reports gives the
        same value.
        """
        return self._min_gap

    def _pending_by_source(self) -> tuple[np.ndarray, np.ndarray]:
        """Pending pulses per source, for the analysis layer: (counts, due).

        counts[i] is the number of pulses pending from source i, and
        due[i, :counts[i]] holds their arrival times in ascending order;
        the rest of each row is 0.0.
        """
        n = self.n
        if not self._pending:
            return np.zeros(n, dtype=np.int64), np.zeros((n, 0))
        times, volleys = zip(*self._pending)
        srcs = np.concatenate(volleys)
        times = np.repeat(times, [v.shape[0] for v in volleys])
        order = np.lexsort((times, srcs))
        srcs = srcs[order]
        counts = np.bincount(srcs, minlength=n)
        # Each pulse's column: its rank among the pulses from its source.
        column = np.arange(srcs.shape[0]) - (np.cumsum(counts) - counts)[srcs]
        due = np.zeros((n, int(counts.max())))
        due[srcs, column] = times[order]
        return counts, due

    def __repr__(self) -> str:
        return (
            f"NetworkState(n={self.n}, now={self._now!r}, "
            f"pending={sum(v.shape[0] for _, v in self._pending)})"
        )

    def copy(self) -> "NetworkState":
        """Independent copy; stepping one state never affects the other.

        The two deques share their read-only volley arrays.
        """
        dup = object.__new__(NetworkState)
        dup.params = self.params
        dup._now = self._now
        dup._phases = self._phases.copy()
        dup._pending = deque(self._pending)
        dup._big_i = self._big_i
        dup._log_ratio = self._log_ratio
        dup._last_fire = self._last_fire.copy()
        dup._min_gap = self._min_gap
        return dup

    # ------------------------------------------------------------------
    # stepping

    def next_event_time(self) -> float:
        """Time of the next pulse arrival or threshold crossing."""
        t = self._now + (1.0 - float(self._phases.max()))
        if self._pending:
            t = min(t, self._pending[0][0])
        return t

    def step(self) -> StepReport:
        """Advance to the next event and process it.

        Raises RuntimeError when the event consumes no pulse and fires
        nobody.  That happens only when the absolute clock has grown so
        large that drifting to the threshold rounds short of it; stepping
        again would repeat the same empty event forever.
        """
        coupling = self.params.coupling
        t_event, arrived, fired = _kernel.step_once(
            self._phases, self._pending, self._now,
            self._big_i, self._log_ratio,
            coupling.epsilon, coupling.tau,
            self.params.tol_time, self.params.tol_phase,
        )
        self._now = t_event
        nf = fired.shape[0]
        if nf:
            # min over firers of t_event - last equals t_event - max(last):
            # the rounded subtraction is monotone in last.
            gap = t_event - float(self._last_fire[fired].max())
            if gap < self._min_gap:
                self._min_gap = gap
            self._last_fire[fired] = t_event
        elif arrived.shape[0] == 0:
            raise RuntimeError(
                f"event at t={t_event!r} consumed no pulse and fired nobody; "
                "the clock is too coarse to reach threshold"
            )
        return StepReport(
            event_time=t_event,
            arrival_sources=tuple(arrived.tolist()),
            fired=tuple(fired.tolist()),
        )

    def drift_to(self, t: float) -> None:
        """Advance the clock to t with no intervening event.

        Raises if an event falls in (now, t); callers step() past events
        first.  Drifting exactly onto an event time is allowed; the event
        then runs with zero drift on the next step().
        """
        if t < self._now:
            raise ValueError(f"cannot drift backwards: now={self._now}, t={t}")
        if t > self.next_event_time():
            raise ValueError(
                f"an event occurs at {self.next_event_time()} before t={t}; "
                "step() past it first"
            )
        dt = t - self._now
        if dt > 0.0:
            self._phases += dt
            np.minimum(self._phases, 1.0, out=self._phases)
            self._now = t

    def run_until_time(self, horizon: float) -> list[StepReport]:
        """Process every event with time <= horizon, then drift to horizon."""
        if horizon < self._now:
            raise ValueError(f"horizon {horizon} precedes current time {self._now}")
        reports: list[StepReport] = []
        while self.next_event_time() <= horizon:
            reports.append(self.step())
        self.drift_to(horizon)
        return reports

    def run_until_ref_fires(self, ref: int) -> list[StepReport]:
        """Step until oscillator ref fires; the last report contains it.

        Always terminates: excitatory coupling only shortens the wait, so
        ref fires within one unit of time.
        """
        if not 0 <= ref < self.n:
            raise ValueError(f"ref must be in [0, {self.n}), got {ref}")
        reports: list[StepReport] = []
        while True:
            report = self.step()
            reports.append(report)
            if ref in report.fired:
                return reports

    # ------------------------------------------------------------------
    # pipeline editing

    def inject_pending(
        self,
        spikes: Iterable[PendingSpike | tuple[float, int]],
        enforce_phase_offset: bool = False,
    ) -> None:
        """Load pulses already in flight (start a run mid-history).

        Every arrival time must lie in (now, now + tau]: a pulse cannot be
        older than one full delay.  With enforce_phase_offset=True each
        source must additionally sit at the phase an actual firing history
        would imply, tau minus the remaining flight time (within tol_phase);
        that is the configuration reachable from a real past, assuming the
        source absorbed nothing since it fired.
        """
        tau = self.params.coupling.tau
        incoming = []
        for item in spikes:
            spike = PendingSpike(*item)
            if not 0 <= spike.source < self.n:
                raise ValueError(f"source {spike.source} out of range")
            if not self._now < spike.arrival_time <= self._now + tau:
                raise ValueError(
                    f"arrival {spike.arrival_time} outside "
                    f"({self._now}, {self._now + tau}]"
                )
            if enforce_phase_offset:
                remaining = spike.arrival_time - self._now
                implied = tau - remaining
                actual = float(self._phases[spike.source])
                if abs(actual - implied) > self.params.tol_phase:
                    raise ValueError(
                        f"source {spike.source} at phase {actual}, but a pulse "
                        f"arriving in {remaining} implies phase {implied}"
                    )
            incoming.append(spike)
        if not incoming:
            return
        # One single-source volley per pulse, so that arrivals keep
        # (time, source) order however the pulses were grouped before.
        pending: deque[tuple[float, np.ndarray]] = deque()
        for t, s in sorted(list(self.pipeline) + incoming):
            volley = np.array([s], dtype=np.int64)
            volley.flags.writeable = False
            pending.append((float(t), volley))
        self._pending = pending
