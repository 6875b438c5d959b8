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

The state is one _kernel.Groups: the clock, the oscillators as groups of
equal phase, the pulses in flight and the rule that picks the next event.
This module validates what comes from outside and builds the reports; the
kernel processes each event whole, its guards included.  The state keeps no
firing history; a caller that needs one reads it off the StepReports, which
hold the kernel's read-only arrays and build a tuple on each read.

run(horizon) is the one stepping loop, a lazy generator of step()'s
reports up to the horizon; callers stop it early or stream it into audit_run.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _kernel
from .curves import CouplingParams, CurveSpec, _index, _Record, log_ratio

__all__ = ["ModelParams", "PendingSpike", "StepReport", "NetworkState"]


class ModelParams(_Record):
    """Everything that defines one network: curve, coupling, tolerances.

    tol_time groups events into one instant and must stay well under the
    delay (enforced: < tau / 100) so grouped arrivals can never straddle a
    delay period.  tol_phase is the firing-detection band below 1; phases
    are compared against 1 - tol_phase, never against 1 exactly.
    """

    def __init__(
        self,
        curve: CurveSpec,
        coupling: CouplingParams,
        tol_time: float = 1e-9,
        tol_phase: float = 1e-12,
    ) -> None:
        if not (0.0 < tol_time < coupling.tau / 100.0):
            raise ValueError(
                f"tol_time must lie in (0, tau/100) = (0, {coupling.tau / 100.0}), "
                f"got {tol_time}"
            )
        if not (0.0 <= tol_phase < 1e-3):
            raise ValueError(f"tol_phase must lie in [0, 1e-3), got {tol_phase}")
        # Python floats, as CouplingParams stores epsilon and tau.
        self.__dict__.update(
            curve=curve, coupling=coupling, tol_time=float(tol_time), tol_phase=float(tol_phase)
        )


class PendingSpike(NamedTuple):
    """One pulse in flight; delivered to every oscillator except its source."""

    arrival_time: float
    source: int


def _ids(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    """values as a read-only int64 array; TypeError unless they are integers
    that int64 holds."""
    ids = np.asarray(values)
    if ids.ndim != 1 or ids.size and not np.can_cast(ids.dtype, np.int64):
        raise TypeError(f"{name} must be a sequence of integers, got {values!r}")
    return _kernel._read_only(ids.astype(np.int64))


class StepReport:
    """What one event did.

    arrival_sources lists the source of every pulse consumed at this event
    (duplicates possible only if duplicates were injected); fired lists the
    oscillators that reached threshold, in index order.  Each firer's
    outgoing pulse is due at exactly event_time + tau.

    Both are stored as read-only int64 arrays, the kernel's own for the
    reports step() builds, and read as tuples of ints built on each access,
    so a run whose reports are never read builds none.  The constructor
    takes any sequence of integers and raises TypeError on any other value.
    Reports are immutable and compare, hash and print by (event_time,
    arrival_sources, fired).
    """

    __slots__ = ("_event_time", "_arrival_sources", "_fired")

    def __init__(
        self,
        event_time: float,
        arrival_sources: Sequence[int] | np.ndarray,
        fired: Sequence[int] | np.ndarray,
    ) -> None:
        self._event_time = event_time
        self._arrival_sources = _ids(arrival_sources, "arrival_sources")
        self._fired = _ids(fired, "fired")

    @property
    def event_time(self) -> float:
        return self._event_time

    @property
    def arrival_sources(self) -> tuple[int, ...]:
        return tuple(self._arrival_sources.tolist())

    @property
    def fired(self) -> tuple[int, ...]:
        return tuple(self._fired.tolist())

    def _key(self) -> tuple:
        return (self._event_time, self.arrival_sources, self.fired)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"StepReport(event_time={self._event_time!r}, "
            f"arrival_sources={self.arrival_sources!r}, fired={self.fired!r})"
        )


class NetworkState:
    """Mutable simulation state: the model and one kernel state.

    Construct with phases in (0, 1]; exactly 1.0 is legal and fires at t=0,
    exactly 0 is not (a freshly reset oscillator implies a pulse already in
    flight, which a fresh state does not have; use inject_pending to build
    such configurations).

    It holds params and the kernel state, _kernel.Groups, which also picks
    the next event and keeps top and t_next exact.  The pipeline view lists
    Groups.pulses() as one PendingSpike per pulse.

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
        # An increment of 1 takes any state to threshold, where curves.jump
        # caps it, so a larger epsilon acts like 1; capping it here keeps a
        # volley's summed increment finite in the kernel's frame.
        pulse = min(params.coupling.epsilon, 1.0) / params.curve.i
        self._groups = _kernel.Groups(
            phases, log_ratio(params.curve), pulse,
            params.coupling.tau, params.tol_time, 1.0 - params.tol_phase,
        )

    # ------------------------------------------------------------------
    # views

    @property
    def n(self) -> int:
        return self.params.coupling.n

    @property
    def now(self) -> float:
        return self._groups.now

    @property
    def phases(self) -> np.ndarray:
        """Read-only array of the current phases, materialized from the groups."""
        return self._groups.phases()

    @property
    def top(self) -> float:
        """The largest phase, the front group's: equal to phases.max()."""
        return self._groups.top

    @property
    def bottom(self) -> float:
        """The smallest phase, the back group's: equal to phases.min()."""
        return self._groups.phase(0)

    @property
    def pipeline(self) -> tuple[PendingSpike, ...]:
        """Pending pulses in arrival order."""
        times, sources = self._groups.pulses()
        return tuple(map(PendingSpike, times.tolist(), sources.tolist()))

    @property
    def min_interfire_gap(self) -> float:
        """Smallest gap between consecutive firings of one oscillator, +inf if none.

        Covers the whole run; audit_run over the run's reports gives the
        same value.
        """
        return self._groups.min_gap

    def __repr__(self) -> str:
        return (
            f"NetworkState(n={self.n}, now={self.now!r}, "
            f"pending={self._groups.pulses()[1].shape[0]})"
        )

    def copy(self) -> "NetworkState":
        """Independent copy; stepping one state never affects the other.

        The two share their read-only member and volley arrays.
        """
        dup = object.__new__(NetworkState)
        dup.params = self.params
        dup._groups = self._groups.copy()
        return dup

    # ------------------------------------------------------------------
    # stepping

    def next_event_time(self) -> float:
        """Time of the next pulse arrival or threshold crossing."""
        return self._groups.t_next

    def step(self) -> StepReport:
        """Advance to next_event_time() and process the event there.

        _kernel.step_once raises RuntimeError when the event consumes no
        pulse and fires nobody: the time next_event_time() gave is then
        neither an arrival nor a crossing, and stepping again would repeat
        the empty event.

        Observable on this path: next_event_time(), which a subclass may
        override; _kernel.step_once, looked up at each call so that a wrapper
        on the module sees every event; and the kernel's global bisect_left.
        """
        t_event = self.next_event_time()
        arrived, fired = _kernel.step_once(self._groups, t_event)
        # object.__new__ and three slot stores skip the __init__ call (190
        # against 250 ns, timeit).  StepReport is looked up here, at call
        # time, so a subclass patched over it is built instead.
        report = object.__new__(StepReport)
        report._event_time = t_event
        report._arrival_sources = arrived
        report._fired = fired
        return report

    def drift_to(self, t: float) -> None:
        """Advance the clock to t with no intervening event.

        Raises ValueError if t precedes now or is NaN, or if an event falls
        in (now, t); callers step() past events first.  Drifting exactly onto
        an event time is allowed; the event then runs with zero drift.
        """
        # A numpy float32 would compare and store in float32, 1e-7 off.
        t = float(t) if isinstance(t, numbers.Real) else t
        if not t >= self.now:
            raise ValueError(f"cannot drift backwards: now={self.now}, t={t}")
        t_next = self.next_event_time()
        if t > t_next:
            raise ValueError(
                f"an event occurs at {t_next} before t={t}; step() past it first"
            )
        self._groups.drift(t)

    def run(self, horizon: float = math.inf) -> Iterator[StepReport]:
        """Yield step() for every event with time <= horizon, in order.

        Lazy: the state advances as reports are consumed.  Once no event
        is left at or before a finite horizon, the state drifts to it (with
        the default horizon the run never ends); a caller that stops early
        leaves the state at the last event it was given.  Raises ValueError
        on the first next() if horizon precedes the current time or is NaN.
        """
        horizon = float(horizon) if isinstance(horizon, numbers.Real) else horizon
        if not horizon >= self.now:
            raise ValueError(f"horizon {horizon} precedes current time {self.now}")
        groups = self._groups
        while groups.t_next <= horizon:
            yield self.step()
        self.drift_to(horizon)

    # ------------------------------------------------------------------
    # pipeline editing

    def inject_pending(self, spikes: Iterable[PendingSpike | tuple[float, int]]) -> None:
        """Load pulses already in flight (start a run mid-history).

        Every arrival time must lie in (now, now + tau]: a pulse cannot be
        older than one full delay.
        """
        tau = self.params.coupling.tau
        now = self.now
        incoming = []
        for item in spikes:
            t, s = PendingSpike(*item)
            if not isinstance(t, numbers.Real):
                raise ValueError(f"arrival {t!r} is not a real number")
            # float first: a numpy float32 would compare in float32.
            spike = PendingSpike(float(t), _index(s, "source", 0, self.n))
            if not now < spike.arrival_time <= now + tau:
                raise ValueError(
                    f"arrival {spike.arrival_time} outside ({now}, {now + tau}]"
                )
            incoming.append(spike)
        if incoming:
            # One pulse per volley, so that arrivals keep (time, source)
            # order however the pulses were grouped before.
            self._groups.load(sorted([*self.pipeline, *incoming]))
