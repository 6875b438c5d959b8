"""Grouped event kernel: the state and the hot loop of NetworkState.step.

Write u = exp(a * phase), with a = curves.log_ratio < 0, so that
u = 1 - f(phase) / I.  Drifting by dt multiplies every u by exp(a * dt),
and m pulses subtract m * epsilon / I from a receiver's u.  Both updates are
the same for every oscillator that is not a source of the pulses, so the
state is affine in one frame shared by the whole network:

    u_i = alpha * (v_i + gamma),   alpha = exp(a * s),   v_i = exp(a * w_i),

where s = now - epoch is the drift since the frame began.  A drift moves
only the clock; an arrival of k pulses lowers gamma by k * epsilon / (I *
alpha) and raises v by epsilon / (I * alpha) per own pulse for its sources
only; a reset sets u = 1.  A group's phase is therefore

    phase = s + log(exp(a * w) + gamma) / a,   or s + w while gamma == 0,

so w is the group's phase at the epoch, corrected for the pulses it did not
share with the rest.  The second form keeps a network that absorbed nothing
since the epoch exact: initial phases read back bit for bit and pure drift
adds time like the phase-space model.  When alpha would fall below 1e-3 the
frame is renormalized: every w becomes the group's current phase and the
epoch moves to now.

Oscillators that share w bit for bit form a group.  Groups are kept in three
parallel deques ordered by ascending w: index -1 is the front (the highest
phase, next to fire) and index 0 the back.  Each group has its members, a
read-only array or, for a group untouched since construction, its index
into the runs of one sorted index array, and the time they last fired.
Groups also owns the clock, the running minimum gap between two firings of
one oscillator, the constants epsilon / I, tau, tol_time and 1 - tol_phase,
and the queue: volleys (arrival_time, sources, link) in arrival order, one
per firing event, read through pulses() and replaced through load().  link
is the w the source group had when it was reset, or NaN (equal to no w,
renormalized to NaN) for loaded pulses.  Every new volley is due at
event_time + tau, no earlier than any pending one, so the queue stays sorted
without sorting.

top is the front group's phase and t_next the earlier of its threshold
crossing and the first arrival; drift(t) moves the clock, spread() is the
largest minus the smallest phase in O(1), and check() asserts the contract
below in O(n log n + G + P), called by no event.  step_once is the whole
event, one function with the state in locals, its guards included: it
delivers the volley due to the group its sources still form, found as many
places from the back as volleys were queued after it (each firing queues one
group at the back and one volley at the end), reads the front group's phase
once, resets that group at threshold, with any group behind it that is also
at threshold, and queues their volley.  Every other arrival goes to one
helper out of line, _deliver, so that the usual event pays for none of its
loops and lists: several volleys due at one instant, a source group
reordered since it fired, or sources that are not one whole group (injected
pulses, duplicates, a group that fired again within the delay), which _split
divides.  _move takes a group back past its neighbours.  An event costs
O(groups touched), independent of n: a group moved back swaps places with
each group it passes, and a volley whose group has since moved one place
ahead finds it there before any search.  Each deque index still walks
O(P/64) blocks, P the volleys in flight.

Contract:
  - phases read through phase() and phases() lie in [0, 1]; a group reset
    at the current instant reads exactly 0.0;
  - phase(-1) is the largest phase and phase(0) the smallest, bit-equal to
    the maximum and minimum of phases();
  - top is phase(-1), bit for bit, after every change: step_once and
    drift() set it, and renormalize() and load() change no phase;
  - t_next is the earlier of now + (1 - top) and the first volley's time,
    bit for bit, after every change: step_once, drift() and load() set it,
    and renormalize() moves no time;
  - pulses() lists the pulses in flight with nondecreasing arrival times;
  - an oscillator never receives its own pulse (m_i = arrivals from others);
  - a receiver pushed to or past threshold fires in the same event;
  - step_once returns read-only arrays, fired ascending.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np

# The arrivals or firers of an event that has none.
_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False

# The frame is renormalized before alpha = exp(a * s) drops below this.
_ALPHA_MIN = 1e-3


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Groups:
    """The clock, the affine frame, the groups of equal phase and the queue.

    Built from validated phases in (0, 1] and the constants pulse = epsilon
    / I, tau, tol_time and threshold = 1 - tol_phase.  Initial group j has
    members entry j, which stays valid across renormalization: its members
    are _order[_bounds[j]:_bounds[j + 1]].
    """

    __slots__ = (
        "n", "a", "s_max", "now", "epoch", "gamma", "w", "members", "last",
        "_order", "_bounds", "pending", "pulse", "tau", "tol_time", "threshold",
        "min_gap", "top", "t_next",
    )

    def __init__(
        self, phases: np.ndarray, a: float, pulse: float, tau: float,
        tol_time: float, threshold: float,
    ) -> None:
        n = phases.shape[0]
        order = np.argsort(phases)
        ranked = phases[order]
        cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
        count = cuts.shape[0] + 1
        if count < n:
            # Equal phases: list each group's members in index order.  Sampled
            # phases are distinct and skip this slower stable sort (0.82 against
            # 0.17 ms at n = 10^4, 11.4 against 2.3 ms at n = 10^5, timeit).
            order = np.argsort(phases, kind="stable")
        self.n, self.a = n, a
        self.s_max = math.log(_ALPHA_MIN) / a
        self.now = self.epoch = self.gamma = 0.0
        bounds = np.concatenate(([0], cuts, [n]), dtype=np.int64)
        self._order = _read_only(order)
        # Python ints on each read, 8 bytes per entry kept.
        self._bounds = array("q", bounds.tobytes())
        self.w = deque(ranked[bounds[:-1]].tolist())
        self.members = deque(range(count))
        self.last = deque([-math.inf]) * count
        # Volleys (arrival_time, read-only int64 sources, link), in arrival order.
        self.pending: deque[tuple[float, np.ndarray, float]] = deque()
        self.pulse, self.tau = pulse, tau
        self.tol_time, self.threshold = tol_time, threshold
        self.min_gap = math.inf
        self.top = self.phase(-1)
        self._set_t_next()

    def copy(self) -> "Groups":
        dup = object.__new__(Groups)
        for name in self.__slots__:
            setattr(dup, name, getattr(self, name))
        dup.w = deque(self.w)
        dup.members = deque(self.members)
        dup.last = deque(self.last)
        dup.pending = deque(self.pending)
        return dup

    # ------------------------------------------------------------------
    # reading phases

    def _phase(self, w: float) -> float:
        """The phase of a group with this w, clamped to [0, 1]."""
        if self.gamma == 0.0:
            p = (self.now - self.epoch) + w
        else:
            x = math.exp(self.a * w) + self.gamma
            if x <= 0.0:
                return 1.0
            p = (self.now - self.epoch) + math.log(x) / self.a
        return 0.0 if p <= 0.0 else (1.0 if p > 1.0 else p)

    def phase(self, i: int) -> float:
        """The phase of the group at index i (-1: front, 0: back)."""
        if self.last[i] == self.now:
            return 0.0  # reset at this instant
        return self._phase(self.w[i])

    def _initial(self, j: int) -> np.ndarray:
        """The members of initial group j."""
        bounds = self._bounds
        return self._order[bounds[j]:bounds[j + 1]]

    def _arrays(self) -> list[np.ndarray]:
        """Every group's member array, back to front."""
        return [self._initial(m) if type(m) is int else m for m in self.members]

    def phases(self) -> np.ndarray:
        """All n phases, materialized from the groups; read-only."""
        arrays = self._arrays()
        values = [
            0.0 if t == self.now else self._phase(w) for w, t in zip(self.w, self.last)
        ]
        out = np.empty(self.n)
        out[np.concatenate(arrays)] = np.repeat(values, [a.shape[0] for a in arrays])
        return _read_only(out)

    def spread(self) -> float:
        """The largest minus the smallest phase: top minus the back group's."""
        return self.top - self.phase(0)

    def pulses(self) -> tuple[np.ndarray, np.ndarray]:
        """The pulses in flight as (arrival times, sources), in queue order."""
        volleys = self.pending
        times = np.repeat([v[0] for v in volleys], [v[1].shape[0] for v in volleys])
        return times, np.concatenate([_NONE, *(v[1] for v in volleys)])

    def check(self) -> None:
        """Raise AssertionError naming the first contract rule the state breaks.

        The rules live in _contract, imported on the first call: nothing on
        the event path checks, so a run that never does compiles none of
        them.
        """
        from ._contract import check_groups

        check_groups(self)

    # ------------------------------------------------------------------
    # changing the state

    def _set_t_next(self) -> None:
        """Set t_next, the time of the next pulse arrival or threshold
        crossing: the earlier of now + (1 - top) and the first volley's."""
        t = self.now + (1.0 - self.top)
        pending = self.pending
        self.t_next = pending[0][0] if pending and pending[0][0] < t else t

    def drift(self, t: float) -> None:
        """Move the clock to t, which no event precedes."""
        self.now = t
        self.top = self.phase(-1)
        self._set_t_next()

    def renormalize(self) -> None:
        """Start a new frame at now: every w becomes its group's phase.

        The phases read the same before and after, top included: phase p
        becomes w = p, read back as 0.0 + w == p.  Volley links are mapped
        by the same function, so they still match their groups bit for bit.
        """
        remap = self._phase
        self.w = deque(map(remap, self.w))
        self.pending = deque((t, src, remap(w)) for t, src, w in self.pending)
        self.epoch = self.now
        self.gamma = 0.0

    def load(self, pulses: list) -> None:
        """Replace the queue with one unlinked single-source volley per
        (arrival_time, source) pair, in the given order."""
        self.pending = deque(
            (float(t), _read_only(np.array([s], dtype=np.int64)), math.nan)
            for t, s in pulses
        )
        self._set_t_next()

    def _move(self, i: int, w: float) -> None:
        """Give the group at index i a w below its back neighbour's: it moves
        back past every group with a larger w, staying after an equal one."""
        ws, members, last = self.w, self.members, self.last
        m, t = members[i], last[i]
        while i and ws[i - 1] > w:
            ws[i], members[i], last[i] = ws[i - 1], members[i - 1], last[i - 1]
            i -= 1
        ws[i], members[i], last[i] = w, m, t

    def _deliver(self, volley: tuple, limit: float, d: float) -> np.ndarray:
        """Deliver volley, already popped, and the volleys due by limit after
        it, d being the pulse in this frame: lower gamma, move each source
        group found by w back and split the groups of other sources.  Returns
        the sources of every pulse consumed, in queue order."""
        pending = self.pending
        volleys = [volley]
        while pending and pending[0][0] <= limit:
            volleys.append(pending.popleft())
        sources = [v[1] for v in volleys]
        arrived = sources[0] if len(sources) == 1 else _read_only(np.concatenate(sources))
        if d == 0.0:
            return arrived
        self.gamma -= len(arrived) * d
        ws, members, a = self.w, self.members, self.a
        loose = ()
        place = len(pending) + len(volleys)
        for _, src, link in volleys:
            # The source group sits where the queue left it, or one place
            # ahead if a group moved back past it; otherwise search by w.
            place -= 1
            for i in (place, place + 1):
                if i < len(ws) and ws[i] == link and members[i] is src:
                    break
            else:
                i = bisect_left(ws, link)
                while i < len(ws) and ws[i] == link:
                    if members[i] is src:
                        break
                    i += 1
                else:
                    loose += (src,)
                    continue
            w = math.log(math.exp(a * link) + d) / a
            if i == 0 or ws[i - 1] <= w:
                ws[i] = w
            else:
                self._move(i, w)
        if loose:
            self._split(np.concatenate(loose), d)
        return arrived

    def _split(self, sources: np.ndarray, d: float) -> None:
        """Own-pulse corrections for sources that are not one whole group:
        each group holding some splits by own-pulse count, senders moving back."""
        counts = np.bincount(sources, minlength=self.n)
        arrays = self._arrays()
        owner = np.empty(self.n, dtype=np.int64)
        owner[np.concatenate(arrays)] = np.repeat(
            np.arange(len(arrays)), [m.shape[0] for m in arrays]
        )
        a = self.a
        ws, members, last = self.w, self.members, self.last
        parts = []
        for i in reversed(np.unique(owner[np.flatnonzero(counts)]).tolist()):
            w, m, t = ws[i], arrays[i], last[i]
            del ws[i], members[i], last[i]
            own = counts[m]
            for c in np.unique(own).tolist():
                part = _read_only(m[own == c])
                parts.append((math.log(math.exp(a * w) + c * d) / a if c else w, part, t))
        for w, m, t in parts:
            j = bisect_right(ws, w)  # after the groups with equal w
            ws.insert(j, w)
            members.insert(j, m)
            last.insert(j, t)


def step_once(groups, t_event):
    """Advance to t_event and process the event there.

    Delivers the volleys due, then fires the front group if t_event is its
    crossing as t_next predicts it, even if rounding of the clock left it
    short of 1 - tol_phase, or if its phase, read once after the arrivals as
    _phase reads it, is at threshold; every further group at threshold fires
    with it.  Returns (arrived, fired): the sources of every pulse consumed,
    in queue order, and the oscillators reset.

    Raises RuntimeError, with the state untouched, if t_event precedes now;
    and, with the clock at t_event and top and t_next set, if t_event is
    neither a crossing nor an arrival, so that nothing is consumed or fired.
    """
    if t_event < groups.now:
        raise RuntimeError("event time moved backwards; queue state is corrupt")
    crossing = t_event >= groups.now + (1.0 - groups.top)
    if t_event - groups.epoch > groups.s_max:
        groups.renormalize()
    groups.now = t_event
    ws, members, last, pending = groups.w, groups.members, groups.last, groups.pending
    a, gamma, s = groups.a, groups.gamma, t_event - groups.epoch
    alpha = math.exp(a * s)  # once per event, for the arrival and the reset
    arrived, limit = _NONE, t_event + groups.tol_time
    if pending and pending[0][0] <= limit:
        volley = pending.popleft()
        _, arrived, link = volley
        d = groups.pulse / alpha  # 0.0 exactly when epsilon is
        i = len(pending)  # the source group's place in the queue
        if (d != 0.0 and not (pending and pending[0][0] <= limit)
                and i < len(ws) and ws[i] == link and members[i] is arrived):
            # One volley, and its sources are the group at that place.
            groups.gamma = gamma = gamma - len(arrived) * d
            w = math.log(math.exp(a * link) + d) / a
            if i == 0 or ws[i - 1] <= w:
                ws[i] = w  # still in order: the usual case
            else:
                groups._move(i, w)
        else:
            arrived = groups._deliver(volley, limit, d)
            gamma = groups.gamma
    if not crossing:
        if last[-1] == t_event:  # top = phase(-1)
            top = 0.0
        elif gamma == 0.0:
            top = s + ws[-1]
        else:
            x = math.exp(a * ws[-1]) + gamma
            top = s + math.log(x) / a if x > 0.0 else 1.0
        top = 0.0 if top <= 0.0 else (1.0 if top > 1.0 else top)
        if top < groups.threshold:  # no firing: the usual arrival
            groups.top = top
            t = t_event + (1.0 - top)
            groups.t_next = pending[0][0] if pending and pending[0][0] < t else t
            if arrived is _NONE:  # no volley was due either
                raise RuntimeError(
                    f"event at t={t_event!r} consumed no pulse and fired nobody; "
                    "it is neither an arrival nor a threshold crossing"
                )
            return arrived, _NONE
    ws.pop()
    m, latest = members.pop(), last.pop()
    fired = groups._initial(m) if type(m) is int else m
    merged = ()  # the member arrays of every group behind it at threshold
    while True:
        if not ws or last[-1] == t_event:  # once all have fired, the reset group leads
            top = 0.0
        elif gamma == 0.0:
            top = s + ws[-1]
        else:
            x = math.exp(a * ws[-1]) + gamma
            top = s + math.log(x) / a if x > 0.0 else 1.0
        top = 0.0 if top <= 0.0 else (1.0 if top > 1.0 else top)
        if top < groups.threshold:
            break
        ws.pop()
        m, t = members.pop(), last.pop()
        merged += (groups._initial(m) if type(m) is int else m,)
        latest = max(latest, t)
    if merged:
        fired = _read_only(np.sort(np.concatenate((fired, *merged))))
    groups.top = top
    # u = 1: v = 1 / alpha - gamma, written so that gamma == 0 gives -s.
    w = math.log1p(-alpha * gamma) / a - s
    if ws and w > ws[0]:
        w = ws[0]  # rounding must not put the reset group ahead
    ws.appendleft(w)
    members.appendleft(fired)
    last.appendleft(t_event)
    pending.append((t_event + groups.tau, fired, w))
    # min over firers of now - last equals now - max(last): the rounded
    # subtraction is monotone in last.
    gap = t_event - latest
    if gap < groups.min_gap:
        groups.min_gap = gap
    t = t_event + (1.0 - top)
    groups.t_next = pending[0][0] if pending[0][0] < t else t
    return arrived, fired
