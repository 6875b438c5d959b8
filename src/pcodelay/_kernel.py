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
Firing pops groups from the front and appends one merged group at the back.
An arriving volley whose sources are still exactly one group moves that
group back by a bisection over w.  Any other volley (injected pulses,
duplicates, or a group that fired again within the delay) splits the groups
it touches on demand.  The cost of an event is therefore O(groups touched),
independent of n.

Groups also owns the queue, the running minimum gap between two firings of
one oscillator, the constants epsilon / I, tau, tol_time and 1 - tol_phase,
and each part of an event: next_event() is the earlier of the front group's
threshold crossing and the first arrival, drift(t) moves the clock, absorb()
pops and delivers the volleys due, and fire() resets the front group and
every group behind it at threshold, queues their volley and keeps min_gap.
step_once is the rule alone, and decides each event once: it calls absorb()
only when a volley is due, and fire() at a crossing or when the front
group's phase, read once after the arrivals, is at threshold.  spread() is
the largest minus the smallest phase in O(1).  check() asserts the contract
below in O(n log n + G + P); no event calls it.  Only Groups knows the
queue's layout: volleys (arrival_time, sources, link) in arrival order, one
per firing event, read through pulses() and replaced through load().  link
is the w the source group had when it was reset, or NaN (equal to no w,
renormalized to NaN) for loaded pulses; the arriving volley takes the fast
path when a group with that w still holds exactly its sources.  Every new
volley is due at event_time + tau, no earlier than any pending one, so the
queue stays sorted without sorting.

Contract:
  - phases read through phase() and phases() lie in [0, 1]; a group reset
    at the current instant reads exactly 0.0;
  - phase(-1) is the largest phase and phase(0) the smallest, bit-equal to
    the maximum and minimum of phases();
  - top is phase(-1), bit for bit, after every change: step_once, fire()
    and drift() set it, and renormalize() and load() change no phase;
  - pulses() lists the pulses in flight with nondecreasing arrival times;
  - an oscillator never receives its own pulse (m_i = arrivals from others);
  - a receiver pushed to or past threshold fires in the same event;
  - absorb() and fire() return read-only arrays, fired ascending.
"""

from __future__ import annotations

import math
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
        "min_gap", "top",
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
        self._order = _read_only(order)
        self._bounds = np.concatenate(([0], cuts, [n]))
        self.w = deque(ranked[self._bounds[:-1]].tolist())
        self.members = deque(range(count))
        self.last = deque([-math.inf]) * count
        # Volleys (arrival_time, read-only int64 sources, link), in arrival order.
        self.pending: deque[tuple[float, np.ndarray, float]] = deque()
        self.pulse, self.tau = pulse, tau
        self.tol_time, self.threshold = tol_time, threshold
        self.min_gap = math.inf
        self.top = self.phase(-1)

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
        return self._order[self._bounds[j]:self._bounds[j + 1]]

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
        """The largest minus the smallest phase: top minus the back group's
        phase, bit-equal to top - phase(0)."""
        if self.last[0] == self.now:
            return self.top  # the back group reset at this instant: phase 0.0
        return self.top - self._phase(self.w[0])

    def next_event(self) -> float:
        """Time of the next pulse arrival or threshold crossing."""
        t = self.now + (1.0 - self.top)
        pending = self.pending
        return pending[0][0] if pending and pending[0][0] < t else t

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

    def drift(self, t: float) -> None:
        """Move the clock to t, which no event precedes."""
        self.now = t
        self.top = self.phase(-1)

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

    def _insert(self, w: float, m, t: float, hi: int) -> None:
        """Insert a group among the first hi, after those with equal w."""
        j = bisect_right(self.w, w, 0, hi)
        self.w.insert(j, w)
        self.members.insert(j, m)
        self.last.insert(j, t)

    def _move(self, i: int, w: float) -> None:
        """Give the group at index i a w below its back neighbour's."""
        m, t = self.members[i], self.last[i]
        del self.w[i], self.members[i], self.last[i]
        self._insert(w, m, t, i)

    def absorb(self) -> np.ndarray:
        """Pop the volleys due by now + tol_time, at least one, deliver their
        pulses (epsilon / I each, to all but their own sources) and return
        their sources."""
        pending = self.pending
        limit = self.now + self.tol_time
        volley = pending.popleft()
        if pending and pending[0][0] <= limit:
            volleys = [volley]
            while pending and pending[0][0] <= limit:
                volleys.append(pending.popleft())
            arrived = _read_only(np.concatenate([v[1] for v in volleys]))
        else:
            volleys = (volley,)  # one volley, the usual case: no list to build
            arrived = volley[1]
        if self.pulse == 0.0:
            return arrived
        a = self.a
        d = self.pulse / math.exp(a * (self.now - self.epoch))
        self.gamma -= len(arrived) * d
        ws, members = self.w, self.members
        loose = ()  # the sources no fast path took, rarely any
        for _, src, link in volleys:
            # The fast path: the volley's whole source group, found by w.
            i = bisect_left(ws, link)
            while i < len(ws) and ws[i] == link:
                if members[i] is src:
                    w = math.log(math.exp(a * link) + d) / a
                    if i == 0 or ws[i - 1] <= w:
                        ws[i] = w  # still in order: the usual case
                    else:
                        self._move(i, w)
                    break
                i += 1
            else:
                loose += (src,)
        if loose:
            self._split(np.concatenate(loose), d)
        return arrived

    def _split(self, sources: np.ndarray, d: float) -> None:
        """Own-pulse corrections for sources that are not one whole group.

        Each group holding some of the sources splits by own-pulse count;
        the parts that sent pulses move back.
        """
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
            self._insert(w, m, t, len(ws))

    def fire(self) -> np.ndarray:
        """Reset the front group and every group behind it at or above
        threshold, queue their volley, lower min_gap and return the firers.

        The caller has found the front group due to fire; top is left at the
        phase of the front group after the reset.
        """
        ws, members, last = self.w, self.members, self.last
        ws.pop()
        m, latest = members.pop(), last.pop()
        fired = self._initial(m) if type(m) is int else m
        # Once every group has fired, the reset group is the front.
        top = self.phase(-1) if ws else 0.0
        if top >= self.threshold:
            # More groups at threshold, the rare case: merge their members.
            arrays = [fired]
            while top >= self.threshold:
                ws.pop()
                m, t = members.pop(), last.pop()
                arrays.append(self._initial(m) if type(m) is int else m)
                if t > latest:
                    latest = t
                top = self.phase(-1) if ws else 0.0
            fired = _read_only(np.sort(np.concatenate(arrays)))
        self.top = top
        # u = 1: v = 1 / alpha - gamma, written so that gamma == 0 gives -s.
        s = self.now - self.epoch
        w = math.log1p(-math.exp(self.a * s) * self.gamma) / self.a - s
        if ws and w > ws[0]:
            w = ws[0]  # rounding must not put the reset group ahead
        ws.appendleft(w)
        members.appendleft(fired)
        last.appendleft(self.now)
        self.pending.append((self.now + self.tau, fired, w))
        # min over firers of now - last equals now - max(last): the rounded
        # subtraction is monotone in last.
        gap = self.now - latest
        if gap < self.min_gap:
            self.min_gap = gap
        return fired


def step_once(groups, t_event):
    """Advance to t_event and process the event there.

    When t_event is the front group's threshold crossing, as next_event()
    predicts it, that group fires even if rounding of the clock left it
    short of 1 - tol_phase.  Otherwise the front group's phase is read once,
    after any arrivals, and fire() runs only if it is at threshold.  Returns
    (arrived, fired): the sources of every pulse consumed, in queue order,
    and the oscillators reset.  Both arrays are empty only when t_event is
    neither a crossing nor an arrival.
    """
    if t_event < groups.now:
        raise RuntimeError("event time moved backwards; queue state is corrupt")
    crossing = t_event >= groups.now + (1.0 - groups.top)
    if t_event - groups.epoch > groups.s_max:
        groups.renormalize()
    groups.now = t_event
    pending = groups.pending
    if pending and pending[0][0] <= t_event + groups.tol_time:
        arrived = groups.absorb()
    else:
        arrived = _NONE
    if not crossing:
        top = groups.phase(-1)
        if top < groups.threshold:
            groups.top = top
            return arrived, _NONE
    return arrived, groups.fire()
