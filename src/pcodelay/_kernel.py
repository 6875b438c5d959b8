"""Event-step kernel (numpy): the hot loop of NetworkState.step.

One call advances the network to the next grouped event: drift every phase
to the event instant, apply all pulse arrivals within tol_time of it, detect
threshold crossings, reset the firers and append their delayed pulses to the
queue.

The queue is a deque of volleys (arrival_time, sources) in arrival order,
one per firing event, holding its firers.  It stays time-sorted without
explicit sorting: every new volley is scheduled at event_time + tau, which
is no earlier than any pending one because pending arrivals all lie within
tau of the current time.  Queued source arrays are read-only, so copies of
a state may share them.

The caller keeps top, the largest phase, and passes it in; step_once
returns it updated and exact (bit-equal to phases.max()).  With it the next
event time is O(1), and two passes over the phases run only when top shows
they change something: the clip at 1.0 after a drift (rounding is monotone,
so fl(top + dt) is the drifted maximum) and the firing scan (nobody can
fire while top < 1 - tol_phase).  A max is taken only after the arrivals
and after the resets, the two steps that can lower or raise the phases
arbitrarily.

Contract:
  - phases are mutated in place and stay in [0, 1];
  - top goes in equal to phases.max() and comes out equal to it;
  - an oscillator never receives its own pulse (m_i = arrivals from others);
  - a receiver pushed to or past threshold is set to exactly 1.0 so the
    firing scan picks it up in the same event;
  - the returned arrived and fired arrays are read-only.
"""

from __future__ import annotations

import numpy as np


# The arrivals or firers of an event that has none.
_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False


def next_event_time(top, pending, now):
    """Time of the next threshold crossing or volley arrival."""
    t = now + (1.0 - top)
    if pending and pending[0][0] < t:
        t = pending[0][0]
    return t


def drift(phases, top, dt):
    """Advance every phase by dt > 0, capped at 1.0; return the new top."""
    phases += dt
    top += dt
    if top > 1.0:
        np.minimum(phases, 1.0, out=phases)
        top = 1.0
    return top


def step_once(phases, top, pending, now,
              big_i, log_ratio, eps, tau, tol_time, tol_phase):
    """Advance to the next event; return (t_event, top, arrived, fired).

    arrived holds the source of every pulse consumed, in queue order.
    """
    n = phases.shape[0]
    t_event = next_event_time(top, pending, now)
    dt = t_event - now
    if dt < 0.0:
        raise RuntimeError("event time moved backwards; queue state is corrupt")
    if dt > 0.0:
        top = drift(phases, top, dt)

    limit = t_event + tol_time
    volleys = []
    while pending and pending[0][0] <= limit:
        volleys.append(pending.popleft()[1])
    if not volleys:
        arrived = _NONE
    elif len(volleys) == 1:
        arrived = volleys[0]
    else:
        arrived = np.concatenate(volleys)
        arrived.flags.writeable = False
    k = arrived.shape[0]
    if k > 0:
        # m = k - own, y = I * -expm1(log_ratio * phase) + m * eps and
        # z = log1p(-y / I) / log_ratio, as the same IEEE operations in the
        # same order as those expressions but in two n-length buffers: a
        # dozen temporaries per event let malloc trim and regrow the heap
        # on every call at n = 10^4.  Negation is exact and rounding is
        # symmetric in sign, so y *= -I and y /= -I equal -y * I and -y / I.
        m = np.bincount(arrived, minlength=n)
        np.subtract(k, m, out=m)
        y = np.multiply(log_ratio, phases)
        np.expm1(y, out=y)
        y *= -big_i
        y += m * eps
        saturated = y >= 1.0
        np.minimum(y, 1.0, out=y)
        y /= -big_i
        np.log1p(y, out=y)
        y /= log_ratio
        y[saturated] = 1.0
        np.copyto(phases, y, where=m > 0)
        top = float(phases.max())

    fired = _NONE
    if top >= 1.0 - tol_phase:
        fired = np.nonzero(phases >= 1.0 - tol_phase)[0]
        phases[fired] = 0.0
        fired.flags.writeable = False
        pending.append((t_event + tau, fired))
        top = float(phases.max())
    return t_event, top, arrived, fired
