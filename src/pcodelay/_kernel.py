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

Contract:
  - phases are mutated in place and stay in [0, 1];
  - an oscillator never receives its own pulse (m_i = arrivals from others);
  - a receiver pushed to or past threshold is set to exactly 1.0 so the
    firing scan picks it up in the same event.
"""

from __future__ import annotations

import numpy as np


# The arrivals of an event that consumes no volley.
_NO_ARRIVALS = np.empty(0, dtype=np.int64)
_NO_ARRIVALS.flags.writeable = False


def next_event_time(phases, pending, now):
    """Time of the next threshold crossing or volley arrival."""
    t = now + (1.0 - float(phases.max()))
    if pending and pending[0][0] < t:
        t = pending[0][0]
    return t


def step_once(phases, pending, now,
              big_i, log_ratio, eps, tau, tol_time, tol_phase):
    """Advance to the next event; return (t_event, arrived, fired).

    arrived holds the source of every pulse consumed, in queue order.
    """
    n = phases.shape[0]
    t_event = next_event_time(phases, pending, now)
    dt = t_event - now
    if dt < 0.0:
        raise RuntimeError("event time moved backwards; queue state is corrupt")
    if dt > 0.0:
        phases += dt
        np.minimum(phases, 1.0, out=phases)

    limit = t_event + tol_time
    volleys = []
    while pending and pending[0][0] <= limit:
        volleys.append(pending.popleft()[1])
    if not volleys:
        arrived = _NO_ARRIVALS
    elif len(volleys) == 1:
        arrived = volleys[0]
    else:
        arrived = np.concatenate(volleys)
    k = arrived.shape[0]
    if k > 0:
        # m = k - own, y = I * -expm1(log_ratio * phase) + m * eps and
        # z = log1p(-y / I) / log_ratio, as the same IEEE operations in the
        # same order as those expressions but in two n-length buffers: a
        # dozen temporaries per event let malloc trim and regrow the heap
        # on every call at n = 10^4.
        m = np.bincount(arrived, minlength=n)
        np.subtract(k, m, out=m)
        y = np.multiply(log_ratio, phases)
        np.expm1(y, out=y)
        np.negative(y, out=y)
        y *= big_i
        y += m * eps
        saturated = y >= 1.0
        np.minimum(y, 1.0, out=y)
        z = np.negative(y)
        z /= big_i
        np.log1p(z, out=z)
        z /= log_ratio
        z[saturated] = 1.0
        np.copyto(phases, z, where=m > 0)

    fired = np.nonzero(phases >= 1.0 - tol_phase)[0]
    if fired.shape[0] > 0:
        phases[fired] = 0.0
        fired.flags.writeable = False
        pending.append((t_event + tau, fired))
    return t_event, arrived, fired
