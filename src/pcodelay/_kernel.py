"""Event-step kernel (numpy): the hot loop of NetworkState.step.

One call advances the network to the next grouped event: drift every phase
to the event instant, apply all pulse arrivals within tol_time of it, detect
threshold crossings, reset the firers and append their delayed pulses to the
queue.

The queue is a pair of parallel arrays (pipe_t, pipe_src) used as a FIFO
window [head, tail).  It stays time-sorted without explicit sorting: every
new arrival is scheduled at event_time + tau, which is no earlier than any
pending entry because pending arrivals all lie within tau of the current
time.  The caller guarantees capacity for n appends before each call.

Contract:
  - phases are mutated in place and stay in [0, 1];
  - an oscillator never receives its own pulse (m_i = arrivals from others);
  - a receiver pushed to or past threshold is set to exactly 1.0 so the
    firing scan picks it up in the same event.
"""

from __future__ import annotations

import numpy as np


def step_once(phases, pipe_t, pipe_src, head, tail, now,
              big_i, log_ratio, eps, tau, tol_time, tol_phase):
    """Advance to the next event; return (t_event, new_head, new_tail, fired)."""
    n = phases.shape[0]
    t_event = now + (1.0 - float(phases.max()))
    if head < tail and pipe_t[head] < t_event:
        t_event = float(pipe_t[head])
    dt = t_event - now
    if dt < 0.0:
        raise RuntimeError("event time moved backwards; queue state is corrupt")
    if dt > 0.0:
        phases += dt
        np.minimum(phases, 1.0, out=phases)

    limit = t_event + tol_time
    new_head = head
    while new_head < tail and pipe_t[new_head] <= limit:
        new_head += 1
    k = new_head - head
    if k > 0:
        # m = k - own, y = I * -expm1(log_ratio * phase) + m * eps and
        # z = log1p(-y / I) / log_ratio, as the same IEEE operations in the
        # same order as those expressions but in two n-length buffers: a
        # dozen temporaries per event let malloc trim and regrow the heap
        # on every call at n = 10^4.
        m = np.bincount(pipe_src[head:new_head], minlength=n)
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
    nf = fired.shape[0]
    if nf > 0:
        phases[fired] = 0.0
        pipe_t[tail:tail + nf] = t_event + tau
        pipe_src[tail:tail + nf] = fired
        tail += nf
    return t_event, new_head, tail, fired
