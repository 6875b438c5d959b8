"""Scalar reference simulator: the model, one oscillator at a time.

Written from the model's definitions, not from the engine: Python floats,
drift as min(phase + dt, 1.0), arrivals through curves.bind_jump, volleys
delivered first in, first out, events merged within tol_time and firing at
phase >= 1 - tol_phase.  It costs O(n) Python work per event, so it serves
as a differential oracle for small networks only.
"""

from collections import Counter, deque

from pcodelay.curves import bind_jump


def reference_run(params, phases, horizon, injected=()):
    """Yield (event_time, arrival_sources, fired) for every event <= horizon.

    injected holds (arrival_time, source) pulses already in flight; they
    arrive one pulse per volley in (time, source) order, as after
    NetworkState.inject_pending.
    """
    tau = params.coupling.tau
    jump = bind_jump(params.curve, params.coupling.epsilon)
    phases = [float(p) for p in phases]
    pending = deque((float(t), [s]) for t, s in sorted(injected))
    now = 0.0
    while True:
        t = now + (1.0 - max(phases))
        if pending and pending[0][0] < t:
            t = pending[0][0]
        if t > horizon:
            return
        phases = [min(p + (t - now), 1.0) for p in phases]
        now = t
        arrived = []
        while pending and pending[0][0] <= t + params.tol_time:
            arrived += pending.popleft()[1]
        if arrived:
            own = Counter(arrived)
            phases = [jump(p, len(arrived) - own[i]) for i, p in enumerate(phases)]
        fired = [i for i, p in enumerate(phases) if p >= 1.0 - params.tol_phase]
        for i in fired:
            phases[i] = 0.0
        if fired:
            pending.append((t + tau, fired))
        yield t, tuple(arrived), tuple(fired)
