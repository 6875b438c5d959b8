"""Event-stream guard: speed changes to the engine must not change any event.

Each digest is the SHA-256 of (event_time, len(fired), fired) for every
event in order, packed as little-endian float64, int64 and int64 indices.
The first two constants were computed with the engine that built fired and
arrival_sources one int at a time and logged every firing per oscillator;
the third with the kernel that clipped and scanned the phases at every event
and negated in separate buffers.  In that third, saturated run (the
saturation check fails), 518 of the 539 events push some receiver to
y >= 1, so it guards the kernel's saturation branch.
"""

import hashlib
import struct

import numpy as np
import pytest

import pcodelay as pc
from pcodelay.analysis import audit_run

# (n, epsilon, seed, horizon) -> (events, events with >= 100 firers, digest)
STREAMS = {
    (100, 0.001, 7, 100.0): (
        1492, 0, "05edcad551e35079f5a62e689926c48df4dff0f071d401d707bf7b9876d612df",
    ),
    (1000, 1e-4, 7, 15.0): (
        10407, 13, "eece7ef07a82e702f268ec3b1f8ade185b3ee90c171abf43037dd97c90d852a0",
    ),
    (30, 0.02, 7, 50.0): (
        539, 0, "0d07053b3cd7a4342a9683b2c21ad5d6ba3a05136ee6c88dabcb68b45aef8805",
    ),
}


def make_net(n, epsilon, seed):
    params = pc.ModelParams(
        curve=pc.CurveSpec(i=1.05),
        coupling=pc.CouplingParams(n=n, epsilon=epsilon, tau=0.1),
    )
    return pc.NetworkState(params, pc.sample_phases(seed=seed, n=n))


def step_loop(net, horizon):
    while net.next_event_time() <= horizon:
        yield net.step()


# Both drivers must give the same stream; the step() loop keeps the ids
# "headline", "n1000" and "saturated".
DRIVEN = [
    pytest.param(key, drive, id=name + suffix)
    for drive, suffix in ((step_loop, ""), (pc.NetworkState.run, "-run"))
    for key, name in zip(STREAMS, ("headline", "n1000", "saturated"))
]


@pytest.mark.parametrize("key, drive", DRIVEN)
def test_event_stream_digest(key, drive):
    n, epsilon, seed, horizon = key
    events, big, digest = STREAMS[key]
    net = make_net(n, epsilon, seed)
    h = hashlib.sha256()
    count = volleys = 0
    reports = []
    for rep in drive(net, horizon):
        reports.append(rep)
        assert type(rep.fired) is tuple and type(rep.arrival_sources) is tuple
        assert all(type(i) is int for i in rep.fired + rep.arrival_sources)
        h.update(struct.pack("<dq", rep.event_time, len(rep.fired)))
        h.update(np.asarray(rep.fired, dtype=np.int64).tobytes())
        count += 1
        volleys += len(rep.fired) >= 100
    assert (count, volleys) == (events, big)
    assert h.hexdigest() == digest
    assert net.min_interfire_gap == audit_run(reports, net.params).min_interfire_gap


def test_min_interfire_gap_matches_fire_log_across_copy(headline_params):
    net = pc.NetworkState(headline_params, pc.sample_phases(seed=7, n=100))
    assert net.min_interfire_gap == float("inf")
    head = list(net.run(5.0))
    before = net.min_interfire_gap
    assert before == audit_run(head, headline_params).min_interfire_gap < float("inf")
    dup = net.copy()
    assert dup.min_interfire_gap == before
    tail = list(net.run(30.0))
    assert list(dup.run(30.0)) == tail
    whole = audit_run(head + tail, headline_params).min_interfire_gap
    assert dup.min_interfire_gap == net.min_interfire_gap == whole <= before


def test_min_interfire_gap_when_absorption_merges_different_histories():
    # Here a volley pushes oscillators with different last firing times over
    # threshold together; the smallest gap belongs to the latest of them.
    net = make_net(5, 0.02, 13)
    reports = list(net.run(20.0))
    assert net.min_interfire_gap == audit_run(reports, net.params).min_interfire_gap
