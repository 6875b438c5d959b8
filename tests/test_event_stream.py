"""Event-stream guard: speed changes to the engine must not change any event.

Each digest is the SHA-256 of (event_time, len(fired), fired) for every
event in order, packed as little-endian float64, int64 and int64 indices.
The constants were recomputed when the engine moved from phase-space ufuncs
to the grouped affine state, which rounds event times differently; the
event counts and the set-level digests below stayed as they were.  In the
third, saturated run (the saturation check fails), 518 of the 539 events
push some receiver to threshold, so it guards the saturation branch.

SET_DIGESTS guard the same streams at the level of sets: the SHA-256 of
(len(arrival_sources), arrival_sources, len(fired), fired) for every event,
packed as little-endian int64.  They hold no time or phase bits, so they
stay fixed under any change of the engine's arithmetic that keeps every
event's sources and firers.  They were computed with the phase-space kernel
and hold unchanged for the grouped engine.
"""

import hashlib
import struct

import numpy as np
import pytest

import pcodelay as pc
from pcodelay import _kernel
from pcodelay.analysis import audit_run


# (n, epsilon, seed, horizon) -> (events, events with >= 100 firers, digest)
STREAMS = {
    (100, 0.001, 7, 100.0): (
        1492, 0, "e7450ba8d84d4f8d8eac510a98d5e34616f6fe6af428180dcca711684c7e839e",
    ),
    (1000, 1e-4, 7, 15.0): (
        10407, 13, "25c499520c7e5deefd046f95d1d6c7ebab86ea44e3608bed7f0c74686dd02761",
    ),
    (30, 0.02, 7, 50.0): (
        539, 0, "1b7fcebe4d714d9c13e470f77b2781ff4fcfd043db15ec4295ea34bc6fa0026a",
    ),
    (10000, 1e-5, 7, 0.25): (
        3938, 0, "02047810cb9aa7eb211adc1ce87f359d5a9be1360f5ccb0bc974dc8cd8db3379",
    ),
}

SET_DIGESTS = {
    (100, 0.001, 7, 100.0):
        "34e5027bc94f53fb89e87242d28cb72ed87900c05d76c0c779faeeb4a7d9da8d",
    (1000, 1e-4, 7, 15.0):
        "1389abdbc8ac01bb07a942bc50b1003955b4ac30d28f5e8df1de0ba9a0cb6b3c",
    (30, 0.02, 7, 50.0):
        "4eb980db650462914b8f826f8d487e65867603586168edbf72c5e7cdf8e61519",
    (10000, 1e-5, 7, 0.25):
        "3fb297fd1e88b5a4443086486a9cfc9b08ba990aed043776d65bbb0f215f5d03",
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
# "headline", "n1000", "saturated" and "n10k".
DRIVEN = [
    pytest.param(key, drive, id=name + suffix)
    for drive, suffix in ((step_loop, ""), (pc.NetworkState.run, "-run"))
    for key, name in zip(STREAMS, ("headline", "n1000", "saturated", "n10k"), strict=True)
]


@pytest.mark.parametrize("key, drive", DRIVEN)
def test_event_stream_digest(key, drive):
    n, epsilon, seed, horizon = key
    events, big, digest = STREAMS[key]
    net = make_net(n, epsilon, seed)
    h = hashlib.sha256()
    sets = hashlib.sha256()
    count = volleys = 0
    reports = []
    # The kernel contract after every event of one driver; the other steps
    # through the same states.  At n = 1000 a check costs about 1 ms (some
    # 600 groups), so there it runs every 100th event; at n = 10^4 (about
    # 10^4 groups) every 1000th.
    stride = 1 if n <= 100 else 100 if n <= 1000 else 1000
    for rep in drive(net, horizon):
        reports.append(rep)
        if drive is step_loop and count % stride == 0:
            net._groups.check()
        assert type(rep.fired) is tuple and type(rep.arrival_sources) is tuple
        assert all(type(i) is int for i in rep.fired + rep.arrival_sources)
        h.update(struct.pack("<dq", rep.event_time, len(rep.fired)))
        h.update(np.asarray(rep.fired, dtype=np.int64).tobytes())
        for ids in (rep.arrival_sources, rep.fired):
            sets.update(struct.pack("<q", len(ids)))
            sets.update(np.asarray(ids, dtype=np.int64).tobytes())
        count += 1
        volleys += len(rep.fired) >= 100
    net._groups.check()  # run() ends drifted to the horizon
    assert (count, volleys) == (events, big)
    assert sets.hexdigest() == SET_DIGESTS[key]
    assert h.hexdigest() == digest
    assert net.min_interfire_gap == audit_run(reports, net.params).min_interfire_gap


def test_arrivals_find_their_group_at_its_place_in_the_queue(monkeypatch):
    # step_once tries the index the queue gives a volley's source group, and
    # _deliver the one ahead of it too; they search by w only when the groups
    # were reordered since it fired.
    searches = 0
    search = _kernel.bisect_left

    def counted(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(_kernel, "bisect_left", counted)
    arrivals = sum(len(rep.arrival_sources) > 0 for rep in make_net(100, 0.001, 7).run(100.0))
    assert arrivals == 911
    assert searches <= 0.01 * arrivals


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
