"""The kernel contract of `_kernel.Groups` as one executable check.

check_groups(groups) asserts the rules a grouped state keeps between events
and fails with the rule it found broken.  It reads the state through its
fields in about O(n log n + G + P) for n oscillators, G groups and P
volleys (about 1 ms at n = 1000 with some 600 groups), so a test can call
it after every step of a small run.  It does not assert now - epoch <=
s_max: drift() moves the clock without renormalizing, so a valid state can
break that bound until the next event.
"""

import numpy as np

_INT64 = np.dtype(np.int64)


def _int64_read_only(arrays, what):
    assert all(
        type(a) is np.ndarray and a.dtype == _INT64 and not a.flags.writeable
        for a in arrays
    ), f"{what} are not all read-only int64 arrays"


def check_groups(g):
    """Assert the kernel contract on Groups g; AssertionError names the rule."""
    ws, members, last = list(g.w), g.members, g.last
    assert len(ws) == len(members) == len(last) >= 1, (
        f"deque lengths w {len(ws)}, members {len(members)}, last {len(last)}"
    )
    assert all(map(float.__le__, ws, ws[1:])), "w decreases from back to front"

    # Int handles into the initial runs and read-only arrays, together each
    # oscillator exactly once.
    count = g._bounds.shape[0] - 1
    assert all(0 <= m < count for m in members if type(m) is int), (
        "an int handle is out of range"
    )
    _int64_read_only([m for m in members if type(m) is not int], "member arrays")
    assert sorted(np.concatenate(g._arrays()).tolist()) == list(range(g.n)), (
        "the members are not a permutation of range(n)"
    )

    assert g.top.hex() == g.phase(-1).hex(), f"top {g.top!r} is not phase(-1) {g.phase(-1)!r}"
    assert all(0.0 <= g.phase(i) <= 1.0 for i in range(len(ws))), (
        "a phase lies outside [0, 1]"
    )
    assert max(last) <= g.now, "a group last fired after now"

    if g.pending:
        times, sources, links = zip(*g.pending)
        assert all(map(float.__le__, times, times[1:])), "volley times decrease"
        assert g.now - g.tol_time < times[0] and times[-1] <= g.now + g.tau, (
            f"a volley is due outside (now - tol_time, now + tau] at now {g.now!r}"
        )
        _int64_read_only(sources, "volley sources")
        flat = np.concatenate(sources).tolist()
        assert not flat or 0 <= min(flat) and max(flat) < g.n, "a volley source is out of range"
        assert all(isinstance(link, float) for link in links), "a volley link is not a float"
    assert g.gamma <= 0.0, f"gamma {g.gamma!r} is positive"
