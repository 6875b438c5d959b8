"""The kernel contract of _kernel.Groups as one executable check.

check_groups(g) is Groups.check(): it reads the state through its fields and
raises AssertionError naming the first rule it finds broken.  It is a module
of its own, imported on the first check, so that importing the kernel does
not compile it.
"""

import numpy as np


def _require(ok: bool, rule: str) -> None:
    """An assertion that python -O keeps."""
    if not ok:
        raise AssertionError(rule)


def _require_read_only_int64(arrays, what: str) -> None:
    _require(
        all(
            type(a) is np.ndarray and a.dtype == np.int64 and not a.flags.writeable
            for a in arrays
        ),
        f"{what} are not all read-only int64 arrays",
    )


def check_groups(g) -> None:
    """Raise AssertionError naming the first contract rule Groups g breaks.

    O(n log n + G + P) for n oscillators, G groups and P volleys (about 1 ms
    at n = 1000 with some 600 groups).  It does not require now - epoch <=
    s_max: drift() moves the clock without renormalizing, so a valid state
    can break that bound until the next event.
    """
    ws, members, last = list(g.w), g.members, g.last
    _require(
        len(ws) == len(members) == len(last) >= 1,
        f"deque lengths w {len(ws)}, members {len(members)}, last {len(last)}",
    )
    _require(all(map(float.__le__, ws, ws[1:])), "w decreases from back to front")

    # Int handles into the initial runs and read-only arrays, together each
    # oscillator exactly once.
    count = len(g._bounds) - 1
    _require(
        all(0 <= m < count for m in members if type(m) is int),
        "an int handle is out of range",
    )
    _require_read_only_int64([m for m in members if type(m) is not int], "member arrays")
    _require(
        sorted(np.concatenate(g._arrays()).tolist()) == list(range(g.n)),
        "the members are not a permutation of range(n)",
    )

    _require(
        g.top.hex() == g.phase(-1).hex(),
        f"top {g.top!r} is not phase(-1) {g.phase(-1)!r}",
    )
    _require(
        all(0.0 <= g.phase(i) <= 1.0 for i in range(len(ws))),
        "a phase lies outside [0, 1]",
    )
    _require(max(last) <= g.now, "a group last fired after now")

    if g.pending:
        times, sources, links = zip(*g.pending)
        _require(all(map(float.__le__, times, times[1:])), "volley times decrease")
        _require(
            g.now - g.tol_time < times[0] and times[-1] <= g.now + g.tau,
            f"a volley is due outside (now - tol_time, now + tau] at now {g.now!r}",
        )
        _require_read_only_int64(sources, "volley sources")
        flat = np.concatenate(sources).tolist()
        _require(
            not flat or 0 <= min(flat) and max(flat) < g.n,
            "a volley source is out of range",
        )
        _require(
            all(isinstance(link, float) for link in links), "a volley link is not a float"
        )
    _require(g.gamma <= 0.0, f"gamma {g.gamma!r} is positive")

    t = g.now + (1.0 - g.top)
    if g.pending and g.pending[0][0] < t:
        t = g.pending[0][0]
    _require(
        g.t_next.hex() == t.hex(),
        f"t_next {g.t_next!r} is not the earlier of now + (1 - top) and the "
        f"first volley's time, {t!r}",
    )
