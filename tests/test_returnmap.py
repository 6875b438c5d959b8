"""Two-clique cycle dynamics: closed-form branches against the event engine.

The closed-form map composes jump functions; the engine discovers the same
cycle event by event.  These tests pin the intermediate states of the engine
run to the composition tables, then check the one-cycle outputs agree across
random feasible states and that orbits stay bounded away from the merged
fixed point.
"""

import functools
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import pcodelay as pc
import pcodelay.cli
from pcodelay.analysis import (
    _branches,
    _orbit_columns,
    _steps,
    large_gap_branch,
    small_gap_branch,
)
from pcodelay.cli import main
from pcodelay.rng import SplitMix64

from conftest import base_config

N = 10
EPS = 0.001
TAU = 0.1


@pytest.fixture(scope="module")
def curve():
    return pc.CurveSpec(family="ms_exponential", i=1.05)


@pytest.fixture(scope="module")
def coupling():
    return pc.CouplingParams(n=N, epsilon=EPS, tau=TAU)


@pytest.fixture(scope="module")
def params(curve, coupling):
    return pc.ModelParams(curve=curve, coupling=coupling)


def F(curve, theta, m):
    return pc.jump(curve, EPS, theta, m)


def two_clique_net(params, theta, p):
    """Trailing clique on [0, p) at 1 - theta, leading on [p, n) at threshold."""
    phases = np.empty(N)
    phases[:p] = 1.0 - theta
    phases[p:] = 1.0
    return pc.NetworkState(params, phases)


class TestSmallGapCycle:
    THETA = 0.05
    P, Q = 4, 6

    def test_event_order_and_intermediate_phases(self, params, curve):
        net = two_clique_net(params, self.THETA, self.P)

        rep = net.step()  # leading clique fires
        assert rep.event_time == 0.0
        assert rep.fired == tuple(range(self.P, N))

        rep = net.step()  # trailing clique fires before any volley lands
        assert rep.event_time == pytest.approx(self.THETA, abs=1e-15)
        assert rep.fired == tuple(range(self.P))
        t_trail = rep.event_time

        rep = net.step()  # leading volley lands at tau
        assert rep.event_time == TAU
        assert rep.fired == ()
        assert sorted(rep.arrival_sources) == list(range(self.P, N))
        trail_expect = F(curve, TAU - self.THETA, self.Q)
        lead_expect = F(curve, TAU, self.Q - 1)
        assert np.max(np.abs(net.phases[: self.P] - trail_expect)) <= 1e-12
        assert np.max(np.abs(net.phases[self.P :] - lead_expect)) <= 1e-12

        rep = net.step()  # trailing volley lands at t_trail + tau
        assert rep.event_time == pytest.approx(t_trail + TAU, abs=1e-15)
        assert sorted(rep.arrival_sources) == list(range(self.P))
        trail_expect = F(curve, F(curve, TAU - self.THETA, self.Q) + self.THETA, self.P - 1)
        lead_expect = F(curve, F(curve, TAU, self.Q - 1) + self.THETA, self.P)
        assert np.max(np.abs(net.phases[: self.P] - trail_expect)) <= 1e-12
        assert np.max(np.abs(net.phases[self.P :] - lead_expect)) <= 1e-12

    def test_branch_formula_matches_composition(self, curve, coupling):
        direct = small_gap_branch(curve, coupling, self.THETA, self.P, self.Q)
        lead = F(curve, F(curve, TAU, self.Q - 1) + self.THETA, self.P)
        trail = F(curve, F(curve, TAU - self.THETA, self.Q) + self.THETA, self.P - 1)
        assert direct == pytest.approx(lead - trail, abs=1e-15)

    def test_pipeline_arrival_times_exact(self, params):
        net = two_clique_net(params, self.THETA, self.P)
        net.step()
        arrivals = [s.arrival_time for s in net.pipeline]
        assert arrivals == [TAU] * self.Q
        assert sorted(s.source for s in net.pipeline) == list(range(self.P, N))


class TestLargeGapCycle:
    THETA = 0.5
    P, Q = 4, 6

    def test_event_order_and_intermediate_phases(self, params, curve):
        net = two_clique_net(params, self.THETA, self.P)

        rep = net.step()  # leading clique fires
        assert rep.fired == tuple(range(self.P, N))

        rep = net.step()  # volley lands before the trailing clique reaches 1
        assert rep.event_time == TAU
        assert rep.fired == ()
        trail_expect = F(curve, 1.0 - self.THETA + TAU, self.Q)
        lead_expect = F(curve, TAU, self.Q - 1)
        assert np.max(np.abs(net.phases[: self.P] - trail_expect)) <= 1e-12
        assert np.max(np.abs(net.phases[self.P :] - lead_expect)) <= 1e-12

        rep = net.step()  # trailing clique fires, closing the cycle
        assert rep.fired == tuple(range(self.P))
        gap = 1.0 - float(np.max(net.phases[self.P :]))
        expected = large_gap_branch(curve, pc.CouplingParams(n=N, epsilon=EPS, tau=TAU), self.THETA, self.Q)
        assert gap == pytest.approx(expected, abs=1e-12)

    def test_branch_formula_matches_composition(self, curve, coupling):
        direct = large_gap_branch(curve, coupling, self.THETA, self.Q)
        trail = F(curve, 1.0 - self.THETA + TAU, self.Q)
        lead = F(curve, TAU, self.Q - 1)
        assert direct == pytest.approx(trail - lead, abs=1e-15)


class TestMapAgainstEngine:
    def test_random_feasible_states(self, params, curve, coupling):
        rng = SplitMix64(777)
        for _ in range(20):
            p = 1 + rng.next_uint64() % (N - 1)
            theta = rng.uniform_open_closed(0.0, 0.95)
            state = pc.TwoCliqueState(theta=float(theta), p=int(p), q=N - int(p))
            by_map = pc.two_clique_map(state, curve, coupling)
            by_engine = pc.two_clique_oracle_step(state, params)
            assert (by_engine.p, by_engine.q) == (by_map.p, by_map.q)
            assert by_engine.theta == pytest.approx(by_map.theta, abs=1e-9)

    def test_boundary_theta_equals_tau(self, params, curve, coupling):
        state = pc.TwoCliqueState(theta=TAU, p=5, q=5)
        by_map = pc.two_clique_map(state, curve, coupling)
        by_engine = pc.two_clique_oracle_step(state, params)
        assert (by_engine.p, by_engine.q) == (by_map.p, by_map.q)
        assert by_engine.theta == pytest.approx(by_map.theta, abs=1e-9)


class TestBranchPositivity:
    @pytest.mark.parametrize("p,q", [(1, 9), (5, 5), (9, 1)])
    def test_small_branch_positive_inside_interval(self, curve, coupling, p, q):
        for theta in np.linspace(0.0, TAU, 102)[1:-1]:
            out = small_gap_branch(curve, coupling, float(theta), p, q)
            assert out > 0.0, f"collapse at theta={theta}, sizes ({p}, {q})"

    @pytest.mark.parametrize("p,q", [(1, 9), (5, 5), (9, 1)])
    def test_large_branch_positive_on_interval(self, curve, coupling, p, q):
        for theta in np.linspace(TAU, 1.0, 101)[:-1]:
            out = large_gap_branch(curve, coupling, float(theta), q)
            assert out > 0.0, f"collapse at theta={theta}, sizes ({p}, {q})"

    def test_small_branch_limit_at_zero(self, curve, coupling):
        # composition algebra cancels exactly at theta == 0; float round-off
        # leaves at most a few ulps
        residue = small_gap_branch(curve, coupling, 0.0, 4, 6)
        assert abs(residue) <= 1e-14
        state = pc.TwoCliqueState(theta=0.0, p=4, q=6)
        assert pc.two_clique_map(state, curve, coupling).theta == 0.0

    @pytest.mark.parametrize(
        "n,eps,worst", [(10, 0.04, 1.7901), (100, 0.001, 1.1258), (100, 0.005, 2.2770)]
    )
    def test_small_branch_never_shrinks_a_gap(self, curve, n, eps, worst):
        # No complete synchronization on the reduced model: a gap below the
        # delay grows, at every clique split.  The smallest ratio found on
        # this grid lies at p = 1 and the largest theta; that p = 1 is the
        # worst case is grid-tested here, not proven.
        small, _, lead = _branches(curve, pc.CouplingParams(n=n, epsilon=eps, tau=TAU))
        thetas = np.linspace(0.0, TAU, 202)[1:-1].tolist()
        ratios = {
            (p, theta): small(theta, p, n - p, lead(n - p)) / theta
            for p in range(1, n) for theta in thetas
        }
        assert min(ratios.values()) > 1.0
        assert min(ratios, key=ratios.get) == (1, thetas[-1])
        assert ratios[1, thetas[-1]] == pytest.approx(worst, abs=1e-4)


class TestOrbits:
    def test_long_orbit_stays_bounded_and_positive(self, curve, coupling):
        orbit = pc.iterate_return_map(
            pc.TwoCliqueState(theta=0.3, p=5, q=5), 1000, curve, coupling
        )
        thetas = [s.theta for s in orbit]
        assert all(0.0 < t < 1.0 for t in thetas)
        assert min(thetas) > 1e-12

    def test_orbit_sizes_only_swap(self, curve, coupling):
        orbit = pc.iterate_return_map(
            pc.TwoCliqueState(theta=0.7, p=3, q=7), 50, curve, coupling
        )
        assert all({s.p, s.q} == {3, 7} for s in orbit)


def engine_returns(params, seed, count):
    """(theta, p, q) at the first count returns of a sampled network past
    t = 200, read as the oracle reads them: at a firing after which only
    that event's volley is queued, theta is 1 - the waiting clique's phase."""
    n = params.coupling.n
    net = pc.NetworkState(params, pc.sample_phases(seed, n))
    for _ in net.run(200.0):
        pass
    returns = []
    for rep in net.run(210.0):
        if rep.fired and len(net._groups.pending) == 1:
            waiting = np.delete(net.phases, rep.fired)
            assert waiting.min() == waiting.max()  # one whole clique
            returns.append((1.0 - float(waiting[0]), waiting.shape[0], len(rep.fired)))
            if len(returns) == count:
                break
    return returns


class TestEngineLocksOntoTheMapCycle:
    """Delay-induced clustering is the map's period-2 cycle: past its
    transient the engine alternates between two cliques whose gap sits
    where the large-gap branch caps at threshold (absorption).  The map is
    locally constant there, so it reaches the cycle in finitely many steps,
    and the engine sits on it to within rounding."""

    @pytest.mark.parametrize("n,seed,first", [
        (100, 7, (0.12285, 83, 17)),
        (100, 4, (0.14154, 15, 85)),
        (1000, 2, (0.12034, 916, 84)),
        (1000, 3, (0.14242, 118, 882)),
    ])
    def test_engine_returns_are_the_map_cycle(self, curve, n, seed, first):
        coupling = pc.CouplingParams(n=n, epsilon=0.1 / n, tau=TAU)
        returns = engine_returns(pc.ModelParams(curve=curve, coupling=coupling), seed, 4)
        assert len(returns) == 4
        theta, p, q = returns[0]
        assert (round(theta, 5), p, q) == first
        for (a, p_a, q_a), (b, p_b, q_b) in zip(returns, returns[1:]):
            assert (p_b, q_b) == (q_a, p_a)
            assert abs(a - b) > 0.5
        for a, b in zip(returns, returns[2:]):
            assert a[0] == pytest.approx(b[0], abs=1e-13)

        orbit = pc.iterate_return_map(pc.TwoCliqueState(theta, p, q), 3, curve, coupling)
        assert orbit[3] == orbit[1] != orbit[2]  # period 2
        for state, (theta_k, p_k, q_k) in zip(orbit[1:3], returns[1:3]):
            assert (state.p, state.q) == (p_k, q_k)
            assert state.theta == pytest.approx(theta_k, abs=1e-13)

        def twice(x):
            return pc.iterate_return_map(pc.TwoCliqueState(x, p, q), 2, curve, coupling)[2].theta

        h = 1e-7
        assert (twice(theta + h) - twice(theta - h)) / (2 * h) == 0.0


def reference_orbit(curve, theta, p, q, steps, eps=EPS):
    """The orbit written out from the two branch formulas with pc.jump.

    Returns the states as (theta, p, q) and the branch taken at each step
    ("merged", "small" or "large").
    """

    def f(x, m):
        return pc.jump(curve, eps, x, m)

    states = [(theta, p, q)]
    branches = []
    for _ in range(steps):
        if theta == 0.0:
            branches.append("merged")
        elif theta < TAU:
            lead = f(f(TAU, q - 1) + theta, p)
            trail = f(f(TAU - theta, q) + theta, p - 1)
            theta = max(0.0, lead - trail)
            branches.append("small")
        else:
            theta = f(1.0 - theta + TAU, q) - f(TAU, q - 1)
            p, q = q, p
            branches.append("large")
        states.append((theta, p, q))
    return states, branches


class TestBitIdentity:
    """The map, its orbits and its branches equal the jump compositions
    exactly, not just to a tolerance."""

    @pytest.mark.parametrize(
        "theta,p,q,visits",
        [
            (0.05, 3, 7, {"small", "large"}),  # small gap first, p != q
            (0.6, 3, 7, {"large"}),  # large gap, sizes swap
            (0.3, 5, 5, {"large"}),
            (0.05, 1, 9, {"small"}),  # a one-oscillator clique
            (0.6, 1, 9, {"large"}),
            (0.0, 4, 6, {"merged"}),  # the merged fixed point
        ],
    )
    def test_orbit_equals_jump_compositions(self, curve, coupling, theta, p, q, visits):
        steps = 300
        expected, branches = reference_orbit(curve, theta, p, q, steps)
        assert visits <= set(branches)

        orbit = pc.iterate_return_map(pc.TwoCliqueState(theta, p, q), steps, curve, coupling)
        assert [(s.theta, s.p, s.q) for s in orbit] == expected

        for before, after in zip(orbit, orbit[1:]):
            assert pc.two_clique_map(before, curve, coupling) == after

    def test_branch_functions_equal_jump_compositions(self, curve, coupling):
        for theta in np.linspace(0.0, TAU, 41)[:-1].tolist():
            for p, q in ((1, 9), (3, 7), (9, 1)):
                lead = F(curve, F(curve, TAU, q - 1) + theta, p)
                trail = F(curve, F(curve, TAU - theta, q) + theta, p - 1)
                assert small_gap_branch(curve, coupling, theta, p, q) == lead - trail
        for theta in np.linspace(TAU, 1.0, 41)[:-1].tolist():
            for q in (1, 5, 9):
                expected = F(curve, 1.0 - theta + TAU, q) - F(curve, TAU, q - 1)
                assert large_gap_branch(curve, coupling, theta, q) == expected


def bits(states):
    """States as (theta.hex(), p, q): equal only when bit-identical, so -0.0
    and 0.0 differ."""
    return [(theta.hex(), p, q) for theta, p, q in states]


def first_repeat(states):
    """(start, period) of the first state from index 1 on that equals an
    earlier one from index 1 on, found with a dict of every state; (number of
    states, 0) if none repeats."""
    seen = {}
    for k, state in enumerate(states[1:], 1):
        if state in seen:
            return seen[state], k - seen[state]
        seen[state] = k
    return len(states), 0


class TestCycles:
    """Once the orbit repeats, the map stops iterating and copies the cycle;
    the copies equal the step-by-step reference bit for bit."""

    @pytest.mark.parametrize(
        "eps,theta,p,q,steps,cycle",
        [
            (EPS, 0.3, 3, 7, 300, (13, 2)),  # early cycle
            (1e-4, 0.6, 3, 7, 3000, (1423, 2)),  # late cycle
            (1e-7, 0.05, 3, 7, 2000, (2001, 0)),  # no repeat within steps
            (EPS, 0.0, 4, 6, 50, (1, 1)),  # the merged fixed point
            (EPS, -0.0, 4, 6, 50, (1, 1)),  # index 0 keeps its sign
        ],
    )
    def test_orbit_equals_reference(self, curve, eps, theta, p, q, steps, cycle):
        coupling = pc.CouplingParams(n=N, epsilon=eps, tau=TAU)
        # A -0.0 start is kept as given at index 0; the orbit goes on from
        # the merged state 0.0.
        expected, _ = reference_orbit(curve, theta + 0.0, p, q, steps, eps)
        expected[0] = (theta, p, q)
        assert first_repeat(expected) == cycle

        thetas, ps, start, period = _orbit_columns(
            pc.TwoCliqueState(theta, p, q), steps, curve, coupling
        )
        assert (start, period) == cycle
        assert bits([
            (t, k, N - k)
            for t, k in zip(_steps(thetas, start, steps), _steps(ps, start, steps))
        ]) == bits(expected)

        orbit = pc.iterate_return_map(pc.TwoCliqueState(theta, p, q), steps, curve, coupling)
        assert bits([(s.theta, s.p, s.q) for s in orbit]) == bits(expected)
        assert len({id(s) for s in orbit}) == start + period


# SHA-256 of `pcodelay returnmap` stdout (the CSV) and stderr (the summary)
# for RETURNMAP_CONFIG, computed with the step-by-step map that built one
# TwoCliqueState and ran every jump's checks afresh per step.
RETURNMAP_CONFIG = base_config(
    returnmap={"theta": 0.05, "p": 50, "q": 50, "steps": 20_000, "oracle_every": 1000}
)
RETURNMAP_STDOUT_SHA256 = "cc99fe8b0fd3e300f1d03f2cbb72406e4cee5dc7c8b18c3de8c64df235f4b3e5"
RETURNMAP_STDERR_SHA256 = "6887ffcd9eb2fdee5a3f8c9b5302c2641925e1fdf579f56744b06418fcdd4969"


def test_returnmap_cli_output_digest(write_config, capsys):
    assert main(["returnmap", write_config(RETURNMAP_CONFIG)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.err)["oracle_max_delta"] is not None
    assert hashlib.sha256(captured.out.encode()).hexdigest() == RETURNMAP_STDOUT_SHA256
    assert hashlib.sha256(captured.err.encode()).hexdigest() == RETURNMAP_STDERR_SHA256


def test_returnmap_runs_the_engine_once_per_distinct_state(write_config, capsys, monkeypatch):
    # The orbit settles on a period-2 cycle, so the 20 oracle steps see at
    # most two distinct input states.
    inputs = []

    def counted(state, params):
        inputs.append(state)
        return pc.two_clique_oracle_step(state, params)

    monkeypatch.setattr(pcodelay.cli, "two_clique_oracle_step", counted)
    assert main(["returnmap", write_config(RETURNMAP_CONFIG)]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == RETURNMAP_STDOUT_SHA256
    assert hashlib.sha256(captured.err.encode()).hexdigest() == RETURNMAP_STDERR_SHA256
    assert 1 <= len(inputs) <= 2
    assert len(set(inputs)) == len(inputs)


def test_returnmap_cli_non_cycling_orbit_equals_reference(curve, write_config, capsys):
    steps, every = 2000, 500
    cfg = base_config(
        n=N, epsilon=1e-7,
        returnmap={"theta": 0.05, "p": 3, "q": 7, "steps": steps, "oracle_every": every},
    )
    assert main(["returnmap", write_config(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected, _ = reference_orbit(curve, 0.05, 3, 7, steps, 1e-7)
    assert first_repeat(expected) == (steps + 1, 0)
    assert lines[0] == "step,theta,p,q,oracle_delta"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
        f"{k},{theta:.17g},{p},{q}" for k, (theta, p, q) in enumerate(expected)
    ]
    deltas = {k: line.rsplit(",", 1)[1] for k, line in enumerate(lines[1:])}
    assert [k for k, delta in deltas.items() if delta] == list(range(every, steps + 1, every))
    assert all(float(delta) <= 1e-9 for delta in deltas.values() if delta)


def test_returnmap_memory_does_not_grow_with_steps(write_config, tmp_path):
    # The orbit locks onto its cycle within a few steps; the CLI keeps that
    # cycle once and writes the copies 100 rows at a time, reusing the rows
    # of blocks that start at the same place in the cycle, so the traced
    # peak is the same at 2e4 and 2e5 steps.
    out = str(tmp_path / "orbit.csv")

    def config(steps):
        return write_config(base_config(returnmap={
            "theta": 0.05, "p": 50, "q": 50, "steps": steps, "oracle_every": 1000,
        }))

    def peak(steps):
        path = config(steps)
        tracemalloc.start()
        try:
            assert main(["returnmap", path, "--output", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main(["returnmap", config(20_000), "--output", out]) == 0  # warm up
    short, long = peak(20_000), peak(200_000)
    assert long < 1_000_000
    assert abs(long - short) < 200_000


@functools.cache
def oracle_cell(eps, theta, p, q, theta_next):
    """The oracle_delta cell of a step from (theta, p, q) to theta_next."""
    curve = pc.CurveSpec(family="ms_exponential", i=1.05)
    params = pc.ModelParams(curve=curve, coupling=pc.CouplingParams(n=N, epsilon=eps, tau=TAU))
    oracle = pc.two_clique_oracle_step(pc.TwoCliqueState(theta, p, q), params)
    return f"{abs(oracle.theta - theta_next):.17g}"


class TestReturnmapCsv:
    """`pcodelay returnmap` writes the CSV a row-by-row loop over the orbit
    would write, whatever the cycle, step count and oracle spacing."""

    ORBITS = {
        "late-cycle": (1e-4, 0.6, 3, 7),  # period 2 from step 1423
        "merged": (EPS, 0.0, 4, 6),  # period 1 from step 1
        "no-repeat": (1e-7, 0.05, 3, 7),
    }

    @pytest.mark.parametrize("every", [0, 1, 7, 100, 150, None])  # None: steps + 1
    @pytest.mark.parametrize("steps", [1, 99, 100, 101, 250, 5000])
    @pytest.mark.parametrize("orbit", ORBITS)
    def test_rows_equal_row_by_row_reference(
        self, curve, write_config, tmp_path, capsys, orbit, steps, every
    ):
        eps, theta, p, q = self.ORBITS[orbit]
        every = steps + 1 if every is None else every
        states, _ = reference_orbit(curve, theta, p, q, steps, eps)
        lines = ["step,theta,p,q,oracle_delta"]
        for s, (theta_s, p_s, q_s) in enumerate(states):
            delta = ""
            if every and s and s % every == 0 and states[s - 1][0] > 0.0:
                delta = oracle_cell(eps, *states[s - 1], theta_s)
            lines.append(f"{s},{theta_s:.17g},{p_s},{q_s},{delta}")
        expected = "\n".join(lines) + "\n"

        path = write_config(base_config(n=N, epsilon=eps, returnmap={
            "theta": theta, "p": p, "q": q, "steps": steps, "oracle_every": every,
        }))
        assert main(["returnmap", path]) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "orbit.csv"
        assert main(["returnmap", path, "--output", str(out)]) == 0
        assert out.read_bytes() == expected.encode()


def synthetic_cycle(start, period):
    """One distinct row per column, shaped like the CLI's rows, and the
    column of each step for a cycle of period from start."""
    rows = [
        f",{(c + 1) / (start + period + 1):.17g},{c % 97},{c % 89},"
        for c in range(start + period)
    ]

    def column(step):
        return step if step < start else start + (step - start) % period

    return rows, column


@pytest.mark.parametrize("start", [0, 5, 150, 1423])
@pytest.mark.parametrize("period", [3, 7, 99, 101, 100_003])
def test_block_writer_on_cycles_the_map_never_reaches(period, start):
    # The real map reaches only periods 1 and 2.  Periods that share no
    # factor with 100 put the blocks at up to period places in the cycle,
    # more than the writer keeps; a cycle from step 0 puts block 0 (unpadded
    # step numbers) at the same place in the cycle as later blocks.
    rows, column = synthetic_cycle(start, period)
    deltas = {c: f"{c * 1e-13:.17g}" for c in range(0, start + period, 3)}
    for steps in (1, 99, 100, 101, 250, 15_049):
        # steps + 1: no oracle step, what cmd_returnmap passes for oracle_every 0.
        for every in (1, 7, 100, 150, steps + 1):
            expected = "".join(
                f"{s}{rows[column(s)]}"
                + (deltas.get(column(s - 1), "") if s and s % every == 0 else "")
                + "\n"
                for s in range(steps + 1)
            )
            stream = io.StringIO()
            pcodelay.cli._write_orbit(stream, rows, column, start, steps, every, deltas)
            assert stream.getvalue() == expected, (steps, every)


def test_block_writer_memory_does_not_grow_with_a_long_period():
    # No block of a 100,003-step cycle starts where an earlier one did within
    # 2e6 steps, so every block is built afresh and only the first
    # _CSV_BLOCKS_CACHED are kept.
    start, period, every = 5, 100_003, 1000
    rows, column = synthetic_cycle(start, period)
    deltas = {c: f"{c * 1e-13:.17g}" for c in range(start + period)}

    class Sink:
        def write(self, text):
            pass

    def peak(steps):
        tracemalloc.start()
        try:
            pcodelay.cli._write_orbit(Sink(), rows, column, start, steps, every, deltas)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(200_000), peak(2_000_000)
    assert long < 1_000_000
    assert abs(long - short) < 100_000
