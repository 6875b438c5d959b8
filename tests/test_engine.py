"""Event engine: stepping semantics, grouping, firing, pipeline, determinism."""

import itertools
import math
import re
from bisect import bisect_right
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcodelay as pc
from pcodelay import _kernel
from pcodelay.analysis import _in_flight
from pcodelay.curves import f_eval, f_inv, jump

from reference import reference_run


def make_params(n=2, epsilon=0.001, tau=0.1, **kw) -> pc.ModelParams:
    return pc.ModelParams(
        curve=pc.CurveSpec(i=1.05),
        coupling=pc.CouplingParams(n=n, epsilon=epsilon, tau=tau),
        **kw,
    )


class TestConstruction:
    def test_rejects_bad_phases(self):
        params = make_params()
        with pytest.raises(ValueError):
            pc.NetworkState(params, [0.5])  # wrong length
        with pytest.raises(ValueError):
            pc.NetworkState(params, [0.5, 0.0])  # zero reserved for just-fired
        with pytest.raises(ValueError):
            pc.NetworkState(params, [0.5, -0.1])
        with pytest.raises(ValueError):
            pc.NetworkState(params, [0.5, 1.1])
        with pytest.raises(ValueError):
            pc.NetworkState(params, [0.5, float("nan")])

    def test_phase_one_fires_at_time_zero(self):
        net = pc.NetworkState(make_params(), [0.5, 1.0])
        report = net.step()
        assert report.event_time == 0.0
        assert report.fired == (1,)
        assert net.phases[1] == 0.0

    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            make_params(tol_time=0.001)  # not < tau/100
        with pytest.raises(ValueError):
            make_params(tol_time=0.0)
        with pytest.raises(ValueError):
            make_params(tol_phase=1e-2)

    def test_initial_phases_are_copied(self):
        raw = np.array([0.5, 0.6])
        net = pc.NetworkState(make_params(), raw)
        raw[0] = 0.9
        assert net.phases[0] == 0.5

    def test_phases_view_is_read_only(self):
        net = pc.NetworkState(make_params(), [0.5, 0.6])
        with pytest.raises(ValueError):
            net.phases[0] = 0.1


class TestUncoupledDynamics:
    def test_period_is_one_without_coupling(self):
        params = make_params(epsilon=0.0)
        net = pc.NetworkState(params, [0.3, 0.8])
        fired_times = {0: [], 1: []}
        while net.now < 5.0:
            report = net.step()
            for i in report.fired:
                fired_times[i].append(report.event_time)
        for start, osc in ((0.3, 0), (0.8, 1)):
            expected = [1.0 - start + k for k in range(len(fired_times[osc]))]
            assert fired_times[osc] == pytest.approx(expected, abs=1e-12)

    def test_drift_only_between_events(self):
        net = pc.NetworkState(make_params(epsilon=0.0), [0.25, 0.5])
        net.drift_to(0.25)
        assert net.phases == pytest.approx([0.5, 0.75], abs=0)
        assert net.now == 0.25


class TestArrivalSemantics:
    def test_single_arrival_jump_matches_curve_math(self):
        params = make_params()
        curve = params.curve
        net = pc.NetworkState(params, [0.5, 1.0])
        net.step()  # firing of oscillator 1 at t=0
        report = net.step()  # arrival at tau
        assert report.event_time == pytest.approx(0.1, abs=0)
        assert report.arrival_sources == (1,)
        assert report.fired == ()
        expected = jump(curve, 0.001, 0.6, 1)
        assert abs(net.phases[0] - expected) <= 1e-13
        assert net.phases[1] == pytest.approx(0.1, abs=1e-15)

    def test_source_excluded_from_own_volley(self):
        # two co-firing oscillators: each absorbs one pulse, bystanders two
        params = make_params(n=4)
        curve = params.curve
        net = pc.NetworkState(params, [0.4, 0.5, 1.0, 1.0])
        first = net.step()
        assert first.fired == (2, 3)
        second = net.step()
        assert second.event_time == pytest.approx(0.1, abs=0)
        assert sorted(second.arrival_sources) == [2, 3]
        assert abs(net.phases[0] - jump(curve, 0.001, 0.5, 2)) <= 1e-13
        assert abs(net.phases[1] - jump(curve, 0.001, 0.6, 2)) <= 1e-13
        assert abs(net.phases[2] - jump(curve, 0.001, 0.1, 1)) <= 1e-13
        assert abs(net.phases[3] - jump(curve, 0.001, 0.1, 1)) <= 1e-13

    def test_grouped_arrivals_equal_one_aggregate_jump(self):
        # three pulses landing together act as a single 3-pulse jump
        params = make_params(n=4)
        curve = params.curve
        net = pc.NetworkState(params, [0.5, 1.0, 1.0, 1.0])
        net.step()
        report = net.step()
        assert len(report.arrival_sources) == 3
        aggregated = jump(curve, 0.001, 0.6, 3)
        sequential = jump(curve, 0.001, jump(curve, 0.001, jump(curve, 0.001, 0.6, 1), 1), 1)
        assert abs(net.phases[0] - aggregated) <= 1e-13
        assert abs(aggregated - sequential) <= 1e-12  # composition identity

    def test_pulse_at_threshold_fires_in_same_event(self):
        # a volley lands exactly when the receiver would need <= epsilon more
        params = make_params(n=3, epsilon=0.01)
        net = pc.NetworkState(params, [0.85, 0.86, 1.0])
        net.step()
        report = net.step()
        assert report.event_time == pytest.approx(0.1, abs=0)
        assert report.fired == (0, 1)
        assert net.phases[0] == 0.0 and net.phases[1] == 0.0
        # both were short of threshold before the pulse
        assert f_eval(params.curve, 0.95) < 1.0 < f_eval(params.curve, 0.95) + 0.01

    @pytest.mark.parametrize("n, epsilon", [(10, 9e303), (1000, 9e301)])
    def test_huge_epsilon_keeps_phases_finite(self, n, epsilon):
        # One pulse past threshold fires its receiver, so the network soon
        # fires as one; the volleys' summed increments must stay finite.
        net = pc.NetworkState(make_params(n=n, epsilon=epsilon), pc.sample_phases(7, n))
        list(net.run(3.0))
        assert np.isfinite(net.phases).all()
        assert net.top == net.bottom

    def test_absorbed_pair_stays_together(self):
        # once reset together, equal inputs keep the pair identical forever
        params = make_params(n=3, epsilon=0.01)
        net = pc.NetworkState(params, [0.85, 0.86, 1.0])
        list(net.run(0.1))
        for _ in range(60):
            net.step()
            assert net.phases[0] == net.phases[1]


class TestRunHelpers:
    def test_run_until_time_includes_boundary_event(self):
        # 1 - 0.5 is exact in binary, so the crossing lands exactly on the horizon
        net = pc.NetworkState(make_params(epsilon=0.0), [0.5, 0.25])
        reports = list(net.run(0.5))
        assert [r.event_time for r in reports] == [0.5]
        assert reports[0].fired == (0,)
        assert net.now == 0.5

    def test_run_until_time_drifts_to_horizon(self):
        net = pc.NetworkState(make_params(epsilon=0.0), [0.5, 0.9])
        list(net.run(0.75))
        assert net.now == 0.75
        assert net.phases[0] == pytest.approx(0.25, abs=1e-12)

    def test_run_until_time_rejects_past(self):
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        list(net.run(1.0))
        with pytest.raises(ValueError):
            list(net.run(0.5))
        assert net.now == 1.0

    def test_run_stopped_at_ref_firing_does_not_drift(self):
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        reports = []
        for report in net.run(5.0):
            reports.append(report)
            if 0 in report.fired:
                break
        assert 0 in reports[-1].fired
        assert all(0 not in r.fired for r in reports[:-1])
        assert net.now == reports[-1].event_time < 5.0

    def test_run_without_horizon_is_lazy(self):
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        run = net.run()
        assert net.now == 0.0
        reports = list(itertools.islice(run, 7))
        assert len(reports) == 7
        assert net.now == reports[-1].event_time

    def test_drift_to_guards(self):
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        with pytest.raises(ValueError):
            net.drift_to(-0.1)
        with pytest.raises(ValueError):
            net.drift_to(0.2)  # crossing of oscillator 1 at 0.1 intervenes
        net.drift_to(net.next_event_time())  # exactly onto the event is fine
        report = net.step()
        assert report.event_time == net.now

    def test_nan_time_is_rejected_and_leaves_the_clock(self):
        # NaN compares false both ways, so "t < now" let it through and the
        # clock became NaN, after which every run stopped at once.
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        list(net.run(0.3))
        with pytest.raises(ValueError):
            list(net.run(math.nan))
        assert net.now == 0.3
        with pytest.raises(ValueError):
            net.drift_to(math.nan)
        assert net.now == 0.3
        assert list(net.run(1.0)) and net.now == 1.0

    def test_clock_stays_a_python_float(self):
        # A float32 clock would put every later crossing off by about 1e-7,
        # far above tol_time; an int clock prints as now=2.
        params = make_params(n=3, epsilon=0.01, tau=0.1)
        net = pc.NetworkState(params, [0.5, 0.6, 0.7])
        list(net.run(2))
        assert type(net.now) is float and repr(net).startswith("NetworkState(n=3, now=2.0,")
        net.drift_to(np.float32(2.1))
        assert type(net.now) is float
        assert type(net.step().event_time) is float
        net = pc.NetworkState(params, [0.5, 0.6, 0.7])
        list(net.run(np.float32(0.45)))
        assert type(net.now) is float
        assert type(net.step().event_time) is float
        # now rounds to t in float32, so a float32 comparison would let t pass.
        t = np.float32(0.2)
        net = pc.NetworkState(params, [0.5, 0.6, 0.7])
        net.drift_to(float(t) + 1e-9)
        with pytest.raises(ValueError, match="backwards"):
            net.drift_to(t)
        assert net.now == float(t) + 1e-9

    def test_next_event_time_is_min_of_crossing_and_arrival(self):
        net = pc.NetworkState(make_params(), [0.5, 1.0])
        assert net.next_event_time() == 0.0
        net.step()
        # crossing of oscillator 0 at t=0.5 vs arrival at t=0.1
        assert net.next_event_time() == pytest.approx(0.1, abs=0)


class TestPipeline:
    def test_offsets_stay_within_delay(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(3, 100))
        for _ in range(300):
            net.step()
            for spike in net.pipeline:
                offset = spike.arrival_time - net.now
                assert 0.0 < offset <= 0.1 + 1e-12

    def test_inject_pending_validation(self):
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        with pytest.raises(ValueError):
            net.inject_pending([(0.0, 1)])  # not strictly in the future
        with pytest.raises(ValueError):
            net.inject_pending([(0.11, 1)])  # beyond one delay
        with pytest.raises(ValueError):
            net.inject_pending([(0.05, 7)])  # no such source
        net.inject_pending([(0.05, 1)])
        assert net.next_event_time() == 0.05
        assert net.pipeline == (pc.PendingSpike(0.05, 1),)

    def test_inject_pending_rejects_non_integer_source(self):
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        for source in (1.7, 1.0, "1", None):
            with pytest.raises(ValueError, match="not an integer"):
                net.inject_pending([(0.05, source)])
        assert net.pipeline == ()
        net.inject_pending([(0.05, np.int64(1)), (0.06, True)])
        assert net.pipeline == ((0.05, 1), (0.06, 1))
        assert all(type(s.source) is int for s in net.pipeline)

    def test_inject_pending_rejects_non_real_arrival(self):
        net = pc.NetworkState(make_params(), [0.5, 0.9])
        for arrival in ("0.05", None):
            with pytest.raises(ValueError, match=f"arrival {arrival!r} is not"):
                net.inject_pending([(0.04, 0), (arrival, 1)])
        # float32(0.1) is 0.1000000015, past now + tau, though equal in float32.
        with pytest.raises(ValueError, match="outside"):
            net.inject_pending([(np.float32(0.1), 1)])
        assert net.pipeline == ()
        net.inject_pending([(np.float64(0.05), 0), (np.float32(0.0625), 1)])
        assert net.pipeline == ((0.05, 0), (0.0625, 1))

    def test_repr_counts_pending_pulses(self):
        net = pc.NetworkState(make_params(n=4), [0.5, 1.0, 1.0, 0.3])
        assert repr(net) == "NetworkState(n=4, now=0.0, pending=0)"
        net.inject_pending([(0.05, 0), (0.05, 3)])
        assert repr(net) == "NetworkState(n=4, now=0.0, pending=2)"
        assert net.step().fired == (1, 2)
        assert repr(net) == "NetworkState(n=4, now=0.0, pending=4)"
        assert net.step().arrival_sources == (0, 3)
        assert repr(net) == "NetworkState(n=4, now=0.05, pending=2)"

    def test_injected_pulse_is_delivered(self):
        params = make_params()
        net = pc.NetworkState(params, [0.5, 0.9])
        net.inject_pending([(0.05, 1)])
        report = net.step()
        assert report.event_time == 0.05
        assert report.arrival_sources == (1,)
        expected = jump(params.curve, 0.001, 0.55, 1)
        assert abs(net.phases[0] - expected) <= 1e-13
        assert net.phases[1] == pytest.approx(0.95, abs=1e-15)

    def test_pulses_within_tol_time_arrive_in_one_event(self):
        params = make_params(n=3)
        curve = params.curve
        net = pc.NetworkState(params, [0.5, 0.6, 0.7])
        net.inject_pending([(0.05, 1), (0.05 + 5e-10, 2)])
        report = net.step()
        assert report.event_time == 0.05
        assert report.arrival_sources == (1, 2)
        assert report.fired == ()
        assert net.pipeline == ()
        expected = [
            jump(curve, 0.001, 0.5 + 0.05, 2),
            jump(curve, 0.001, 0.6 + 0.05, 1),
            jump(curve, 0.001, 0.7 + 0.05, 1),
        ]
        assert np.abs(net.phases - expected).max() <= 1e-13

    def test_injected_pulse_joins_live_volley_in_source_order(self):
        net = pc.NetworkState(make_params(n=4), [0.5, 1.0, 1.0, 0.3])
        assert net.step().fired == (1, 2)  # volley of sources 1, 2 due at tau
        net.inject_pending([(0.1, 3), (0.1, 0)])
        assert net.pipeline == tuple(pc.PendingSpike(0.1, s) for s in range(4))
        report = net.step()
        assert report.event_time == 0.1
        assert report.arrival_sources == (0, 1, 2, 3)

    def test_copies_keep_their_own_pipeline(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(5, 100))
        list(net.run(3.0))
        dup = net.copy()
        before = net.pipeline
        assert before and dup.pipeline == before
        for _ in range(200):
            net.step()
        assert net.pipeline != before
        assert dup.pipeline == before
        after = net.pipeline
        for _ in range(200):
            dup.step()
        assert dup.pipeline != before
        assert net.pipeline == after

    def test_pulses_stay_in_arrival_order(self):
        # Saturated: groups fire again within tau, so sources have two
        # pulses in flight and the analysis layer's per-source view must
        # order them by time.
        params = make_params(n=30, epsilon=0.02, tau=0.3)
        net = pc.NetworkState(params, pc.sample_phases(303, 30))
        most = 0
        for _ in net.run(30.0):
            times, sources = net._groups.pulses()
            assert np.all(np.diff(times) >= 0.0)
            per_source = np.bincount(sources, minlength=30)
            rows, counts, due = _in_flight(net)
            assert rows.tolist() == np.flatnonzero(per_source).tolist()
            assert counts.tolist() == per_source[rows].tolist()
            assert due.shape == (rows.shape[0], per_source.max())
            for k, i in enumerate(rows.tolist()):
                assert due[k, :counts[k]].tolist() == sorted(times[sources == i].tolist())
                assert not due[k, counts[k]:].any()
            most = max(most, int(per_source.max()))
        assert most == 2

    def test_pipeline_and_repr_agree_with_pulses(self):
        params = make_params(n=30, epsilon=0.02, tau=0.3)
        net = pc.NetworkState(params, pc.sample_phases(303, 30))
        net.inject_pending([(0.05, 3), (0.05, 3), (0.07, 11)])
        for _ in itertools.chain([None], itertools.islice(net.run(), 300)):
            times, sources = net._groups.pulses()
            assert net.pipeline == tuple(
                pc.PendingSpike(t, s) for t, s in zip(times.tolist(), sources.tolist())
            )
            assert repr(net).endswith(f"pending={sources.shape[0]})")

    def test_queue_compaction_and_growth(self):
        # a queue far longer than one event's volley drains to at most one
        # pending pulse per source
        params = make_params(n=3, epsilon=1e-6)
        net = pc.NetworkState(params, [0.2, 0.3, 0.4])
        spikes = [(0.001 + 0.0009 * k, k % 3) for k in range(100)]
        net.inject_pending(spikes)
        assert len(net.pipeline) == 100
        list(net.run(2.0))
        assert len(net.pipeline) <= 3
        assert np.all(net.phases >= 0.0) and np.all(net.phases <= 1.0)


class TestDeterminismAndLogs:
    def test_bit_identical_reruns(self, headline_params):
        def run():
            net = pc.NetworkState(headline_params, pc.sample_phases(9, 100))
            reports = list(net.run(20.0))
            return net, reports

        a, ra = run()
        b, rb = run()
        assert np.array_equal(a.phases, b.phases)
        assert a.min_interfire_gap == b.min_interfire_gap < math.inf
        assert ra == rb

    def test_copy_is_independent(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(5, 100))
        list(net.run(3.0))
        dup = net.copy()
        assert np.array_equal(net.phases, dup.phases)
        assert net.pipeline == dup.pipeline
        assert dup.min_interfire_gap == net.min_interfire_gap
        ahead = list(net.run(5.0))
        assert dup.now == 3.0
        assert list(dup.run(5.0)) == ahead
        assert np.array_equal(net.phases, dup.phases)
        assert net.min_interfire_gap == dup.min_interfire_gap

    def test_every_oscillator_fires_repeatedly(self, headline_params):
        # period is at most one unit, so 10 units yield at least 9 firings each
        net = pc.NetworkState(headline_params, pc.sample_phases(17, 100))
        reports = list(net.run(10.0))
        fired = [i for r in reports for i in r.fired]
        assert np.bincount(fired, minlength=100).min() >= 9

    def test_phases_stay_positive_between_events(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(23, 100))
        for _ in range(50):
            net.step()
            probe = net.copy()
            nxt = probe.next_event_time()
            if nxt > probe.now:
                probe.drift_to(probe.now + 0.5 * (nxt - probe.now))
                assert probe.phases.min() > 0.0


class TestZeroProgressGuard:
    def test_empty_event_raises_instead_of_repeating(self, headline_params):
        # A threshold event fires the front group directly, so a coarse
        # clock no longer yields an empty event; fake one instead with a
        # next_event_time() that stops halfway to every event.  step() must
        # raise, not repeat it; the bounded loop keeps the test from hanging
        # if the guard is missing.
        class ShortOfEveryEvent(pc.NetworkState):
            def next_event_time(self):
                return self.now + 0.5 * (super().next_event_time() - self.now)

        net = ShortOfEveryEvent(headline_params, pc.sample_phases(7, 100))
        with pytest.raises(RuntimeError, match="no pulse and fired nobody"):
            for _ in range(100):
                net.step()

    def test_kernel_raises_at_a_time_that_is_no_event(self, headline_params):
        # The kernel guards the event itself: called directly, between two
        # events, it raises and leaves a state that is consistent at that time.
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        g = net._groups
        t = 0.5 * g.t_next
        with pytest.raises(RuntimeError, match="no pulse and fired nobody"):
            _kernel.step_once(g, t)
        assert g.now == t
        g.check()


def bits(x) -> str:
    return float(x).hex()


def next_time(net) -> float:
    """The next event time from the views: the earlier of the front group's
    crossing and the first pulse's arrival."""
    return min([net.now + (1.0 - net.top), *(s.arrival_time for s in net.pipeline[:1])])


class TestCachedTop:
    """top and bottom are phases.max() and phases.min(), and the kernel's
    t_next is the next event time, bit for bit, after every change: step(),
    drift_to(), copy() and inject_pending()."""

    def assert_top(self, net):
        phases = net.phases
        assert bits(net.top) == bits(phases.max())
        assert bits(net.bottom) == bits(phases.min())
        spread = pc.phase_spread(net)
        assert bits(spread) == bits(phases.max() - phases.min())
        assert bits(net._groups.t_next) == bits(next_time(net))
        assert bits(net.next_event_time()) == bits(net._groups.t_next)

    def run_checked(self, net, horizon):
        for _ in net.run(horizon):  # step() after step()
            self.assert_top(net)
        self.assert_top(net)  # drifted to the horizon

    def test_headline_run(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        self.assert_top(net)
        self.run_checked(net, 20.0)
        dup = net.copy()
        self.assert_top(dup)
        self.run_checked(dup, 40.0)
        self.assert_top(net)  # untouched by its copy's steps

    def test_saturated_run(self):
        # Most arrivals here push some receiver to threshold.
        net = pc.NetworkState(make_params(n=30, epsilon=0.02), pc.sample_phases(7, 30))
        self.run_checked(net, 30.0)

    def test_late_non_round_time_takes_the_clip_branch(self, headline_params):
        # Away from t = 0, drifting by next_event_time() - now can overshoot
        # the threshold by rounding; the cap at 1.0 must keep top exact,
        # both in step() and in drift_to().
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        list(net.run(37.7731))
        self.assert_top(net)
        for _ in range(300):
            net.drift_to(net.next_event_time())
            self.assert_top(net)
            net.step()
            self.assert_top(net)

    def test_whole_network_fires_as_one_group(self):
        # Every group fires in one event, so the reset group becomes the
        # front and top is exactly 0.0.
        net = pc.NetworkState(make_params(n=5), [0.6] * 5)
        self.assert_top(net)
        report = net.step()
        assert report.fired == (0, 1, 2, 3, 4)
        assert bits(net.top) == bits(0.0)
        self.assert_top(net)
        self.run_checked(net, 3.0)

    def test_renormalize_mid_run_keeps_top(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        list(net.run(1.2345))
        top, t_next = net.top, net._groups.t_next
        net._groups.renormalize()
        assert bits(net.top) == bits(top)
        assert bits(net._groups.t_next) == bits(t_next)
        self.assert_top(net)
        self.run_checked(net, 5.0)

    def test_inject_pending_keeps_top(self):
        net = pc.NetworkState(make_params(n=4), [0.5, 0.9, 0.2, 0.7])
        top = net.top
        assert bits(net._groups.t_next) == bits(1.0 - 0.9)  # oscillator 1 crosses
        net.inject_pending([(0.05, 1), (0.08, 2)])
        assert net.top == top
        assert bits(net._groups.t_next) == bits(0.05)  # the injected arrival
        self.assert_top(net)
        self.run_checked(net, 3.0)

    def test_stepping_a_copy_keeps_both(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        list(net.run(3.0))
        top, t_next = net.top, net._groups.t_next
        dup = net.copy()
        assert bits(dup._groups.t_next) == bits(t_next)
        for _ in range(200):
            dup.step()
            self.assert_top(dup)
        assert dup.now > net.now
        assert bits(net.top) == bits(top)
        assert bits(net._groups.t_next) == bits(t_next)
        self.assert_top(net)


def ascending_ints(ids):
    """Whether ids is a tuple of Python ints in strictly ascending order."""
    return type(ids) is tuple and all(type(i) is int for i in ids) and all(
        a < b for a, b in zip(ids, ids[1:])
    )


def assert_groups(net):
    """The grouped state is well formed and agrees with the phases view."""
    groups = net._groups
    ws = list(groups.w)
    assert ws == sorted(ws)
    # Every stored handle is an immutable tuple.
    assert all(ascending_ints(m) for m in groups.members)
    members = [list(m) for m in groups.members]
    assert len(members) == len(ws) == len(groups.last)
    assert sorted(itertools.chain.from_iterable(members)) == list(range(net.n))
    phases = net.phases
    for m in members:
        assert m == sorted(m)
        assert np.all(phases[m] == phases[m[0]])
    return len(ws)


class TestGroups:
    """The group structure through each path that splits or merges groups."""

    def test_initial_groups_share_equal_phases(self):
        net = pc.NetworkState(make_params(n=6), [0.3, 0.8, 0.3, 0.8, 0.3, 0.5])
        assert assert_groups(net) == 3
        assert net.phases.tolist() == [0.3, 0.8, 0.3, 0.8, 0.3, 0.5]
        assert (net.top, net.bottom) == (0.8, 0.3)

    def test_initial_groups_are_ascending_tuples(self):
        # Construction builds every group's tuple, with distinct and with tied
        # phases; renormalization keeps each by identity, and the first
        # firing reports the very tuple built at construction.
        n = 10_000
        distinct = pc.NetworkState(make_params(n=n, epsilon=0.1 / n), pc.sample_phases(7, n))
        tied = pc.NetworkState(make_params(n=6), [0.3, 0.8, 0.3, 0.8, 0.3, 0.5])
        assert list(tied._groups.members) == [(0, 2, 4), (5,), (1, 3)]
        for net in (distinct, tied):
            g = net._groups
            built = list(g.members)
            assert all(ascending_ints(m) for m in built)
            assert sorted(itertools.chain.from_iterable(built)) == list(range(net.n))
            g.renormalize()
            assert all(m is b for m, b in zip(g.members, built, strict=True))
            rep = net.step()  # the front group fires alone
            assert rep.fired is built[-1] is g.members[0] is g.pending[0][1]
        assert len(built) == 3 and rep.fired == (1, 3)

    def test_saturated_refire_splits_groups(self):
        # The saturation check fails, so groups fire again while their own
        # volley is in flight; that volley then covers part of a group.
        params = make_params(n=30, epsilon=0.02, tau=0.3)
        phases = pc.sample_phases(303, 30)
        net = pc.NetworkState(params, phases)
        reports = []
        for rep in net.run(30.0):
            reports.append(rep)
            assert_groups(net)
            net._groups.check()
        net._groups.check()
        audit = pc.audit_run(reports, params)
        assert audit.min_interfire_gap < params.coupling.tau
        assert audit.max_pending_per_source == 2
        want = [(a, f) for _, a, f in reference_run(params, phases, 30.0)]
        assert [(r.arrival_sources, r.fired) for r in reports] == want

    @pytest.mark.parametrize("config", ["saturated", "headline"])
    def test_fire_queues_its_volley_and_keeps_the_gap(self, config, headline_params):
        # step_once queues the firers' volley with the firing: last in the
        # queue, due at event_time + tau, its sources the reset (back) group.
        if config == "saturated":
            params, phases = make_params(n=30, epsilon=0.02, tau=0.3), pc.sample_phases(303, 30)
        else:
            params, phases = headline_params, pc.sample_phases(7, 100)
        tau = params.coupling.tau
        net = pc.NetworkState(params, phases)
        reports = []
        for rep in net.run(30.0):
            reports.append(rep)
            net._groups.check()
            if rep.fired:
                due, sources, _ = net._groups.pending[-1]
                assert due == rep.event_time + tau
                assert sources is net._groups.members[0] and sources is rep.fired
        assert any(r.fired for r in reports)
        gap = pc.audit_run(reports, params).min_interfire_gap
        assert net.min_interfire_gap == gap and math.isfinite(gap)

    def test_arrivals_fire_groups_without_a_crossing(self):
        # The saturated event-stream config: arrivals push groups to
        # threshold before their crossing, so step_once reads the front
        # phase after the arrival and fires it there.
        params = make_params(n=30, epsilon=0.02, tau=0.1)
        net = pc.NetworkState(params, pc.sample_phases(7, 30))
        groups = net._groups
        pushed = 0
        while net.next_event_time() <= 50.0:
            crossing = net.next_event_time() >= groups.now + (1.0 - groups.top)
            rep = net.step()
            groups.check()
            pushed += not crossing and len(rep._fired) > 0
        assert pushed == 518  # of 539 events, as tests/test_event_stream.py counts

    def test_inject_from_part_of_a_group(self):
        params = make_params(n=4)
        curve = params.curve
        net = pc.NetworkState(params, [0.3, 0.3, 0.3, 0.8])
        assert assert_groups(net) == 2
        net.inject_pending([(0.05, 0)])
        report = net.step()
        assert report.arrival_sources == (0,) and report.fired == ()
        assert assert_groups(net) == 3  # 0 left its group behind
        expected = [0.35, jump(curve, 0.001, 0.35, 1), jump(curve, 0.001, 0.35, 1),
                    jump(curve, 0.001, 0.85, 1)]
        assert np.abs(net.phases - expected).max() <= 1e-13
        assert net.phases[1] == net.phases[2] > net.phases[0]

    def test_injected_volleys_stay_unlinked(self):
        # A loaded volley's link is NaN, which matches no group, and
        # renormalization keeps it NaN; the arrivals still follow the model.
        params = make_params(n=4)
        phases = [0.3, 0.3, 0.3, 0.8]
        injected = [(0.05, 0), (0.07, 3)]
        net = pc.NetworkState(params, phases)
        net.inject_pending(injected)
        net.drift_to(0.02)
        net._groups.renormalize()
        assert net._groups.epoch == 0.02
        assert [math.isnan(link) for _, _, link in net._groups.pending] == [True, True]
        got = [(r.event_time, r.arrival_sources, r.fired) for r in net.run(3.0)]
        want = list(reference_run(params, phases, 3.0, injected))
        assert [g[1:] for g in got] == [w[1:] for w in want]
        assert np.abs(np.subtract([g[0] for g in got], [w[0] for w in want])).max() <= 1e-12

    def test_duplicate_injected_sources(self):
        # The same pulse twice: its source absorbs none of the pair, the rest
        # both; a second source in the same event splits its group as well.
        params = make_params(n=5)
        curve = params.curve
        net = pc.NetworkState(params, [0.3, 0.3, 0.3, 0.6, 0.6])
        net.inject_pending([(0.05, 0), (0.05, 0), (0.05, 3)])
        report = net.step()
        assert report.arrival_sources == (0, 0, 3)
        assert assert_groups(net) == 4
        expected = [jump(curve, 0.001, 0.35, 1), jump(curve, 0.001, 0.35, 3),
                    jump(curve, 0.001, 0.35, 3), jump(curve, 0.001, 0.65, 2),
                    jump(curve, 0.001, 0.65, 3)]
        assert np.abs(net.phases - expected).max() <= 1e-13

    def test_copy_stays_independent_while_groups_split_and_merge(self):
        params = make_params(n=30, epsilon=0.02, tau=0.3)
        net = pc.NetworkState(params, pc.sample_phases(303, 30))
        net.inject_pending([(0.05, 3), (0.05, 3), (0.07, 11)])
        dup = net.copy()
        frozen = (net.phases.copy(), net.pipeline, net.top, net.bottom)
        ahead = list(dup.run(10.0))
        assert any(len(r.fired) > 1 for r in ahead)  # groups merged
        assert_groups(dup)
        assert np.array_equal(net.phases, frozen[0])
        assert (net.pipeline, net.top, net.bottom) == frozen[1:]
        assert_groups(net)
        assert list(net.run(10.0)) == ahead
        assert np.array_equal(net.phases, dup.phases)

    def test_renormalization_keeps_phases_and_links(self, headline_params):
        # The frame restarts about every 2.3 time units; every volley must
        # still find its whole source group afterwards.
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        epochs = set()
        for _ in net.run(10.0):
            epochs.add(net._groups.epoch)
            before = net.phases
            net._groups.renormalize()
            assert np.array_equal(net.phases, before)
        assert len(epochs) >= 4
        assert_groups(net)


class _NoNumpy:
    """Stands in for numpy in a module: any use raises."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on the event path")


def collapse_params(n=1000):
    return make_params(n=n, epsilon=0.1 / n, tau=0.1)


class TestTupleMembers:
    """Members, volley sources and reports are tuples of ints, so an event
    calls no numpy, and a merge builds one ascending tuple shared by the
    group, its volley and the report."""

    @pytest.mark.parametrize("n, events", [(100, 1492), (1000, 12703)])
    def test_no_event_calls_numpy(self, monkeypatch, n, events):
        params = collapse_params(n)
        net = pc.NetworkState(params, pc.sample_phases(7, n))
        groups = net._groups
        merges = 0

        def counted(reports):
            nonlocal merges
            before = len(groups.members)
            for rep in reports:
                # Without a split, k groups firing together leave k - 1 fewer.
                after = len(groups.members)
                merges += after < before
                before = after
                yield rep

        for module in (_kernel, pc.engine, pc.analysis):
            monkeypatch.setattr(module, "np", _NoNumpy())
        audit = pc.audit_run(counted(net.run(100.0)), params)
        monkeypatch.undo()
        assert audit.ok and audit.events == events
        if n == 1000:
            assert merges > 0

    def test_a_merge_is_one_ascending_tuple_shared_by_group_volley_and_report(self):
        net = pc.NetworkState(collapse_params(), pc.sample_phases(7, 1000))
        g = net._groups
        merges, largest = 0, 0
        while net.next_event_time() <= 100.0:
            before = list(g.members)
            rep = net.step()
            if not rep.fired:
                continue
            # The groups that fired are the front k, k - 1 fewer after the step.
            k = len(before) - len(g.members) + 1
            fired = before[-k:]
            assert rep.fired == tuple(sorted(itertools.chain.from_iterable(fired)))
            assert ascending_ints(rep.fired)
            assert rep.fired is g.members[0] is g.pending[-1][1]
            if k == 1:
                assert rep.fired is before[-1]  # a group firing alone keeps its tuple
            if k > 1:
                merges += 1
                largest = max(largest, len(rep.fired))
        g.check()
        assert merges > 100 and largest >= 100, (merges, largest)

    def test_injected_duplicates_split_into_ascending_tuples(self):
        net = pc.NetworkState(make_params(n=6), [0.3, 0.3, 0.3, 0.8, 0.8, 0.8])
        net.inject_pending([(0.05, 1), (0.05, 1), (0.05, 4)])
        assert net.step().arrival_sources == (1, 1, 4)
        members = list(net._groups.members)
        assert all(ascending_ints(m) for m in members)
        # Back to front: 0 and 2 took both pulses, 1 none; 3 and 5 one more than 4.
        assert members == [(1,), (0, 2), (4,), (3, 5)]
        net._groups.check()


def _swap_w(g):
    assert g.w[0] < g.w[-1]
    g.w[0], g.w[-1] = g.w[-1], g.w[0]


def _lower_top(g):
    g.top -= 1e-3


def _volley_overdue(g):
    _, sources, link = g.pending[0]
    g.pending[0] = (g.now - 2.0 * g.tol_time, sources, link)


def _list_members(g):
    g.members[0] = list(g.members[0])


def _descending_members(g):
    i = next(i for i, m in enumerate(g.members) if len(m) > 1)
    g.members[i] = g.members[i][::-1]


def _int_members(g):
    i = next(i for i, m in enumerate(g.members) if len(m) == 1)
    g.members[i] = g.members[i][0]


def _array_sources(g):
    t, sources, link = g.pending[0]
    g.pending[0] = (t, np.array(sources), link)


def _fired_later(g):
    g.last[0] = g.now + 1.0


def _stale_t_next(g):
    g.t_next += g.tol_time


_HANDLE_RULE = "a member handle is not a tuple of ascending ints"


class TestKernelContract:
    """The kernel contract holds after every way the state changes outside
    step(): injected pulses, a copy and a drift."""

    def test_inject_copy_and_drift(self):
        params = make_params(n=30, epsilon=0.02, tau=0.3)
        net = pc.NetworkState(params, pc.sample_phases(303, 30))
        net._groups.check()
        for _ in net.run(2.0):
            net._groups.check()
        net.inject_pending([(net.now + 0.05, 3), (net.now + 0.05, 3), (net.now + 0.3, 11)])
        net._groups.check()
        dup = net.copy()
        dup._groups.check()
        for probe in (net, dup):
            for _ in range(50):
                probe.drift_to(0.5 * (probe.now + probe.next_event_time()))
                probe._groups.check()
                probe.step()
                probe._groups.check()
        assert net.now == dup.now
        assert list(net.run(net.now + 4.0)) == list(dup.run(dup.now + 4.0))
        net._groups.check()
        dup._groups.check()

    @pytest.mark.parametrize(
        "corrupt, rule",
        [
            pytest.param(_swap_w, "w decreases from back to front", id="w-order"),
            pytest.param(_lower_top, "is not phase(-1)", id="top"),
            pytest.param(_volley_overdue, "a volley is due outside", id="volley-time"),
            pytest.param(_list_members, _HANDLE_RULE, id="members"),
            pytest.param(_descending_members, _HANDLE_RULE, id="members-descending"),
            pytest.param(_int_members, _HANDLE_RULE, id="members-int"),
            pytest.param(
                _array_sources, "volley sources are not all tuples of ascending ints",
                id="volley-sources",
            ),
            pytest.param(_fired_later, "a group last fired after now", id="last"),
            pytest.param(_stale_t_next, "is not the earlier of now + (1 - top)", id="t-next"),
        ],
    )
    def test_check_names_the_broken_rule(self, headline_params, corrupt, rule):
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        for _ in range(300):
            net.step()
        broken = net.copy()._groups
        corrupt(broken)
        with pytest.raises(AssertionError, match=re.escape(rule)):
            broken.check()
        net._groups.check()

    def test_event_time_before_now_raises(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        list(net.run(1.0))
        now = net.now
        with pytest.raises(RuntimeError, match="moved backwards"):
            _kernel.step_once(net._groups, now - 1.0)
        assert net.now == now
        net._groups.check()


def _delete_and_insert(g, i, w):
    """The lists w, members and last once the group at index i takes w and
    moves as a delete and an insert: among the groups behind it, after
    those with equal w."""
    ws, members, last = list(g.w), list(g.members), list(g.last)
    del ws[i]
    m, t = members.pop(i), last.pop(i)
    j = bisect_right(ws, w, 0, i)
    ws.insert(j, w)
    members.insert(j, m)
    last.insert(j, t)
    return ws, members, last


@st.composite
def group_moves(draw):
    """Groups with w on a grid of sixteenths, so that many tie, an index i
    and a new w below its back neighbour's, which the move takes 1 to i
    places back."""
    grid = sorted(draw(st.lists(st.integers(1, 16), min_size=2, max_size=12)))
    i = draw(st.integers(1, len(grid) - 1))
    w = draw(st.integers(0, grid[i - 1] - 1))
    return [x / 16 for x in grid], i, w / 16


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(group_moves())
def test_move_swaps_groups_into_the_inserted_order(case):
    ws, i, w = case
    net = pc.NetworkState(make_params(n=len(ws)), np.arange(1, len(ws) + 1) / len(ws))
    g = net._groups
    g.w = deque(ws)
    g.last = deque(-1.0 - k for k in range(len(ws)))
    g.top = g.phase(-1)
    g._set_t_next()
    g.check()
    want = _delete_and_insert(g, i, w)
    g._move(i, w)
    assert (list(g.w), list(g.members), list(g.last)) == want
    g.top = g.phase(-1)
    g._set_t_next()
    g.check()


@st.composite
def tied_phases(draw):
    """2 to 200 phases drawn from at most four values in (0, 1], so that
    most of them tie."""
    values = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4, unique=True))
    return draw(st.lists(st.sampled_from(values), min_size=2, max_size=200))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(tied_phases())
def test_initial_members_are_each_phase_in_index_order(phases):
    net = pc.NetworkState(make_params(n=len(phases)), phases)
    g = net._groups
    reference: dict[float, list[int]] = {}
    for i, p in enumerate(phases):
        reference.setdefault(p, []).append(i)
    assert list(g.members) == [tuple(reference[p]) for p in sorted(reference)]
    assert list(g.w) == sorted(reference)
    g.check()


# (params, initial phases, injected pulses, horizon): runs that between them
# take every branch step_once leaves to a helper.  The four event-stream
# configs never deliver several volleys at one instant or split a group.
OUT_OF_LINE_RUNS = [
    # The same pulse twice (two volleys due at once) and loaded volleys,
    # whose NaN link matches no group, so their sources split it.
    (make_params(n=6, epsilon=0.002), [0.3, 0.3, 0.3, 0.8, 0.8, 0.8],
     [(0.05, 0), (0.05, 0), (0.07, 4), (0.09, 0)], 20.0),
    # Saturated: groups fire again within tau (split), arrivals move groups
    # back past their neighbours and push several to threshold (merge).
    (make_params(n=30, epsilon=0.02, tau=0.3), pc.sample_phases(303, 30), [], 30.0),
    # epsilon = 0: volleys arrive and move nobody, one at a time and two at once.
    (make_params(n=5, epsilon=0.0), pc.sample_phases(7, 5), [(0.05, 1), (0.05, 2)], 5.0),
]


def test_out_of_line_branches_match_the_reference(monkeypatch):
    calls = dict.fromkeys(("_deliver", "_split", "_move"), 0)
    for name in calls:
        method = getattr(_kernel.Groups, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(_kernel.Groups, name, counted)

    def before_step(g):
        """The volleys due at the next event and each oscillator's group."""
        due = sum(v[0] <= g.t_next + g.tol_time for v in g.pending)
        owner = {i: k for k, m in enumerate(g.members) for i in m}
        return due, owner

    uncoupled_arrivals = volleys_at_once = groups_at_once = 0
    for params, phases, injected, horizon in OUT_OF_LINE_RUNS:
        net = pc.NetworkState(params, phases)
        net.inject_pending(injected)
        got = []
        due, owner = before_step(net._groups)
        for r in net.run(horizon):
            net._groups.check()
            got.append((r.event_time, r.arrival_sources, r.fired))
            volleys_at_once += due >= 2
            # Delivery only splits groups, so firers from two groups that
            # existed before the step mean two groups fired together.
            groups_at_once += len({owner[i] for i in r.fired}) >= 2
            due, owner = before_step(net._groups)
        want = list(reference_run(params, phases, horizon, injected))
        assert [g[1:] for g in got] == [w[1:] for w in want]
        assert np.abs(np.subtract([g[0] for g in got], [w[0] for w in want])).max() <= 1e-12
        if params.coupling.epsilon == 0.0:
            uncoupled_arrivals += sum(len(g[1]) > 0 for g in got)
    assert all(calls.values()), calls
    assert volleys_at_once and groups_at_once, (volleys_at_once, groups_at_once)
    assert uncoupled_arrivals > 1


class TestStepReport:
    def test_report_from_run_equals_one_built_from_tuples(self):
        net = pc.NetworkState(make_params(n=4), [0.5, 1.0, 1.0, 0.3])
        net.inject_pending([(0.1, 3), (0.1, 0)])
        first, second = itertools.islice(net.run(), 2)
        # Three volleys at once, in queue order: the injected single-source
        # ones, then the live one; the kernel concatenates them.
        assert len(second._arrival_sources) == 4
        built = (
            pc.StepReport(event_time=0.0, arrival_sources=(), fired=(1, 2)),
            pc.StepReport(event_time=0.1, arrival_sources=(0, 3, 1, 2), fired=()),
        )
        for rep, ref in zip((first, second), built):
            assert rep == ref and ref == rep
            assert hash(rep) == hash(ref)
            assert repr(rep) == repr(ref)
            assert type(rep.fired) is tuple and type(rep.arrival_sources) is tuple
            assert rep.fired == ref.fired and rep.arrival_sources == ref.arrival_sources
            # The properties hand out the stored tuples themselves.
            for r in (rep, ref):
                assert r.fired is r._fired and r.arrival_sources is r._arrival_sources
            for stored in (rep._fired, rep._arrival_sources, ref._fired, ref._arrival_sources):
                assert type(stored) is tuple and all(type(i) is int for i in stored)
        assert first != second
        assert len({first, second, *built}) == 2
        assert repr(built[0]) == (
            "StepReport(event_time=0.0, arrival_sources=(), fired=(1, 2))"
        )

    def test_reports_built_from_lists_tuples_and_the_kernel_agree(self, headline_params):
        reports = list(pc.NetworkState(headline_params, pc.sample_phases(7, 100)).run(3.0))
        audit = pc.audit_run(reports, headline_params)
        as_lists = [
            pc.StepReport(r.event_time, list(r.arrival_sources), list(r.fired))
            for r in reports
        ]
        as_tuples = [
            pc.StepReport(r.event_time, tuple(r.arrival_sources), tuple(r.fired))
            for r in reports
        ]
        as_int32 = [
            pc.StepReport(r.event_time, np.array(r.arrival_sources, dtype=np.int32),
                          np.array(r.fired, dtype=np.int32))
            for r in reports
        ]
        for built in (as_lists, as_tuples, as_int32):
            for r in built:
                for stored in (r._arrival_sources, r._fired):
                    assert type(stored) is tuple and all(type(i) is int for i in stored)
            assert pc.audit_run(built, headline_params) == audit
            assert built == reports
            assert [hash(r) for r in built] == [hash(r) for r in reports]
            assert [repr(r) for r in built] == [repr(r) for r in reports]
        assert len({*as_lists, *as_tuples, *as_int32, *reports}) == len(reports)
        rep = pc.StepReport(0.5, [1], range(2, 4))
        assert (rep.arrival_sources, rep.fired) == ((1,), (2, 3))
        assert rep == pc.StepReport(0.5, (1,), (2, 3))

    @pytest.mark.parametrize("sources, fired", [([1.5], ()), ((), [2.0]), (["1"], ()),
                                                ([[1]], ()), (3, ()), ([2**63], ()),
                                                ([-(2**63) - 1], ()), (np.array([1.0]), ()),
                                                ((), np.array([[1]])), (np.array(1), ())])
    def test_non_integer_ids_raise_instead_of_being_truncated(self, sources, fired):
        with pytest.raises(TypeError, match="must be a sequence of integers"):
            pc.StepReport(0.5, sources, fired)

    def test_reports_are_read_only(self):
        rep = pc.NetworkState(make_params(), [0.5, 1.0]).step()
        for name in ("event_time", "arrival_sources", "fired", "other"):
            with pytest.raises(AttributeError):
                setattr(rep, name, ())

    def test_consumers_read_each_tuple_once_per_report(self, monkeypatch, headline_params):
        reads = []

        class Counted(pc.StepReport):
            __slots__ = ()

            @property
            def arrival_sources(self):
                reads.append(("arrival_sources", self))
                return super().arrival_sources

            @property
            def fired(self):
                reads.append(("fired", self))
                return super().fired

        monkeypatch.setattr(pc.engine, "StepReport", Counted)
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        reports = list(net.run(3.0))
        assert reports and not reads
        # The audit reads the stored fields and builds no tuple.
        pc.audit_run(reports, headline_params)
        assert not reads

        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        frames = list(pc.stroboscopic_run(net, ref=0, frames=3))
        assert len(frames) == 3
        assert [name for name, _ in reads] == ["fired"] * len(reads)
        assert len({id(rep) for _, rep in reads}) == len(reads)  # none read twice


class TestStepContract:
    def test_run_calls_step_once_per_report(self, headline_params, monkeypatch):
        # Tools that observe a run (the benchmark's event-stream digest and
        # work count among them) hook NetworkState.step on the class; run()
        # must go through it for every event it yields.
        expected = list(
            pc.NetworkState(headline_params, pc.sample_phases(7, 100)).run(20.0)
        )
        stepped = []
        step = pc.NetworkState.step

        def hooked(self):
            report = step(self)
            stepped.append(report)
            return report

        monkeypatch.setattr(pc.NetworkState, "step", hooked)
        reports = list(pc.NetworkState(headline_params, pc.sample_phases(7, 100)).run(20.0))
        assert len(stepped) == len(reports) == len(expected) > 100
        assert all(a is b for a, b in zip(stepped, reports))
        assert reports == expected
