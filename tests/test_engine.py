"""Event engine: stepping semantics, grouping, firing, pipeline, determinism."""

import itertools
import math

import numpy as np
import pytest

import pcodelay as pc
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

    def test_repr_counts_pending_pulses(self):
        net = pc.NetworkState(make_params(n=4), [0.5, 1.0, 1.0, 0.3])
        assert repr(net) == "NetworkState(n=4, now=0.0, pending=0)"
        net.inject_pending([(0.05, 0), (0.05, 3)])
        assert repr(net) == "NetworkState(n=4, now=0.0, pending=2)"
        assert net.step().fired == (1, 2)
        assert repr(net) == "NetworkState(n=4, now=0.0, pending=4)"
        assert net.step().arrival_sources == (0, 3)
        assert repr(net) == "NetworkState(n=4, now=0.05, pending=2)"

    def test_inject_enforce_phase_offset(self):
        # a pulse arriving in 0.04 implies its source fired 0.06 ago
        params = make_params()
        net = pc.NetworkState(params, [0.06, 0.9])
        net.inject_pending([(0.04, 0)], enforce_phase_offset=True)
        net2 = pc.NetworkState(params, [0.5, 0.9])
        with pytest.raises(ValueError):
            net2.inject_pending([(0.04, 0)], enforce_phase_offset=True)

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


def bits(x) -> str:
    return float(x).hex()


class TestCachedTop:
    """top and bottom are phases.max() and phases.min(), bit for bit, after
    every change: step(), drift_to(), copy() and inject_pending()."""

    def assert_top(self, net):
        phases = net.phases
        assert bits(net.top) == bits(phases.max())
        assert bits(net.bottom) == bits(phases.min())
        spread = pc.phase_spread(net)
        assert bits(spread) == bits(phases.max() - phases.min())

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

    def test_inject_pending_keeps_top(self):
        net = pc.NetworkState(make_params(n=4), [0.5, 0.9, 0.2, 0.7])
        top = net.top
        net.inject_pending([(0.05, 1), (0.08, 2)])
        assert net.top == top
        self.assert_top(net)
        self.run_checked(net, 3.0)


def assert_groups(net):
    """The grouped state is well formed and agrees with the phases view."""
    groups = net._groups
    ws = list(groups.w)
    assert ws == sorted(ws)
    members = groups._arrays()
    assert len(members) == len(ws) == len(groups.last)
    assert sorted(np.concatenate(members).tolist()) == list(range(net.n))
    phases = net.phases
    for m in members:
        assert not m.flags.writeable
        assert m.tolist() == sorted(m.tolist())
        assert np.all(phases[m] == phases[m[0]])
    return len(ws)


class TestGroups:
    """The group structure through each path that splits or merges groups."""

    def test_initial_groups_share_equal_phases(self):
        net = pc.NetworkState(make_params(n=6), [0.3, 0.8, 0.3, 0.8, 0.3, 0.5])
        assert assert_groups(net) == 3
        assert net.phases.tolist() == [0.3, 0.8, 0.3, 0.8, 0.3, 0.5]
        assert (net.top, net.bottom) == (0.8, 0.3)

    def test_initial_groups_hold_no_arrays(self):
        # Construction and renormalization keep an initial group's members
        # as its index, so setting up a large network builds no array per group.
        n = 10_000
        net = pc.NetworkState(make_params(n=n, epsilon=0.1 / n), pc.sample_phases(7, n))
        members = net._groups.members
        assert len(members) == n
        assert not any(isinstance(m, np.ndarray) for m in members)
        net._groups.renormalize()
        assert not any(isinstance(m, np.ndarray) for m in net._groups.members)
        net.step()  # the front oscillator fires alone
        arrays = [m for m in net._groups.members if isinstance(m, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is net._groups.pending[0][1]

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
        audit = pc.audit_run(reports, params)
        assert audit.min_interfire_gap < params.coupling.tau
        assert audit.max_pending_per_source == 2
        want = [(a, f) for _, a, f in reference_run(params, phases, 30.0)]
        assert [(r.arrival_sources, r.fired) for r in reports] == want

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


class TestStepReport:
    def test_report_from_run_equals_one_built_from_tuples(self):
        net = pc.NetworkState(make_params(n=4), [0.5, 1.0, 1.0, 0.3])
        net.inject_pending([(0.1, 3), (0.1, 0)])
        first, second = itertools.islice(net.run(), 2)
        # Three volleys at once, in queue order: the injected single-source
        # ones, then the live one; the kernel concatenates them.
        assert len(second._arrival_sources) == 4
        for rep in (first, second):
            assert not rep._arrival_sources.flags.writeable
            assert not rep._fired.flags.writeable
        built = (
            pc.StepReport(event_time=0.0, arrival_sources=(), fired=(1, 2)),
            pc.StepReport(event_time=0.1, arrival_sources=(0, 3, 1, 2), fired=()),
        )
        for rep, ref in zip((first, second), built):
            assert rep == ref and ref == rep
            assert hash(rep) == hash(ref)
            assert repr(rep) == repr(ref)
            assert type(rep.fired) is tuple and type(rep.arrival_sources) is tuple
            assert rep.fired is rep.fired  # built once, then kept
        assert first != second
        assert len({first, second, *built}) == 2
        assert repr(built[0]) == (
            "StepReport(event_time=0.0, arrival_sources=(), fired=(1, 2))"
        )

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
        pc.audit_run(reports, headline_params)
        assert [(name, id(rep)) for name, rep in reads] == [
            (name, id(rep)) for rep in reports for name in ("arrival_sources", "fired")
        ]

        reads.clear()
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        frames = list(pc.stroboscopic_run(net, ref=0, frames=3))
        assert len(frames) == 3
        assert [name for name, _ in reads] == ["fired"] * len(reads)
        assert len({id(rep) for _, rep in reads}) == len(reads)  # none read twice
