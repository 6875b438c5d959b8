"""Synchrony verdicts, clustering, strobe sampling, audits, and trial sweeps."""

import decimal
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import pcodelay as pc
from pcodelay.analysis import (
    InfeasibleScenarioError,
    StructuralError,
    _run_to_sync,
    _synchronized,
    stable_cluster_count,
)
from pcodelay import _kernel
from pcodelay.engine import PendingSpike, StepReport
from pcodelay.rng import SplitMix64


def make_params(n, epsilon, tau, i=1.05, **kw):
    return pc.ModelParams(
        curve=pc.CurveSpec(family="ms_exponential", i=i),
        coupling=pc.CouplingParams(n=n, epsilon=epsilon, tau=tau),
        **kw,
    )


def _never_sampled(trial):
    pytest.fail("a trial started before the arguments were checked")


# One call per rejection branch of the analysis functions, the error it
# raises and the start of its message.
_PAIR = make_params(2, 0.001, 0.1)
_TEN = make_params(10, 0.001, 0.1)
_SATURATED = make_params(100, 0.02, 0.3)
REJECTED = [
    ("window=0", lambda: stable_cluster_count([2, 2], window=0), "window"),
    ("frames=-1",
     lambda: next(pc.stroboscopic_run(pc.NetworkState(_PAIR, [0.5, 0.9]), frames=-1)),
     "frames"),
    ("theta=1", lambda: pc.TwoCliqueState(theta=1.0, p=5, q=5), "theta"),
    ("p=0", lambda: pc.TwoCliqueState(theta=0.1, p=0, q=10), "clique sizes must"),
    ("oracle-sizes",
     lambda: pc.two_clique_oracle_step(pc.TwoCliqueState(0.1, 4, 5), _TEN),
     "clique sizes 4"),
    ("oracle-theta=0",
     lambda: pc.two_clique_oracle_step(pc.TwoCliqueState(0.0, 5, 5), _TEN),
     "oracle needs"),
    ("trials=0",
     lambda: pc.desync_trial(_PAIR, lambda t: [0.5, 0.9], horizon=1.0, trials=0),
     "trials"),
    ("ref=1.5",
     lambda: next(pc.stroboscopic_run(pc.NetworkState(_PAIR, [0.5, 0.9]), ref=1.5)),
     "ref"),
    ("horizon=inf",
     lambda: pc.desync_trial(_PAIR, lambda t: [0.5, 0.9], horizon=math.inf, trials=1),
     "horizon"),
    ("tol_phase=-1",
     lambda: pc.cluster_partition(pc.NetworkState(_PAIR, [0.5, 0.9]), tol_phase=-1.0),
     "tol_phase"),
    ("tol_phase=nan",
     lambda: pc.cluster_partition(pc.NetworkState(_PAIR, [0.5, 0.9]), tol_phase=math.nan),
     "tol_phase"),
    ("cluster_tol=nan",
     lambda: pc.desync_trial(
         _PAIR, _never_sampled, horizon=1.0, trials=1, cluster_tol=math.nan
     ),
     "cluster_tol"),
    ("p=1.5",
     lambda: pc.iterate_return_map(
         pc.TwoCliqueState(0.1, 1.5, 8.5), 3, _TEN.curve, _TEN.coupling
     ),
     "p 1.5 is not an integer"),
    ("oracle-p=1.5",
     lambda: pc.two_clique_oracle_step(pc.TwoCliqueState(0.1, 1.5, 8.5), _TEN),
     "p 1.5 is not an integer"),
    ("frames=2.5",
     lambda: next(pc.stroboscopic_run(pc.NetworkState(_PAIR, [0.5, 0.9]), frames=2.5)),
     "frames 2.5 is not an integer"),
    ("trials=2.5",
     lambda: pc.desync_trial(_PAIR, _never_sampled, horizon=1.0, trials=2.5),
     "trials 2.5 is not an integer"),
    ("window=1.5", lambda: stable_cluster_count([2, 2], window=1.5),
     "window 1.5 is not an integer"),
    ("steps=2.5",
     lambda: pc.iterate_return_map(
         pc.TwoCliqueState(0.1, 5, 5), 2.5, _TEN.curve, _TEN.coupling
     ),
     "steps 2.5 is not an integer"),
    ("small-p=1.5",
     lambda: pc.small_gap_branch(_TEN.curve, _TEN.coupling, 0.05, 1.5, 8),
     "p 1.5 is not an integer"),
    ("small-p=0",
     lambda: pc.small_gap_branch(_TEN.curve, _TEN.coupling, 0.05, 0, 10),
     "p must be >= 1"),
    ("small-sizes",
     lambda: pc.small_gap_branch(_TEN.curve, _TEN.coupling, 0.05, 4, 5),
     "clique sizes 4"),
    ("small-saturated",
     lambda: pc.small_gap_branch(_SATURATED.curve, _SATURATED.coupling, 0.05, 50, 50),
     "saturation check fails"),
    ("small-theta=0.5",
     lambda: pc.small_gap_branch(_TEN.curve, _TEN.coupling, 0.5, 4, 6),
     "theta"),
    ("large-q=n",
     lambda: pc.large_gap_branch(_TEN.curve, _TEN.coupling, 0.5, 10),
     "q 10 out of range"),
    ("large-q=2.5",
     lambda: pc.large_gap_branch(_TEN.curve, _TEN.coupling, 0.5, 2.5),
     "q 2.5 is not an integer"),
    ("large-saturated",
     lambda: pc.large_gap_branch(_SATURATED.curve, _SATURATED.coupling, 0.5, 50),
     "saturation check fails"),
    ("large-theta=0.05",
     lambda: pc.large_gap_branch(_TEN.curve, _TEN.coupling, 0.05, 6),
     "theta"),
    ("steps=0-sizes",
     lambda: pc.iterate_return_map(
         pc.TwoCliqueState(0.1, 4, 5), 0, _TEN.curve, _TEN.coupling
     ),
     "clique sizes 4"),
    ("steps=0-saturated",
     lambda: pc.iterate_return_map(
         pc.TwoCliqueState(0.05, 50, 50), 0, _SATURATED.curve, _SATURATED.coupling
     ),
     "saturation check fails"),
    ("horizon=-1",
     lambda: pc.desync_trial(_PAIR, _never_sampled, horizon=-1.0, trials=1),
     "horizon"),
]


@pytest.mark.parametrize(
    "call, start", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED]
)
def test_rejected_arguments_raise_value_error(call, start):
    with pytest.raises(ValueError, match=f"^{start}"):
        call()


class TestSyncVerdict:
    def test_identical_fresh_states_are_synchronized(self, pair_params):
        net = pc.NetworkState(pair_params, [0.5, 0.5])
        v = pc.is_completely_synchronized(net)
        assert v.synchronized
        assert v.phase_spread == 0.0
        assert not v.pipeline_mismatch

    def test_cofiring_state_stays_synchronized(self, pair_params):
        net = pc.NetworkState(pair_params, [1.0, 1.0])
        for _ in range(8):
            assert pc.is_completely_synchronized(net).synchronized
            net.step()

    def test_distinct_phases_not_synchronized(self, pair_params):
        net = pc.NetworkState(pair_params, [0.4, 0.6])
        v = pc.is_completely_synchronized(net)
        assert not v.synchronized
        assert v.phase_spread == pytest.approx(0.2)

    def test_equal_phases_mismatched_pipelines_not_synchronized(self, pair_params):
        net, phi = pc.matched_phase_pair(pair_params)
        list(net.run(pair_params.coupling.tau))
        net.drift_to(pair_params.coupling.tau + phi / 2)
        v = pc.is_completely_synchronized(net)
        assert v.phase_spread <= pair_params.tol_phase
        assert v.pipeline_mismatch
        assert not v.synchronized

    @pytest.mark.parametrize(
        "offset, synchronized", [(0.01, False), (5e-10, True), (2e-9, False)]
    )
    def test_equal_counts_compare_arrival_times_within_tol_time(
        self, pair_params, offset, synchronized
    ):
        net = pc.NetworkState(pair_params, [0.5, 0.5])
        net.inject_pending([(0.05, 0), (0.05 + offset, 1)])
        v = pc.is_completely_synchronized(net)
        assert v.phase_spread == 0.0
        assert v.pipeline_mismatch is not synchronized
        assert v.synchronized is synchronized

    def test_phase_spread_helper(self):
        params = make_params(3, 0.0, 0.2)
        net = pc.NetworkState(params, [0.2, 0.9, 0.5])
        assert pc.phase_spread(net) == pytest.approx(0.7)
        flat = pc.NetworkState(make_params(2, 0.0, 0.2), [0.3, 0.3])
        assert pc.phase_spread(flat) == 0.0


class TestClusterPartition:
    def test_all_distinct_gives_singletons(self, pair_params):
        params = make_params(4, 0.001, 0.1)
        net = pc.NetworkState(params, [0.1, 0.4, 0.7, 0.9])
        part = pc.cluster_partition(net)
        assert part.n_clusters == 4
        assert part.sizes == (1, 1, 1, 1)
        # clusters ordered by smallest member index
        assert part.clusters == ((0,), (1,), (2,), (3,))

    def test_absorbed_pair_clusters_together(self, std_curve):
        params = make_params(4, 0.01, 0.1)
        net = pc.NetworkState(params, [0.85, 0.86, 0.3, 1.0])
        list(net.run(6.0))
        part = pc.cluster_partition(net)
        joint = [c for c in part.clusters if 0 in c]
        assert joint and 1 in joint[0]

    def test_equal_phases_split_by_pipeline_signature(self, pair_params):
        net, phi = pc.matched_phase_pair(pair_params)
        list(net.run(pair_params.coupling.tau))
        net.drift_to(pair_params.coupling.tau + phi / 2)
        part = pc.cluster_partition(net)
        assert part.n_clusters == 2
        part_loose = pc.cluster_partition(net, tol_phase=1e-3)
        assert part_loose.n_clusters == 2

    def test_tolerance_controls_merging(self):
        params = make_params(3, 0.0, 0.2)
        net = pc.NetworkState(params, [0.5, 0.5 + 1e-8, 0.9])
        tight = pc.cluster_partition(net, tol_phase=1e-12)
        loose = pc.cluster_partition(net, tol_phase=1e-6)
        assert tight.n_clusters == 3
        assert loose.n_clusters == 2

    def test_representative_phases_match_clusters(self):
        params = make_params(3, 0.0, 0.2)
        net = pc.NetworkState(params, [0.7, 0.2, 0.7])
        part = pc.cluster_partition(net)
        assert part.clusters == ((0, 2), (1,))
        assert part.representative_phases[0] == pytest.approx(0.7)
        assert part.representative_phases[1] == pytest.approx(0.2)

    def test_phase_tolerance_chains(self):
        params = make_params(3, 0.0, 0.2)
        chained = pc.NetworkState(params, [0.5, 0.5 + 0.6e-12, 0.5 + 1.2e-12])
        assert pc.cluster_partition(chained).clusters == ((0, 1, 2),)
        broken = pc.NetworkState(params, [0.5, 0.5 + 0.6e-12, 0.5 + 2e-12])
        assert pc.cluster_partition(broken).clusters == ((0, 1), (2,))

    def test_arrival_time_tolerance_chains_where_the_verdict_takes_a_spread(self):
        params = make_params(4, 0.001, 0.2)
        net = pc.NetworkState(params, [0.5] * 4)
        net.inject_pending(
            (0.05 + offset, s) for s, offset in enumerate([0.0, 6e-10, 1.2e-9, 3e-9])
        )
        assert pc.cluster_partition(net).clusters == ((0, 1, 2), (3,))
        assert pc.is_completely_synchronized(net).pipeline_mismatch

    def test_equal_arrival_times_cluster_whatever_the_index_order(self):
        params = make_params(4, 0.001, 0.2)
        net = pc.NetworkState(params, [0.5] * 4)
        net.inject_pending([(0.05, 0), (0.07, 1), (0.05 + 5e-10, 2), (0.07 + 5e-10, 3)])
        assert pc.cluster_partition(net).clusters == ((0, 2), (1, 3))

    def test_pulse_counts_split_equal_phases(self):
        params = make_params(4, 0.001, 0.2)
        net = pc.NetworkState(params, [0.5] * 4)
        net.inject_pending([(0.05, 0), (0.1, 0), (0.05, 1), (0.1, 1), (0.05, 2)])
        part = pc.cluster_partition(net)
        assert part.clusters == ((0, 1), (2,), (3,))
        assert part.representative_phases == (0.5, 0.5, 0.5)
        # A pulse due within tol_time of t = 0 still differs from none.
        early = pc.NetworkState(make_params(2, 0.001, 0.2), [0.5, 0.5])
        early.inject_pending([(5e-10, 0)])
        assert pc.cluster_partition(early).clusters == ((0,), (1,))

    @pytest.mark.parametrize("tol_phase", [None, 1e-6, 1e-3])
    def test_matches_list_reference_on_saturated_runs(self, tol_phase):
        # Saturated coupling: oscillators refire within one delay, so
        # sources have several pulses in flight.
        params = make_params(30, 0.02, 0.3)
        most_pending = 0
        for seed in range(4):
            net = pc.NetworkState(params, pc.sample_phases(300 + seed, 30))
            for _ in range(200):
                net.step()
                assert_match_list_references(net, tol_phase)
                pending = Counter(s for _, s in net.pipeline)
                most_pending = max(most_pending, max(pending.values(), default=0))
        assert most_pending >= 2

    @pytest.mark.parametrize("tol_phase", [None, 1e-6])
    def test_matches_list_reference_on_the_headline_run(self, headline_params, tol_phase):
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        assert_match_list_references(net, tol_phase)
        for _ in range(300):
            net.step()
            assert_match_list_references(net, tol_phase)

    def test_matches_list_reference_on_the_matched_pair(self, pair_params):
        # At every event and half way to the next, which covers the window
        # of equal phases with a pulse in flight towards one oscillator.
        net, _ = pc.matched_phase_pair(pair_params)
        for _ in range(40):
            assert_match_list_references(net, 1e-3)
            net.drift_to(0.5 * (net.now + net.next_event_time()))
            assert_match_list_references(net, None)
            assert_match_list_references(net, 1e-3)
            net.step()

    @pytest.mark.parametrize(
        "pulses, mismatch",
        [
            pytest.param([(0.05, 0), (0.05, 2)], True, id="some-sources"),
            pytest.param([(0.05, s) for s in range(4)], False, id="all-sources"),
            pytest.param(
                [(0.05 + 5e-10 * (s % 2), s) for s in range(4)], False, id="offset-5e-10"
            ),
            pytest.param(
                [(0.05 + 2e-9 * (s % 2), s) for s in range(4)], True, id="offset-2e-9"
            ),
            pytest.param(
                [(0.05, s) for s in range(4)] + [(0.05, 1)], True, id="duplicate"
            ),
            pytest.param(
                [(t, s) for s in range(4) for t in (0.05, 0.07)], False, id="two-each"
            ),
        ],
    )
    def test_injected_pulses_match_list_references(self, pulses, mismatch):
        net = pc.NetworkState(make_params(4, 0.001, 0.2), [0.5] * 4)
        net.inject_pending(pulses)
        assert list_mismatch(net) is mismatch
        assert_match_list_references(net, None)


def assert_match_list_references(state, tol_phase):
    """cluster_partition and is_completely_synchronized equal their list
    references on this state."""
    part = pc.cluster_partition(state, tol_phase=tol_phase)
    assert (part.clusters, part.representative_phases) == list_partition(state, tol_phase)
    verdict = pc.is_completely_synchronized(state)
    phases = state.phases.tolist()
    spread = max(phases) - min(phases)
    mismatch = list_mismatch(state)
    assert verdict.phase_spread == spread
    assert verdict.pipeline_mismatch is mismatch
    assert verdict.synchronized is (spread <= state.params.tol_phase and not mismatch)


def _signatures(state):
    """Each oscillator's own pending arrival times, ascending."""
    signatures = [[] for _ in range(state.n)]
    for t, s in state.pipeline:
        signatures[s].append(t)
    for sig in signatures:
        sig.sort()
    return signatures


def list_mismatch(state):
    """is_completely_synchronized's pipeline_mismatch with per-source lists:
    the reference.  True if the oscillators source unequal numbers of
    pulses, or if the k-th arrival times of some k spread by more than
    tol_time."""
    signatures = _signatures(state)
    if len(set(map(len, signatures))) > 1:
        return True
    return any(
        max(column) - min(column) > state.params.tol_time for column in zip(*signatures)
    )


def list_partition(state, tol_phase=None):
    """cluster_partition with per-oscillator lists: the reference.

    Sorts oscillators by phase and chains them into runs within tol_phase,
    buckets each run by pulse count, sorts each bucket by its sorted
    arrival-time lists and chains neighbours whose times all agree within
    tol_time.  Returns (clusters, representative_phases).
    """
    if tol_phase is None:
        tol_phase = state.params.tol_phase
    tol_time = state.params.tol_time
    phases = state.phases.tolist()
    signatures = _signatures(state)
    order = sorted(range(len(phases)), key=phases.__getitem__)
    runs = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if phases[cur] - phases[prev] > tol_phase:
            runs.append([])
        runs[-1].append(cur)
    clusters = []
    for run in runs:
        by_count = {}
        for i in run:
            by_count.setdefault(len(signatures[i]), []).append(i)
        for members in by_count.values():
            members.sort(key=signatures.__getitem__)
            current = [members[0]]
            for prev, cur in zip(members, members[1:]):
                if all(abs(a - b) <= tol_time
                       for a, b in zip(signatures[prev], signatures[cur])):
                    current.append(cur)
                else:
                    clusters.append(sorted(current))
                    current = [cur]
            clusters.append(sorted(current))
    clusters.sort()
    return tuple(map(tuple, clusters)), tuple(phases[c[0]] for c in clusters)


class TestStableClusterCount:
    def test_constant_tail_returns_value(self):
        assert stable_cluster_count([5, 4, 3] + [2] * 50, window=50) == 2

    def test_changing_tail_returns_none(self):
        assert stable_cluster_count([2] * 49 + [3], window=50) is None

    def test_short_sequence_returns_none(self):
        assert stable_cluster_count([2] * 10, window=50) is None

    def test_window_one_takes_last(self):
        assert stable_cluster_count([4, 7], window=1) == 7


class TestStroboscopicRun:
    def test_frame_count_and_indexing(self, headline_params):
        phases = pc.sample_phases(11, 100)
        net = pc.NetworkState(headline_params, phases)
        frames = list(pc.stroboscopic_run(net, ref=0, frames=20))
        assert len(frames) == 20
        assert [f.k for f in frames] == list(range(1, 21))
        times = [f.t for f in frames]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_reference_pinned_at_threshold(self, headline_params):
        phases = pc.sample_phases(12, 100)
        net = pc.NetworkState(headline_params, phases)
        for frame in pc.stroboscopic_run(net, ref=3, frames=10):
            assert frame.phases[3] == 1.0

    def test_generator_is_lazy_and_advances_state(self, headline_params):
        phases = pc.sample_phases(13, 100)
        net = pc.NetworkState(headline_params, phases)
        gen = pc.stroboscopic_run(net, ref=0, frames=5)
        assert net.now == 0.0
        first = next(gen)
        assert net.now == first.t > 0.0

    def test_ref_out_of_range(self, headline_params):
        # Rejected before the first step, even when no frame is asked for.
        net = pc.NetworkState(headline_params, pc.sample_phases(14, 100))
        for ref, frames in ((100, 1), (-1, 0)):
            with pytest.raises(ValueError, match="ref"):
                next(pc.stroboscopic_run(net, ref=ref, frames=frames))
        assert net.now == 0.0


class TestAuditRun:
    def test_clean_headline_run_passes(self, headline_params):
        phases = pc.sample_phases(21, 100)
        net = pc.NetworkState(headline_params, phases)
        reports = list(net.run(30.0))
        audit = pc.audit_run(reports, headline_params)
        assert audit.ok
        assert audit.gap_bound_ok
        assert audit.pending_ok
        assert audit.min_interfire_gap > 2 * headline_params.coupling.tau
        assert audit.min_interfire_gap == net.min_interfire_gap
        assert audit.max_pending_per_source == 1
        assert audit.violations == ()
        assert audit.events == len(reports)

    def test_iterator_and_list_give_the_same_report(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(21, 100))
        reports = list(net.run(30.0))
        audit = pc.audit_run(reports, headline_params)
        assert pc.audit_run(iter(reports), headline_params) == audit
        # A failing stream too: drop every other report.
        broken = reports[::2]
        audit = pc.audit_run(broken, headline_params)
        assert not audit.ok
        assert pc.audit_run(iter(broken), headline_params) == audit

    @pytest.mark.parametrize("config", ["saturated", "headline"])
    def test_kernel_reports_and_tuple_reports_give_the_same_audit(
        self, config, headline_params
    ):
        if config == "saturated":
            params, start = make_params(30, 0.02, 0.3), pc.sample_phases(303, 30)
        else:
            params, start = headline_params, pc.sample_phases(7, 100)
        reports = list(pc.NetworkState(params, start).run(30.0))
        # Built from int32 arrays: the constructor stores tuples of ints, as
        # the kernel does.
        built = [
            StepReport(r.event_time, np.array(r.arrival_sources, dtype=np.int32),
                       np.array(r.fired, dtype=np.int32))
            for r in reports
        ]
        audit = pc.audit_run(reports, params)
        assert all(type(r._fired) is tuple for r in reports)
        assert pc.audit_run(built, params) == audit
        assert audit.ok == (config == "headline")
        assert bool(audit.violations) == (config == "saturated")

    def test_detects_refire_while_own_pulse_pending(self, headline_params):
        tau = headline_params.coupling.tau
        reports = (
            StepReport(
                event_time=1.0,
                arrival_sources=(),
                fired=(7,),
            ),
            StepReport(
                event_time=1.0 + tau / 2,
                arrival_sources=(),
                fired=(7,),
            ),
        )
        audit = pc.audit_run(reports, headline_params)
        assert not audit.pending_ok
        assert not audit.gap_bound_ok
        assert audit.min_interfire_gap == (1.0 + tau / 2) - 1.0
        assert audit.max_pending_per_source == 2
        assert not audit.ok
        assert audit.violations

    def test_detects_fire_in_same_event_as_own_arrival(self, headline_params):
        tau = headline_params.coupling.tau
        reports = (
            StepReport(
                event_time=1.0,
                arrival_sources=(),
                fired=(3,),
            ),
            StepReport(
                event_time=1.0 + tau,
                arrival_sources=(3,),
                fired=(3,),
            ),
        )
        audit = pc.audit_run(reports, headline_params)
        assert not audit.pending_ok
        assert not audit.ok

    def test_violations_listed_in_event_and_firer_order(self, headline_params):
        tau = headline_params.coupling.tau
        t1, t2 = 1.0 + tau, 1.0 + 1.5 * tau
        reports = (
            StepReport(event_time=1.0, arrival_sources=(), fired=(3, 5)),
            StepReport(event_time=t1, arrival_sources=(3, 5, 4), fired=(3, 5)),
            StepReport(event_time=t2, arrival_sources=(), fired=(3, 4)),
        )
        audit = pc.audit_run(reports, headline_params)
        assert audit.violations == (
            f"pulse from 4 consumed at t={t1} was never scheduled",
            f"oscillator 3 fired at t={t1} in the same event its own pulse arrived",
            f"oscillator 5 fired at t={t1} in the same event its own pulse arrived",
            f"oscillator 3 fired at t={t2} with its own pulse pending",
        )

    def test_keeps_the_first_violations_in_bounded_memory(self):
        # Past the saturation check, n = 1000 breaks the one-pulse rule
        # hundreds of times per event: 65,545 messages by t = 5.
        params = make_params(1000, 0.001, 0.1)
        start = pc.sample_phases(7, 1000)
        first = list(itertools.islice(
            every_violation(pc.NetworkState(params, start).run(5.0)), 21
        ))
        tracemalloc.start()
        try:
            audit = pc.audit_run(pc.NetworkState(params, start).run(5.0), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == 21
        assert audit.violations == tuple(first[:20])
        assert not audit.pending_ok and audit.events == 928
        # Keeping every message peaked at 10.2 MB.
        assert peak < 4_000_000

    def test_detects_arrival_never_scheduled(self, headline_params):
        reports = (
            StepReport(
                event_time=0.5,
                arrival_sources=(4,),
                fired=(),
            ),
        )
        audit = pc.audit_run(reports, headline_params)
        assert not audit.pending_ok
        assert any("never scheduled" in v for v in audit.violations)

    def test_initial_pipeline_accounts_for_preexisting_spikes(self, headline_params):
        reports = (
            StepReport(
                event_time=0.05,
                arrival_sources=(4,),
                fired=(),
            ),
        )
        audit = pc.audit_run(
            reports,
            headline_params,
            initial_pipeline=(PendingSpike(0.05, 4),),
        )
        assert audit.pending_ok

    @pytest.mark.parametrize(
        "source, message",
        [(-1, "source -1 out of range"), (5, "source 5 out of range"),
         (1.7, "source 1.7 is not an integer")],
    )
    def test_initial_pipeline_rejects_bad_sources(self, source, message):
        params = make_params(3, 0.001, 0.1)
        with pytest.raises(ValueError, match=message):
            pc.audit_run((), params, initial_pipeline=[(0.05, source)])
        audit = pc.audit_run((), params, initial_pipeline=[(0.05, np.int64(2))])
        assert audit.max_pending_per_source == 1


def every_violation(reports):
    """Every violation message of a run, in event and then firer order: the
    audit's checks with nothing capped."""
    pend = Counter()
    for rep in reports:
        t, arrived = rep.event_time, set(rep.arrival_sources)
        for s in rep.arrival_sources:
            pend[s] -= 1
            if pend[s] < 0:
                yield f"pulse from {s} consumed at t={t} was never scheduled"
                pend[s] = 0
        for i in rep.fired:
            if pend[i] > 0:
                yield f"oscillator {i} fired at t={t} with its own pulse pending"
            if i in arrived:
                yield (f"oscillator {i} fired at t={t} in the same event "
                       "its own pulse arrived")
            pend[i] += 1


class TestDesyncTrial:
    def test_identical_initial_phases_detected_immediately(self, std_curve):
        params = make_params(10, 0.001, 0.1)

        def sampler(trial):
            return np.full(10, 0.5)

        summary = pc.desync_trial(params, sampler, horizon=5.0, trials=3)
        assert summary.trials == 3
        assert summary.sync_detected_count == 3

    def test_random_initial_phases_never_synchronize(self, std_curve):
        params = make_params(10, 0.001, 0.1)

        def sampler(trial):
            return pc.sample_phases(300 + trial, 10)

        summary = pc.desync_trial(params, sampler, horizon=20.0, trials=5)
        assert summary.sync_detected_count == 0
        assert summary.min_final_spread > params.tol_phase
        assert summary.median_final_spread >= summary.min_final_spread
        assert sum(summary.cluster_count_histogram.values()) == 5
        assert all(k >= 2 for k in summary.cluster_count_histogram)


class TestGuaranteesPastSaturation:
    """The guarantees fail in order past a2 = 1: the gap bound still holds
    on every seed at a2 = 1.08, and at a2 = 2.48 every trial synchronizes.
    n = 100, tau = 0.1, I = 1.05, five seeds, horizon 200."""

    @staticmethod
    def start(k):
        return pc.sample_phases(100 + k, 100)

    def test_audits_pass_just_past_saturation(self):
        params = make_params(100, 0.006, 0.1)
        a2 = pc.validate_assumptions(params.curve, params.coupling).a2_value
        assert 1.07 < a2 < 1.09
        for k in range(5):
            net = pc.NetworkState(params, self.start(k))
            audit = pc.audit_run(net.run(200.0), params)
            assert audit.ok, audit.violations[:3]
            assert audit.events > 1000
            assert audit.min_interfire_gap > 0.25

    def test_every_trial_synchronizes_far_past_saturation(self):
        params = make_params(100, 0.02, 0.1)
        summary = pc.desync_trial(params, self.start, horizon=200.0, trials=5)
        assert summary.sync_detected_count == 5


def _sync_loop(net, horizon):
    """The per-event loop _run_to_sync replaced: the verdict at the start and
    after every event, stopping at the first synchronized instant."""
    if _synchronized(net):
        return True
    for _ in net.run(horizon):
        if _synchronized(net):
            return True
    return False


def _sync_cases():
    # (start, horizon, verdict, refusals): refusals is the least number of
    # instants where the spread gate passes and the full check refuses.
    # 20/20 sampled starts synchronize at n = 100, epsilon = 0.02.
    synchronizing = make_params(100, 0.02, 0.1)
    for k in range(5):
        yield pytest.param(
            lambda k=k: pc.NetworkState(synchronizing, pc.sample_phases(100 + k, 100)),
            5.0, True, 0, id=f"synchronizing-{k}",
        )
    headline = make_params(100, 0.001, 0.1)
    yield pytest.param(
        lambda: pc.NetworkState(headline, pc.sample_phases(7, 100)), 100.0, False, 0,
        id="headline",
    )
    # Equal phases at t = tau with a pulse still in flight.
    pair = make_params(2, 0.001, 0.1)
    yield pytest.param(
        lambda: pc.matched_phase_pair(pair)[0], 5.0, False, 1, id="matched-pair",
    )


class TestRunToSync:
    @pytest.mark.parametrize("start, horizon, verdict, refusals", _sync_cases())
    def test_matches_the_per_event_loop(self, start, horizon, verdict, refusals, monkeypatch):
        checks = []
        full = pc.analysis.is_completely_synchronized

        def counted(state):
            result = full(state)
            checks.append(result.synchronized)
            return result

        monkeypatch.setattr(pc.analysis, "is_completely_synchronized", counted)
        want = start()
        assert _sync_loop(want, horizon) is verdict
        want_checks = checks[:]
        checks.clear()
        got = start()
        assert _run_to_sync(got, horizon) is verdict
        assert got.now.hex() == want.now.hex()
        assert np.array_equal(got.phases, want.phases)
        assert got.pipeline == want.pipeline
        # The spread gate passes at the same instants, and the full check
        # gives the same verdicts there.
        assert checks == want_checks
        assert checks.count(True) == verdict and checks.count(False) >= refusals

    def test_spread_is_phase_spread_bit_for_bit(self, headline_params):
        net = pc.NetworkState(headline_params, pc.sample_phases(7, 100))
        for _ in net.run(20.0):
            assert net._groups.spread().hex() == pc.phase_spread(net).hex()


# _run_to_sync's gate before Groups.spread(): w[-1] - w[0] <= tol_phase + this.
_W_MARGIN = 1e-9


def _w_gap(net):
    w = net._groups.w
    return w[-1] - w[0]


def _exact_phase(g, w):
    """_phase's formula for a group with this w, without its clamp, in
    60-digit decimal arithmetic from the same float state."""
    d = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s = d(g.now) - d(g.epoch)
        if g.gamma == 0.0:
            return s + d(w)
        return s + ((d(g.a) * d(w)).exp() + d(g.gamma)).ln() / d(g.a)


def _ungated(net, horizon):
    """_run_to_sync without the w-gap gate: the spread-gated verdict now and
    after every event.  Returns the verdict and the set of times at which
    the w-gap gate passes."""
    gate = net.params.tol_phase + _W_MARGIN
    passes = set()
    for _ in itertools.chain((None,), net.run(horizon)):
        if _w_gap(net) <= gate:
            passes.add(net.now)
        if _synchronized(net):
            return True, passes
    return False, passes


def _gate_starts():
    """The runs of acceptance tests C2 (random starts), C4 (cluster
    starts) and C8 (two-clique oracle starts) on the headline config, and
    five starts that synchronize."""
    synchronizing = make_params(100, 0.02, 0.1)
    for k in range(5):
        yield synchronizing, pc.sample_phases(100 + k, 100), 5.0
    params = make_params(100, 0.001, 0.1)
    for k in range(50):
        yield params, pc.sample_phases(5000 + k, 100), 100.0
    for k in range(10):
        yield params, pc.sample_phases(1000 + k, 100), 500.0
    rng = SplitMix64(4242)
    for _ in range(100):
        p = int(1 + rng.next_uint64() % 99)
        theta = rng.uniform_open_closed(0.0, 0.95)
        yield params, [1.0 - theta] * p + [1.0] * (100 - p), 20.0


class TestWGapGate:
    """_run_to_sync reads Groups.spread() only where the w-gap is within
    tol_phase + 1e-9.  With gamma <= 0 a phase rises at least as fast as
    its w, so a spread within tol_phase always passes that gate."""

    @pytest.mark.parametrize(
        "start, horizon, equal",
        [
            pytest.param(
                lambda: pc.NetworkState(make_params(100, 0.001, 0.1), pc.sample_phases(7, 100)),
                200.0, False, id="headline",
            ),
            pytest.param(
                lambda: pc.NetworkState(make_params(100, 0.02, 0.1), pc.sample_phases(100, 100)),
                5.0, True, id="saturated",
            ),
            pytest.param(lambda: pc.matched_phase_pair(_PAIR)[0], 5.0, True, id="matched-pair"),
        ],
    )
    def test_gate_passes_wherever_the_spread_does(self, start, horizon, equal):
        net = start()
        g, tol = net._groups, net.params.tol_phase
        within = 0
        for _ in itertools.chain((None,), net.run(horizon)):
            spread = g.spread()
            assert _w_gap(net) <= spread + 1e-12  # up to _phase's rounding
            if spread <= tol:
                within += 1
                assert _w_gap(net) <= tol + _W_MARGIN
        assert (within > 0) is equal

    def test_matched_pair_agrees_in_phase_across_two_groups(self):
        net = pc.matched_phase_pair(_PAIR)[0]
        list(net.run(_PAIR.coupling.tau))
        assert len(net._groups.w) == 2
        assert net._groups.spread() == 0.0
        assert _w_gap(net) <= _PAIR.tol_phase + _W_MARGIN

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(make_params(100, 0.001, 0.1), id="headline"),
            pytest.param(make_params(100, 0.02, 0.1), id="saturated"),
        ],
    )
    @pytest.mark.parametrize("frames", [1, 3])
    def test_phase_rounding_just_before_renormalization(self, params, frames):
        # alpha near 1e-3, where gamma is largest and _phase rounds most.
        net = pc.NetworkState(params, pc.sample_phases(7, 100))
        g = net._groups
        for frame in range(frames):
            if frame:
                net.step()  # renormalizes
            while g.t_next - g.epoch <= g.s_max:
                net.step()
        net.drift_to(min(g.t_next, g.epoch + g.s_max))
        assert math.exp(g.a * (g.now - g.epoch)) == pytest.approx(1e-3)
        assert g.gamma < 0.0
        phases = [g.phase(i) for i in range(len(g.w))]
        errors = [
            abs(decimal.Decimal(p) - _exact_phase(g, w))
            for p, w in zip(phases, g.w)
            if 0.0 < p < 1.0
        ]
        assert errors and float(max(errors)) < _W_MARGIN / 1000
        for i in range(len(phases) - 1):
            assert g.w[i + 1] - g.w[i] <= phases[i + 1] - phases[i] + 1e-12

    def test_same_verdict_at_the_same_event_as_ungated(self, monkeypatch):
        calls = []
        spread = _kernel.Groups.spread

        def counted(groups):
            calls.append(groups.now)
            return spread(groups)

        verdicts = Counter()
        for params, phases, horizon in _gate_starts():
            want = pc.NetworkState(params, phases)
            verdict, passes = _ungated(want, horizon)
            verdicts[verdict] += 1
            got = pc.NetworkState(params, phases)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(_kernel.Groups, "spread", counted)
                assert _run_to_sync(got, horizon) is verdict
            assert got.now.hex() == want.now.hex()
            # spread() runs at exactly the times the w-gap gate passes;
            # is_completely_synchronized may read it again there.
            assert set(calls) == passes
        assert verdicts == {True: 5, False: 160}


class TestMatchedPhasePair:
    def test_construction_window_and_divergence(self, pair_params):
        tau = pair_params.coupling.tau
        eps = pair_params.coupling.epsilon
        net, phi = pc.matched_phase_pair(pair_params)
        assert 0 < phi < tau
        # phi solves f(tau - phi) + eps == f(tau)
        lhs = pc.f_eval(pair_params.curve, tau - phi) + eps
        assert lhs == pytest.approx(pc.f_eval(pair_params.curve, tau), rel=1e-12)
        assert net.phases[1] == 1.0
        assert net.phases[0] == pytest.approx(1.0 - phi)

    def test_epsilon_too_large_rejected(self, std_curve):
        big = pc.f_eval(std_curve, 0.1) + 0.01
        params = make_params(2, big, 0.1)
        with pytest.raises(InfeasibleScenarioError):
            pc.matched_phase_pair(params)

    def test_requires_two_oscillators(self, std_curve):
        params = make_params(3, 0.001, 0.1)
        with pytest.raises(InfeasibleScenarioError):
            pc.matched_phase_pair(params)


class TestTwoCliqueMap:
    def test_size_mismatch_rejected(self, std_curve):
        coupling = pc.CouplingParams(n=10, epsilon=0.001, tau=0.1)
        state = pc.TwoCliqueState(theta=0.05, p=4, q=5)
        with pytest.raises(ValueError):
            pc.two_clique_map(state, std_curve, coupling)

    def test_saturation_violation_rejected(self, std_curve):
        coupling = pc.CouplingParams(n=100, epsilon=0.02, tau=0.3)
        state = pc.TwoCliqueState(theta=0.05, p=50, q=50)
        with pytest.raises(InfeasibleScenarioError):
            pc.two_clique_map(state, std_curve, coupling)

    def test_zero_gap_is_fixed_point(self, std_curve):
        coupling = pc.CouplingParams(n=10, epsilon=0.001, tau=0.1)
        state = pc.TwoCliqueState(theta=0.0, p=4, q=6)
        nxt = pc.two_clique_map(state, std_curve, coupling)
        assert nxt.theta == 0.0
        assert (nxt.p, nxt.q) == (4, 6)

    def test_small_gap_keeps_sizes_large_gap_swaps(self, std_curve):
        coupling = pc.CouplingParams(n=10, epsilon=0.001, tau=0.1)
        small = pc.two_clique_map(
            pc.TwoCliqueState(theta=0.05, p=4, q=6), std_curve, coupling
        )
        assert (small.p, small.q) == (4, 6)
        large = pc.two_clique_map(
            pc.TwoCliqueState(theta=0.5, p=4, q=6), std_curve, coupling
        )
        assert (large.p, large.q) == (6, 4)

    def test_iterate_length_and_types(self, std_curve):
        coupling = pc.CouplingParams(n=10, epsilon=0.001, tau=0.1)
        orbit = pc.iterate_return_map(
            pc.TwoCliqueState(theta=0.3, p=5, q=5), 25, std_curve, coupling
        )
        assert len(orbit) == 26
        assert all(isinstance(s, pc.TwoCliqueState) for s in orbit)
        assert all(0.0 <= s.theta < 1.0 for s in orbit)

    def test_iterate_equals_repeated_map(self, std_curve):
        coupling = pc.CouplingParams(n=10, epsilon=0.001, tau=0.1)
        orbit = pc.iterate_return_map(
            pc.TwoCliqueState(theta=0.05, p=4, q=6), 200, std_curve, coupling
        )
        state = orbit[0]
        for expected in orbit[1:]:
            state = pc.two_clique_map(state, std_curve, coupling)
            assert state == expected

    def test_iterate_rejects_saturation_violation(self, std_curve):
        coupling = pc.CouplingParams(n=100, epsilon=0.02, tau=0.3)
        with pytest.raises(InfeasibleScenarioError):
            pc.iterate_return_map(
                pc.TwoCliqueState(theta=0.05, p=50, q=50), 3, std_curve, coupling
            )

    def test_iterate_zero_orbit_constant(self, std_curve):
        coupling = pc.CouplingParams(n=6, epsilon=0.001, tau=0.1)
        orbit = pc.iterate_return_map(
            pc.TwoCliqueState(theta=0.0, p=3, q=3), 5, std_curve, coupling
        )
        assert all(s.theta == 0.0 for s in orbit)

    def test_iterate_zero_steps_is_the_initial_state(self, std_curve):
        coupling = pc.CouplingParams(n=6, epsilon=0.001, tau=0.1)
        state = pc.TwoCliqueState(theta=0.1, p=3, q=3)
        assert pc.iterate_return_map(state, 0, std_curve, coupling) == [state]

    def test_iterate_rejects_negative_steps(self, std_curve):
        coupling = pc.CouplingParams(n=6, epsilon=0.001, tau=0.1)
        with pytest.raises(ValueError):
            pc.iterate_return_map(
                pc.TwoCliqueState(theta=0.1, p=3, q=3), -1, std_curve, coupling
            )


class TestTwoCliqueOracle:
    def test_oracle_matches_map_small_gap(self, std_curve):
        coupling = pc.CouplingParams(n=10, epsilon=0.001, tau=0.1)
        params = pc.ModelParams(curve=std_curve, coupling=coupling)
        state = pc.TwoCliqueState(theta=0.04, p=4, q=6)
        by_map = pc.two_clique_map(state, std_curve, coupling)
        by_engine = pc.two_clique_oracle_step(state, params)
        assert by_engine.theta == pytest.approx(by_map.theta, abs=1e-12)
        assert (by_engine.p, by_engine.q) == (by_map.p, by_map.q)

    def test_oracle_matches_map_large_gap_with_swap(self, std_curve):
        coupling = pc.CouplingParams(n=10, epsilon=0.001, tau=0.1)
        params = pc.ModelParams(curve=std_curve, coupling=coupling)
        state = pc.TwoCliqueState(theta=0.6, p=3, q=7)
        by_map = pc.two_clique_map(state, std_curve, coupling)
        by_engine = pc.two_clique_oracle_step(state, params)
        assert by_engine.theta == pytest.approx(by_map.theta, abs=1e-12)
        assert (by_engine.p, by_engine.q) == (by_map.p, by_map.q) == (7, 3)

    def test_oracle_matches_map_in_arrival_clamp_case(self, std_curve):
        # theta slightly above tau: the behind clique crosses threshold
        # during the ahead clique's arrival, the grouped event absorbs it
        coupling = pc.CouplingParams(n=4, epsilon=0.001, tau=0.1)
        params = pc.ModelParams(curve=std_curve, coupling=coupling)
        state = pc.TwoCliqueState(theta=0.11, p=2, q=2)
        by_map = pc.two_clique_map(state, std_curve, coupling)
        by_engine = pc.two_clique_oracle_step(state, params)
        assert by_engine.theta == pytest.approx(by_map.theta, abs=1e-12)

    def test_oracle_rejects_infeasible(self, std_curve):
        coupling = pc.CouplingParams(n=100, epsilon=0.02, tau=0.3)
        params = pc.ModelParams(curve=std_curve, coupling=coupling)
        with pytest.raises(InfeasibleScenarioError):
            pc.two_clique_oracle_step(
                pc.TwoCliqueState(theta=0.05, p=50, q=50), params
            )
