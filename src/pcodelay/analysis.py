"""Analysis of simulated trajectories: synchrony, clusters, audits, maps.

Complete synchronization is more than equal phases: the network state
includes the pulses in flight, so two oscillators with matching phases but
different pending pulses will be driven apart when those pulses land.  The
detector here therefore compares phases AND per-source pending-pulse
multisets; `matched_phase_pair` constructs the two-oscillator configuration
that makes the distinction visible (equal phases for a whole delay-length
window, yet never synchronized).

For a network split into two internally synchronized cliques, one full
firing cycle reduces to a one-dimensional return map on the phase gap
(`two_clique_map`), with clique sizes swapping whenever the gap reaches the
delay.  `two_clique_oracle_step` recomputes one cycle with the full event
engine and is the ground truth the closed form is tested against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .curves import (
    CouplingParams,
    CurveSpec,
    _index,
    bind_jump,
    f_eval,
    f_inv,
    jump,
    validate_assumptions,
)
from .engine import ModelParams, NetworkState, PendingSpike, StepReport

__all__ = [
    "StructuralError",
    "InfeasibleScenarioError",
    "SyncVerdict",
    "ClusterPartition",
    "StroboscopicFrame",
    "AuditReport",
    "TwoCliqueState",
    "DesyncSummary",
    "phase_spread",
    "is_completely_synchronized",
    "cluster_partition",
    "stroboscopic_run",
    "audit_run",
    "small_gap_branch",
    "large_gap_branch",
    "two_clique_map",
    "two_clique_oracle_step",
    "iterate_return_map",
    "matched_phase_pair",
    "desync_trial",
    "stable_cluster_count",
]


class StructuralError(RuntimeError):
    """A trajectory broke an assumption the caller declared structural."""


class InfeasibleScenarioError(ValueError):
    """Requested scenario cannot be built with the given parameters."""


# ----------------------------------------------------------------------
# synchrony


@dataclass(frozen=True)
class SyncVerdict:
    """Outcome of the complete-synchronization test at one instant."""

    synchronized: bool
    phase_spread: float
    pipeline_mismatch: bool


def phase_spread(state: NetworkState) -> float:
    """Largest minus smallest phase: the front group's minus the back group's.

    O(1) whatever n is, and bit-equal to phases.max() - phases.min().
    """
    return state.top - state.bottom


def is_completely_synchronized(state: NetworkState) -> SyncVerdict:
    """Test for complete synchronization at the current instant.

    Synchronized means every phase agrees within tol_phase AND every
    oscillator sources the same multiset of pending arrival times within
    tol_time: equal pulse counts, and a spread of at most tol_time in each
    column of the per-source arrival times.  The second condition is
    equivalent to every oscillator *receiving* the same pending multiset,
    since each pulse reaches everyone but its own source; it is what makes
    equal-phase states with asymmetric traffic (see matched_phase_pair)
    correctly test as unsynchronized.
    """
    spread = phase_spread(state)
    counts, due = state._pending_by_source()
    mismatch = bool(
        counts.min() != counts.max()
        or (due.max(axis=0) - due.min(axis=0) > state.params.tol_time).any()
    )
    return SyncVerdict(
        synchronized=spread <= state.params.tol_phase and not mismatch,
        phase_spread=spread,
        pipeline_mismatch=mismatch,
    )


# ----------------------------------------------------------------------
# clusters


@dataclass(frozen=True)
class ClusterPartition:
    """Finest grouping by equal phase and equal pending-pulse multiset.

    clusters are tuples of oscillator indices (ascending), ordered by each
    cluster's smallest member; representative_phases[i] is the phase of
    clusters[i]'s smallest member.  Equality within a cluster is chained:
    members are linked when adjacent (in sorted order) within tolerance.
    """

    clusters: tuple[tuple[int, ...], ...]
    representative_phases: tuple[float, ...]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)


def cluster_partition(
    state: NetworkState, tol_phase: float | None = None
) -> ClusterPartition:
    """Partition oscillators into co-moving clusters.

    Two oscillators belong together only if their phases match within
    tol_phase and the arrival times of their own pending pulses match,
    pulse for pulse, within the engine's tol_time.  The default tol_phase
    is the tight engine tolerance; pass tol_phase=1e-6 for the loose
    grouping used when eyeballing plots.

    One lexsort orders the oscillators by phase run, pulse count and
    arrival times; a cluster ends wherever the run or the count changes or
    some arrival time moves by more than tol_time.
    """
    if tol_phase is None:
        tol_phase = state.params.tol_phase
    if not tol_phase >= 0.0:
        raise ValueError(f"tol_phase must be >= 0, got {tol_phase}")
    phases = state.phases
    counts, due = state._pending_by_source()

    by_phase = np.argsort(phases, kind="stable")
    run = np.empty(state.n, dtype=np.int64)
    run[by_phase] = np.concatenate(
        ([0], np.cumsum(np.diff(phases[by_phase]) > tol_phase))
    )
    # lexsort's last key is the primary one.
    order = np.lexsort((*due.T[::-1], counts, run))
    due = due[order]
    split = (
        (np.diff(run[order]) != 0)
        | (np.diff(counts[order]) != 0)
        | (np.abs(np.diff(due, axis=0)) > state.params.tol_time).any(axis=1)
    )
    label = np.empty(state.n, dtype=np.int64)
    label[order] = np.concatenate(([0], np.cumsum(split)))

    # Order the clusters by their smallest member, members ascending.
    _, first = np.unique(label, return_index=True)
    lead = first[label]
    members = np.argsort(lead, kind="stable")
    cuts = (np.flatnonzero(np.diff(lead[members])) + 1).tolist()
    members = members.tolist()
    clusters = tuple(
        tuple(members[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, state.n])
    )
    reps = tuple(phases[np.sort(first)].tolist())
    return ClusterPartition(clusters=clusters, representative_phases=reps)


def stable_cluster_count(counts: Sequence[int], window: int = 50) -> int | None:
    """Cluster count if constant over the trailing window, else None."""
    window = _index(window, "window", 1)
    if len(counts) < window:
        return None
    tail = counts[-window:]
    return tail[0] if all(c == tail[0] for c in tail) else None


# ----------------------------------------------------------------------
# stroboscopic sampling


@dataclass(frozen=True, eq=False)
class StroboscopicFrame:
    """Phases sampled at the k-th firing of the reference oscillator.

    phases holds the post-event values with every oscillator that fired in
    that event pinned at exactly 1.0 (its pre-reset value up to tol_phase),
    so phases[ref] == 1.0 in every frame and co-firing clusters appear as
    exactly equal entries.
    """

    k: int
    t: float
    phases: np.ndarray


def stroboscopic_run(
    state: NetworkState, ref: int = 0, frames: int = 1
) -> Iterator[StroboscopicFrame]:
    """Yield one frame per firing of oscillator ref, advancing the state.

    Lazy: the state moves as frames are consumed, so a caller can inspect
    the live state (clusters, synchrony) between frames.
    """
    ref = _index(ref, "ref", 0, state.n)
    frames = _index(frames, "frames")
    # ref fires within one unit of time: coupling only shortens the wait.
    reports = state.run()
    for k in range(1, frames + 1):
        for rep in reports:
            fired = rep.fired
            if ref in fired:
                break
        snapshot = state.phases.copy()
        snapshot[list(fired)] = 1.0
        yield StroboscopicFrame(k=k, t=rep.event_time, phases=snapshot)


# ----------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class AuditReport:
    """Structural guarantees checked over a run's reports.

    gap_bound_ok: every oscillator's consecutive firings are separated by
        strictly more than twice the delay (min_interfire_gap is +inf when
        nothing fired twice).
    pending_ok: no oscillator ever had more than one pulse in flight, and
        none fired while its own pulse was still pending (including the
        boundary case of firing in the very event its pulse arrived).
    events: the number of reports checked.
    """

    min_interfire_gap: float
    gap_bound_ok: bool
    max_pending_per_source: int
    pending_ok: bool
    violations: tuple[str, ...] = ()
    events: int = 0

    @property
    def ok(self) -> bool:
        return self.gap_bound_ok and self.pending_ok


def audit_run(
    reports: Iterable[StepReport],
    params: ModelParams,
    initial_pipeline: Iterable[PendingSpike | tuple[float, int]] = (),
) -> AuditReport:
    """Replay a run's reports and check the delay-coupling guarantees.

    reports must be the complete event sequence from the state the audit
    describes; pass initial_pipeline when the run started with injected
    pulses; its sources are checked as inject_pending checks them
    (ValueError unless an integer in [0, n)).  reports is consumed once, in
    order, so a generator that steps the network streams the audit in O(n)
    memory.  Interfiring gaps are taken from each firer's previous firing
    time in the reports.
    """
    tau = params.coupling.tau
    n = params.coupling.n
    pend = [0] * n
    last = [-math.inf] * n
    min_gap = math.inf
    events = 0
    for item in initial_pipeline:
        pend[_index(PendingSpike(*item).source, "source", 0, n)] += 1
    max_pend = max(pend) if pend else 0
    violations: list[str] = []

    for rep in reports:
        events += 1
        t = rep.event_time
        sources = rep.arrival_sources
        for s in sources:
            pend[s] -= 1
            if pend[s] < 0:
                violations.append(
                    f"pulse from {s} consumed at t={t} was never scheduled"
                )
                pend[s] = 0
        arrived = set(sources)
        for i in rep.fired:
            if pend[i] > 0:
                violations.append(
                    f"oscillator {i} fired at t={t} with its own pulse pending"
                )
            if i in arrived:
                violations.append(
                    f"oscillator {i} fired at t={t} in the same event "
                    "its own pulse arrived"
                )
            # the firer's own pulse, due at event_time + tau
            pend[i] += 1
            if pend[i] > max_pend:
                max_pend = pend[i]
            gap = t - last[i]
            if gap < min_gap:
                min_gap = gap
            last[i] = t

    gap_ok = min_gap > 2.0 * tau
    pending_ok = max_pend <= 1 and not violations
    return AuditReport(
        min_interfire_gap=min_gap,
        gap_bound_ok=gap_ok,
        max_pending_per_source=max_pend,
        pending_ok=pending_ok,
        violations=tuple(violations),
        events=events,
    )


# ----------------------------------------------------------------------
# two-clique return map


@dataclass(frozen=True)
class TwoCliqueState:
    """Gap coordinates for a network of two internally synchronized cliques.

    q oscillators sit at phase 1 (about to fire), p at phase 1 - theta
    (firing second).  theta lives in [0, 1); theta == 0 is the fully merged
    network.
    """

    theta: float
    p: int
    q: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"clique sizes must be >= 1, got ({self.p}, {self.q})")


def _clique_sizes(p, q, curve: CurveSpec, coupling: CouplingParams) -> tuple[int, int]:
    """p and q as clique sizes >= 1 that sum to n, below saturation."""
    p, q = _index(p, "p", 1), _index(q, "q", 1)
    if p + q != coupling.n:
        raise ValueError(f"clique sizes {p}+{q} != network size {coupling.n}")
    if not validate_assumptions(curve, coupling).a2_holds:
        raise InfeasibleScenarioError("saturation check fails for the two-clique cycle")
    return p, q


def _branches(curve: CurveSpec, coupling: CouplingParams) -> tuple[
    Callable[[float, int, int, float], float],
    Callable[[float, int, float], float],
    Callable[[int], float],
]:
    """The two branch formulas and their lead, with curve, epsilon and tau bound.

    Both branches take lead(q) = jump(tau, q - 1), the leading clique's
    phase after its own volley lands.  It depends only on q, so an orbit
    computes it once per clique size.
    """
    j = bind_jump(curve, coupling.epsilon)
    tau = coupling.tau

    def small(theta: float, p: int, q: int, lead: float) -> float:
        return j(lead + theta, p) - j(j(tau - theta, q) + theta, p - 1)

    def large(theta: float, q: int, lead: float) -> float:
        return j(1.0 - theta + tau, q) - lead

    def lead(q: int) -> float:
        return jump(curve, coupling.epsilon, tau, q - 1)

    return small, large, lead


def small_gap_branch(
    curve: CurveSpec, coupling: CouplingParams, theta: float, p: int, q: int
) -> float:
    """New gap after one cycle when the gap is below the delay.

    Defined for 0 <= theta < tau (ValueError otherwise): both cliques fire
    before either volley lands, the volleys land in firing order, and the
    clique sizes keep their roles.  The gap is
    jump(jump(tau, q-1) + theta, p) - jump(jump(tau - theta, q) + theta, p-1).
    """
    p, q = _clique_sizes(p, q, curve, coupling)
    if not 0.0 <= theta < coupling.tau:
        raise ValueError(f"theta {theta} outside [0, tau) = [0, {coupling.tau})")
    small, _, lead = _branches(curve, coupling)
    return small(theta, p, q, lead(q))


def large_gap_branch(
    curve: CurveSpec, coupling: CouplingParams, theta: float, q: int
) -> float:
    """New gap after one cycle when the gap is at least the delay.

    Defined for tau <= theta < 1 (ValueError otherwise): the leading
    clique's volley lands before the trailing clique fires, so the volley
    (size q) sets the new gap, which is jump(1 - theta + tau, q) -
    jump(tau, q - 1), and the cliques swap roles.
    The outer jump may cap at threshold; the trailing clique then fires the
    instant the volley arrives, which is exactly what the event engine
    produces.
    """
    q = _index(q, "q", 1, coupling.n)
    _clique_sizes(coupling.n - q, q, curve, coupling)
    if not coupling.tau <= theta < 1.0:
        raise ValueError(f"theta {theta} outside [tau, 1) = [{coupling.tau}, 1)")
    _, large, lead = _branches(curve, coupling)
    return large(theta, q, lead(q))


def _orbit_columns(
    initial: TwoCliqueState, steps: int, curve: CurveSpec, coupling: CouplingParams
) -> tuple[list[float], list[int], int, int]:
    """The distinct states of the return map's orbit as columns: thetas, ps.

    State k is TwoCliqueState(thetas[k], ps[k], n - ps[k]) for k below
    start + period, the columns' length; the orbit has steps + 1 states.
    _clique_sizes checks the start once, whatever the step count; each step
    then runs on plain floats and ints, checking every jump's phase and
    every new theta as TwoCliqueState would.

    Also returns (start, period): from start + period on, state k is state
    start + (k - start) % period, and _steps lists all steps + 1 of them;
    period is 0, and start is steps + 1, when no state repeats.  The cycle
    is exact: the next state is a pure function of (theta, p), since
    q = n - p and the leads depend only on the sizes, so once a (theta, p)
    recurs bit for bit the orbit repeats.  Brent's algorithm finds the
    repeat by comparing each state with one saved state (index 1, 2, 4,
    ...).  Index 0 is never compared: it may hold -0.0, which equals a
    later 0.0 but prints differently.
    """
    steps = _index(steps, "steps")
    p, q = _clique_sizes(initial.p, initial.q, curve, coupling)
    theta, thetas, ps = initial.theta, [initial.theta], [p]
    if steps == 0:
        return thetas, ps, 1, 0
    small, large, lead = _branches(curve, coupling)
    tau = coupling.tau
    lead_p, lead_q = lead(p), lead(q)
    saved_theta, saved_p, save_at = -1.0, 0, 1
    for k in range(1, steps + 1):
        if theta == 0.0:
            theta = 0.0  # the merged network stays merged
        elif theta < tau:
            theta = max(0.0, small(theta, p, q, lead_q))
        else:
            theta = large(theta, q, lead_q)
            p, q, lead_p, lead_q = q, p, lead_q, lead_p
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {theta}")
        thetas.append(theta)
        ps.append(p)
        if theta == saved_theta and p == saved_p:
            break
        if k == save_at:
            saved_theta, saved_p, save_at = theta, p, 2 * k
    else:
        return thetas, ps, steps + 1, 0
    period = k - save_at // 2
    start = 1
    while thetas[start] != thetas[start + period] or ps[start] != ps[start + period]:
        start += 1
    return thetas[:start + period], ps[:start + period], start, period


def _steps(column: Sequence, start: int, steps: int) -> Iterator:
    """Entries 0..steps of an _orbit_columns column, its cycle from start
    on repeated as needed."""
    return itertools.islice(
        itertools.chain(column, itertools.cycle(column[start:])), steps + 1
    )


def two_clique_map(
    state: TwoCliqueState, curve: CurveSpec, coupling: CouplingParams
) -> TwoCliqueState:
    """One cycle of the two-clique gap dynamics in closed form.

    Requires the saturation check (validate_assumptions) to hold; the branch
    compositions are only meaningful below saturation.  theta == 0 is a
    fixed point (a merged network stays merged).  Gaps below the delay keep
    the clique sizes (the new gap is clamped at 0); gaps at or above it swap
    them.
    """
    return iterate_return_map(state, 1, curve, coupling)[1]


def iterate_return_map(
    initial: TwoCliqueState, steps: int, curve: CurveSpec, coupling: CouplingParams
) -> list[TwoCliqueState]:
    """Orbit [initial, map(initial), ...] with steps applications.

    initial.theta == 0 is allowed and produces the constant merged orbit.
    The checks run once per orbit, not once per step.  Once the orbit
    repeats, the list repeats the cycle's (frozen) state objects.
    """
    thetas, ps, start, _ = _orbit_columns(initial, steps, curve, coupling)
    n = coupling.n
    states = [TwoCliqueState(theta, p, n - p) for theta, p in zip(thetas, ps)]
    return list(_steps(states, start, steps))


def two_clique_oracle_step(state: TwoCliqueState, params: ModelParams) -> TwoCliqueState:
    """One two-clique cycle computed by the full event engine.

    Builds the network (oscillators [0, p) trailing, [p, n) at threshold),
    steps until exactly one complete clique fires with nothing in flight but
    that event's own pulses, and reads the new gap off the other clique's
    phases.  Raises StructuralError if a firing ever splits a clique or no
    such return happens within the event budget.
    """
    coupling = params.coupling
    n = coupling.n
    p, q = _clique_sizes(state.p, state.q, params.curve, coupling)
    if not 0.0 < state.theta < 1.0:
        raise ValueError(
            "oracle needs 0 < theta < 1; theta == 0 is the merged fixed point"
        )
    behind = frozenset(range(p))
    ahead = frozenset(range(p, n))
    phases = [1.0 - state.theta] * p + [1.0] * q
    net = NetworkState(params, phases)

    for rep in itertools.islice(net.run(), 4 * n + 64):
        if not rep.fired:
            continue
        fired = frozenset(rep.fired)
        if fired != ahead and fired != behind:
            raise StructuralError(
                f"firing at t={rep.event_time} split the cliques: {sorted(fired)}"
            )
        if net.now <= 0.0:
            continue  # the opening volley, not a return
        if sorted(s for _, s in net.pipeline) != list(rep.fired):
            continue  # older pulses still in flight
        others = sorted(behind if fired == ahead else ahead)
        other_phases = net.phases[others]
        if float(other_phases.max() - other_phases.min()) > 1e-9:
            raise StructuralError("waiting clique lost internal alignment")
        new_theta = 1.0 - float(other_phases.max())
        return TwoCliqueState(theta=new_theta, p=len(others), q=len(fired))
    raise StructuralError("no two-clique return within the event budget")


# ----------------------------------------------------------------------
# constructions and campaigns


def matched_phase_pair(params: ModelParams) -> tuple[NetworkState, float]:
    """Two-oscillator start with equal phases ahead but no synchronization.

    Oscillator 1 fires at t=0; oscillator 0 trails by phi chosen so that
    the arriving pulse lifts it exactly onto oscillator 1's phase at t=tau.
    The phases then agree for the whole window [tau, tau + phi) while a
    pulse is still in flight toward oscillator 1 only, so the synchrony
    verdict stays negative and the phases split again at tau + phi.

    Returns (state, phi).  Requires n == 2 and 0 < epsilon < f(tau).
    """
    coupling = params.coupling
    if coupling.n != 2:
        raise InfeasibleScenarioError(
            f"construction needs exactly 2 oscillators, got {coupling.n}"
        )
    f_tau = f_eval(params.curve, coupling.tau)
    if not 0.0 < coupling.epsilon < f_tau:
        raise InfeasibleScenarioError(
            f"pulse increment must lie in (0, f(tau)) = (0, {f_tau}) "
            f"for the matched-phase window to exist; got {coupling.epsilon}"
        )
    phi = coupling.tau - f_inv(params.curve, f_tau - coupling.epsilon)
    return NetworkState(params, [1.0 - phi, 1.0]), phi


def _synchronized(state: NetworkState) -> bool:
    # Exact: unequal phases are never synchronized, and the phase spread is
    # far cheaper than the pending-pulse comparison.
    return (
        phase_spread(state) <= state.params.tol_phase
        and is_completely_synchronized(state).synchronized
    )


def _run_to_sync(state: NetworkState, horizon: float) -> bool:
    """Run state until it is completely synchronized or the horizon passes.

    The verdict is tested now and after every event; it cannot change
    between events (phases drift rigidly and nothing lands).  Returns True
    with the state at its first synchronized instant, or False with the
    state drifted to the horizon.  The same test as _synchronized: the O(1)
    phase spread gates the full check.
    """
    groups, tol = state._groups, state.params.tol_phase
    for _ in itertools.chain((None,), state.run(horizon)):  # now, then each event
        if groups.spread() <= tol and is_completely_synchronized(state).synchronized:
            return True
    return False


@dataclass(frozen=True)
class DesyncSummary:
    """Aggregate outcome of repeated randomized runs."""

    trials: int
    sync_detected_count: int
    min_final_spread: float
    median_final_spread: float
    cluster_count_histogram: dict[int, int]


def desync_trial(
    params: ModelParams,
    init_sampler: Callable[[int], Sequence[float]],
    horizon: float,
    trials: int,
    cluster_tol: float | None = None,
) -> DesyncSummary:
    """Run `trials` independent simulations and test for synchronization.

    init_sampler(trial_index) supplies each trial's initial phases.  Each
    trial runs through _run_to_sync, the loop the simulate command shares:
    the synchrony verdict is evaluated at t=0 and after every event (it
    cannot appear between events: phases drift rigidly and nothing lands),
    with the full check only where the O(1) phase spread is within
    tol_phase.  A synchronized network stays synchronized, so a trial stops
    early once detected.  Spreads and cluster counts are taken where each
    trial stops: at its first synchronized instant, or else at the horizon.
    """
    trials = _index(trials, "trials", 1)
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    if cluster_tol is not None and not cluster_tol >= 0.0:
        raise ValueError(f"cluster_tol must be >= 0, got {cluster_tol}")
    detected = 0
    spreads: list[float] = []
    histogram: Counter[int] = Counter()
    for index in range(trials):
        net = NetworkState(params, init_sampler(index))
        if _run_to_sync(net, horizon):
            detected += 1
        spreads.append(phase_spread(net))
        histogram[cluster_partition(net, tol_phase=cluster_tol).n_clusters] += 1
    # The median: the middle spread, or the mean of the two middle ones.
    spreads.sort()
    mid = len(spreads) // 2
    return DesyncSummary(
        trials=trials,
        sync_detected_count=detected,
        min_final_spread=min(spreads),
        median_final_spread=(spreads[mid] + spreads[~mid]) / 2,
        cluster_count_histogram=dict(histogram),
    )
