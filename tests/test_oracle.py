"""Differential test: the engine against the scalar reference simulator.

Per event the two must agree exactly on the arrival sources (in queue
order) and the fired set, and on the number of events.  Event times may
differ by rounding only: the engine and the reference evaluate the curve
with different operations.  EVENT_TIME_BOUND is fixed from measurement:
over 400 examples of this strategy (52,406 events) the largest gap was
5.1e-13 for the grouped engine and 8.3e-12 for the earlier phase-space
kernel, whose numpy expm1/log1p differ from libm's.  The bound leaves a
factor of 12 over the latter and stays ten times below tol_time (1e-9).
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcodelay as pc
from pcodelay.curves import f_eval

from contract import check_groups
from reference import reference_run

EVENT_TIME_BOUND = 1e-10

CURVE = pc.CurveSpec(i=1.05)


def critical_epsilon(n: int, tau: float) -> float:
    """The epsilon at which the saturation check f(min(1, 2 tau)) + n eps < 1 flips."""
    return (1.0 - f_eval(CURVE, min(1.0, 2.0 * tau))) / n


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 24))
    tau = draw(st.sampled_from([0.05, 0.1, 0.2]))
    # Ratios above 1 break the saturation check: groups then re-fire within
    # a delay and volleys land on parts of groups.
    ratio = draw(st.sampled_from([0.1, 0.5, 0.9, 1.1, 2.0, 4.0]))
    seed = draw(st.integers(0, 2**32))
    # Oscillators share a phase bit for bit when they share a draw, so the
    # start already holds groups.
    distinct = draw(st.integers(1, n))
    base = pc.sample_phases(seed, distinct).tolist()
    slots = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    # Pulses in flight: any sources, duplicates allowed, arrival in (0, tau].
    injected = draw(st.lists(
        st.tuples(st.integers(1, 1000), st.integers(0, n - 1)), max_size=6,
    ))
    horizon = draw(st.integers(1, 50)) - 0.5
    return (
        n, tau, ratio * critical_epsilon(n, tau), [base[j] for j in slots],
        [(tau * k / 1000, s) for k, s in injected], horizon,
    )


def engine_run(params, phases, horizon, injected):
    net = pc.NetworkState(params, phases)
    net.inject_pending(injected)
    check_groups(net._groups)
    events = []
    for r in net.run(horizon):
        check_groups(net._groups)
        events.append((r.event_time, r.arrival_sources, r.fired))
    check_groups(net._groups)  # drifted to the horizon
    return events


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(scenarios())
# A pulse from part of a group, the same pulse twice, and a source pulsing
# twice, all in a start of two groups of three.
@example((6, 0.1, 0.002, [0.3, 0.3, 0.3, 0.8, 0.8, 0.8],
          [(0.05, 0), (0.05, 0), (0.07, 4), (0.09, 0)], 20.0))
def test_engine_matches_reference(scenario):
    n, tau, epsilon, phases, injected, horizon = scenario
    params = pc.ModelParams(
        curve=CURVE, coupling=pc.CouplingParams(n=n, epsilon=epsilon, tau=tau),
    )
    got = engine_run(params, phases, horizon, injected)
    want = list(reference_run(params, phases, horizon, injected))
    assert len(got) == len(want)
    for (t, arrived, fired), (t_ref, arrived_ref, fired_ref) in zip(got, want):
        assert (arrived, fired) == (arrived_ref, fired_ref)
        assert math.fabs(t - t_ref) <= EVENT_TIME_BOUND
    # The reference stream passes the same audit as the engine's.
    reports = [pc.StepReport(*e) for e in want]
    audit_ref = pc.audit_run(reports, params, injected)
    audit = pc.audit_run([pc.StepReport(*e) for e in got], params, injected)
    assert (audit_ref.ok, audit_ref.max_pending_per_source) == (
        audit.ok, audit.max_pending_per_source
    )


@pytest.mark.parametrize(
    "n, epsilon, tau", [(10, 1e308, 0.1), (2, 1.45, 0.05), (5, 3.0, 0.1)]
)
def test_epsilon_past_threshold_matches_reference(n, epsilon, tau):
    # One pulse of epsilon >= 1 takes any receiver to threshold; a volley's
    # summed increment must not overflow on the way.
    params = pc.ModelParams(
        curve=CURVE, coupling=pc.CouplingParams(n=n, epsilon=epsilon, tau=tau),
    )
    phases = pc.sample_phases(7, n)
    net = pc.NetworkState(params, phases)
    got = [(r.event_time, r.arrival_sources, r.fired) for r in net.run(3.0)]
    want = list(reference_run(params, phases, 3.0))
    assert len(got) == len(want) > 0
    for (t, arrived, fired), (t_ref, arrived_ref, fired_ref) in zip(got, want):
        assert (arrived, fired) == (arrived_ref, fired_ref)
        assert math.fabs(t - t_ref) <= EVENT_TIME_BOUND
    assert all(math.isfinite(p) for p in net.phases)
