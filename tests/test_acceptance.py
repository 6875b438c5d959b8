"""Acceptance gate: one test per criterion, one printed verdict line each.

Every test computes its verdict first, prints ACCEPTANCE <id>: PASS/FAIL
on the real stdout (so the line survives pytest capture), then asserts.
C2 and C4 also assert wall-clock limits (60 s and 120 s).
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import pcodelay as pc
from pcodelay.analysis import stable_cluster_count
from pcodelay.cli import main
from pcodelay.curves import f_eval
from pcodelay.rng import SplitMix64

from conftest import base_config

HEADLINE_N = 100
HEADLINE_EPS = 0.001
HEADLINE_TAU = 0.1
CURVE = pc.CurveSpec(family="ms_exponential", i=1.05)
COUPLING = pc.CouplingParams(n=HEADLINE_N, epsilon=HEADLINE_EPS, tau=HEADLINE_TAU)
PARAMS = pc.ModelParams(curve=CURVE, coupling=COUPLING)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    # report() suspends pytest's fd capture so the verdict lines reach the
    # real stdout even on passing tests
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(cid: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {cid}: {status} ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def test_c1_saturation_value_and_margin():
    rep = pc.validate_assumptions(CURVE, COUPLING)
    ok = rep.a2_holds and abs(rep.a2_value - 0.5789) <= 1e-4
    report("C1", ok, f"a2_value={rep.a2_value:.17g}, holds={rep.a2_holds}")
    assert ok


def test_c2_no_synchronization_from_random_starts():
    def sampler(trial):
        return pc.sample_phases(5000 + trial, HEADLINE_N)

    t0 = time.perf_counter()
    summary = pc.desync_trial(PARAMS, sampler, horizon=100.0, trials=50)
    elapsed = time.perf_counter() - t0
    ok = (
        summary.sync_detected_count == 0
        and summary.min_final_spread > PARAMS.tol_phase
    )
    report(
        "C2",
        ok,
        f"0 sync in {summary.trials} trials, min spread "
        f"{summary.min_final_spread:.4g}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 60.0


def test_c3_tight_bunch_never_reaches_sync():
    phases = pc.sample_phases(31, HEADLINE_N, 0.0, 0.01)
    net = pc.NetworkState(PARAMS, phases)
    bad_frames = 0
    min_spread = float("inf")
    for frame in pc.stroboscopic_run(net, ref=0, frames=500):
        spread = float(frame.phases.max() - frame.phases.min())
        min_spread = min(min_spread, spread)
        if spread <= PARAMS.tol_phase or pc.is_completely_synchronized(net).synchronized:
            bad_frames += 1
    ok = bad_frames == 0
    report("C3", ok, f"500 frames, min spread {min_spread:.4g}, sync frames {bad_frames}")
    assert ok


def test_c4_cluster_count_stabilizes_small():
    t0 = time.perf_counter()
    stable_counts = []
    for seed in range(10):
        phases = pc.sample_phases(1000 + seed, HEADLINE_N)
        net = pc.NetworkState(PARAMS, phases)
        counts = []
        for _ in pc.stroboscopic_run(net, ref=0, frames=500):
            counts.append(pc.cluster_partition(net, tol_phase=1e-6).n_clusters)
        stable_counts.append(stable_cluster_count(counts, window=50))
    elapsed = time.perf_counter() - t0
    good = sum(1 for c in stable_counts if c is not None and c >= 2)
    ok = good >= 9
    report("C4", ok, f"stable counts {stable_counts}, {good}/10 settled, {elapsed:.1f}s")
    assert ok
    assert elapsed < 120.0


def test_c5_randomized_parameters_keep_guarantees():
    rng = SplitMix64(99)
    worst_gap_margin = float("inf")
    violation_total = 0
    bad = []
    for k in range(100):
        n = int(2 + rng.next_uint64() % 29)
        tau = 0.05 + rng.uniform_open_closed(0.0, 0.4)
        i = 1.01 + rng.uniform_open_closed(0.0, 1.0)
        curve = pc.CurveSpec(family="ms_exponential", i=i)
        cap = (1.0 - f_eval(curve, min(1.0, 2.0 * tau))) / n
        eps = rng.uniform_open_closed(0.0, 0.9 * cap)
        coupling = pc.CouplingParams(n=n, epsilon=eps, tau=tau)
        assert pc.validate_assumptions(curve, coupling).a2_holds
        params = pc.ModelParams(curve=curve, coupling=coupling)
        net = pc.NetworkState(params, pc.sample_phases(7000 + k, n))
        reports = list(net.run(10.0))
        audit = pc.audit_run(reports, params)
        violation_total += len(audit.violations)
        worst_gap_margin = min(
            worst_gap_margin, audit.min_interfire_gap - 2.0 * tau
        )
        if not audit.ok:
            bad.append(k)
    ok = not bad and violation_total == 0
    report(
        "C5",
        ok,
        f"100 parameter draws, {len(bad)} failing audits, "
        f"worst gap margin {worst_gap_margin:.4g}",
    )
    assert ok


class TestC6JumpProperties:
    """Pointwise jump-function laws, sampled at >= 1000 points per law."""

    N_POINTS = 1000
    CLAMP_MARGIN = 1e-6

    def sample_no_clamp(self, rng, h=0.0):
        """(theta, m) with room h on both sides and no saturation."""
        while True:
            theta = rng.uniform_open_closed(h, 1.0 - h - 1e-9)
            m = int(1 + rng.next_uint64() % HEADLINE_N)
            if f_eval(CURVE, theta + h) + m * HEADLINE_EPS < 1.0 - self.CLAMP_MARGIN:
                return theta, m

    def test_c6_jump_function_laws(self):
        rng = SplitMix64(2024)
        failures = []

        # order and range: theta < F_m(theta) <= 1 for m >= 1
        for _ in range(self.N_POINTS):
            theta = rng.uniform_open_closed(0.0, 1.0 - 1e-12)
            m = int(1 + rng.next_uint64() % HEADLINE_N)
            y = pc.jump(CURVE, HEADLINE_EPS, theta, m)
            if not (theta < y <= 1.0):
                failures.append(("order", theta, m))

        # monotone in pulse count, strict below the clamp
        for _ in range(self.N_POINTS):
            theta, m = self.sample_no_clamp(rng)
            lo = pc.jump(CURVE, HEADLINE_EPS, theta, m - 1)
            hi = pc.jump(CURVE, HEADLINE_EPS, theta, m)
            if not lo < hi:
                failures.append(("monotone_m", theta, m))

        # expansivity: slope above 1 away from the clamp
        h = 1e-7
        for _ in range(self.N_POINTS):
            theta, m = self.sample_no_clamp(rng, h=h)
            fd = (
                pc.jump(CURVE, HEADLINE_EPS, theta + h, m)
                - pc.jump(CURVE, HEADLINE_EPS, theta - h, m)
            ) / (2.0 * h)
            if not fd > 1.0 + 1e-9:
                failures.append(("expansive", theta, m))

        # translation superadditivity: F_m(theta) + d <= F_m(theta + d),
        # strict for m, d > 0
        for _ in range(self.N_POINTS):
            theta, m = self.sample_no_clamp(rng)
            d = rng.uniform_open_closed(0.0, 1.0 - theta - 1e-12)
            if f_eval(CURVE, theta + d) + m * HEADLINE_EPS >= 1.0 - self.CLAMP_MARGIN:
                continue
            lhs = pc.jump(CURVE, HEADLINE_EPS, theta, m) + d
            rhs = pc.jump(CURVE, HEADLINE_EPS, theta + d, m)
            if not lhs < rhs:
                failures.append(("translation", theta, m, d))

        # composition: F_n(F_m(theta)) == F_{m+n}(theta), clamp included
        for _ in range(self.N_POINTS):
            theta = rng.uniform_open_closed(0.0, 1.0)
            m = int(rng.next_uint64() % HEADLINE_N)
            k = int(rng.next_uint64() % HEADLINE_N)
            once = pc.jump(CURVE, HEADLINE_EPS, theta, m + k)
            twice = pc.jump(
                CURVE, HEADLINE_EPS, pc.jump(CURVE, HEADLINE_EPS, theta, m), k
            )
            if abs(once - twice) > 1e-10:
                failures.append(("composition", theta, m, k))

        # chained bound: f(F_m(theta) + d) <= f(theta + d) + m*eps
        accepted = 0
        while accepted < self.N_POINTS:
            theta = rng.uniform_open_closed(0.0, 1.0 - 1e-12)
            m = int(1 + rng.next_uint64() % HEADLINE_N)
            d = rng.uniform_open_closed(0.0, 1.0 - theta - 1e-12)
            shifted = pc.jump(CURVE, HEADLINE_EPS, theta, m) + d
            if shifted > 1.0:
                continue
            accepted += 1
            lhs = f_eval(CURVE, shifted)
            rhs = f_eval(CURVE, theta + d) + m * HEADLINE_EPS
            if lhs > rhs + 1e-12:
                failures.append(("chained", theta, m, d))

        ok = not failures
        report(
            "C6",
            ok,
            f"6 laws x {self.N_POINTS} points, {len(failures)} failures"
            + (f", first {failures[0]}" if failures else ""),
        )
        assert ok, failures[:5]


def test_c7_equal_phases_without_synchronization():
    params = pc.ModelParams(
        curve=CURVE, coupling=pc.CouplingParams(n=2, epsilon=HEADLINE_EPS, tau=HEADLINE_TAU)
    )
    tau = params.coupling.tau
    net, phi = pc.matched_phase_pair(params)
    list(net.run(tau))

    probes_equal = []
    probes_sync = []
    for frac in (0.1, 0.5, 0.9):
        probe = net.copy()
        probe.drift_to(tau + frac * phi)
        verdict = pc.is_completely_synchronized(probe)
        probes_equal.append(pc.phase_spread(probe) <= params.tol_phase)
        probes_sync.append(verdict.synchronized)
        assert verdict.pipeline_mismatch

    after = net.copy()
    list(after.run(tau + 2.0 * phi))
    after_spread = pc.phase_spread(after)

    ok = (
        all(probes_equal)
        and not any(probes_sync)
        and after_spread > params.tol_phase
    )
    report(
        "C7",
        ok,
        f"phi={phi:.6g}, equal at 3 probes={all(probes_equal)}, "
        f"never sync={not any(probes_sync)}, spread after {after_spread:.3g}",
    )
    assert ok


class TestC8TwoCliqueMap:
    def test_c8_map_oracle_positivity_orbits(self):
        failures = []

        # closed form vs engine on random feasible states
        rng = SplitMix64(4242)
        max_delta = 0.0
        for _ in range(100):
            p = int(1 + rng.next_uint64() % (HEADLINE_N - 1))
            theta = rng.uniform_open_closed(0.0, 0.95)
            state = pc.TwoCliqueState(theta=theta, p=p, q=HEADLINE_N - p)
            by_map = pc.two_clique_map(state, CURVE, COUPLING)
            by_engine = pc.two_clique_oracle_step(state, PARAMS)
            if (by_engine.p, by_engine.q) != (by_map.p, by_map.q):
                failures.append(("sizes", theta, p))
                continue
            delta = abs(by_engine.theta - by_map.theta)
            max_delta = max(max_delta, delta)
            if delta > 1e-9:
                failures.append(("delta", theta, p, delta))

        # both branches stay positive across sizes and the whole gap range
        from pcodelay.analysis import large_gap_branch, small_gap_branch

        for p, q in ((1, 99), (50, 50), (99, 1)):
            for theta in np.linspace(0.0, HEADLINE_TAU, 1002)[1:-1]:
                if small_gap_branch(CURVE, COUPLING, float(theta), p, q) <= 0.0:
                    failures.append(("small_branch", float(theta), p, q))
                    break
            for theta in np.linspace(HEADLINE_TAU, 1.0, 1001)[:-1]:
                if large_gap_branch(CURVE, COUPLING, float(theta), q) <= 0.0:
                    failures.append(("large_branch", float(theta), p, q))
                    break

        # long orbits never collapse to the merged state
        orbit_rng = SplitMix64(4242)
        min_theta = float("inf")
        for _ in range(100):
            p = int(1 + orbit_rng.next_uint64() % (HEADLINE_N - 1))
            state = pc.TwoCliqueState(
                theta=orbit_rng.uniform_open_closed(0.0, 0.999), p=p, q=HEADLINE_N - p
            )
            orbit = pc.iterate_return_map(state, 10_000, CURVE, COUPLING)
            min_theta = min(min_theta, min(s.theta for s in orbit[1:]))
            if min_theta <= PARAMS.tol_phase:
                failures.append(("orbit_collapse", min_theta))
                break

        ok = not failures
        report(
            "C8",
            ok,
            f"oracle max delta {max_delta:.3g}, orbit min theta {min_theta:.6g}, "
            f"{len(failures)} failures",
        )
        assert ok, failures[:5]


def test_c9_byte_identical_reruns(tmp_path, capsys, src_on_pythonpath):
    cfg = base_config(
        n=10, seed=5, horizon=None, strobe={"ref": 0, "frames": 30}
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    paths = [tmp_path / f"run_{k}.csv" for k in range(3)]
    assert main(["strobe", str(cfg_path), "--output", str(paths[0])]) == 0
    assert main(["strobe", str(cfg_path), "--output", str(paths[1])]) == 0
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "pcodelay", "strobe", str(cfg_path),
         "--output", str(paths[2])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    report(
        "C9",
        ok,
        f"3 runs (2 in-process, 1 subprocess), {len(blobs[0])} bytes, "
        f"identical={ok}",
    )
    assert ok
