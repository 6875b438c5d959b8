"""State curve: frozen values, inversion, slope, jump map, parameter checks.

Expected values were frozen from a 50-digit computation of the closed forms;
float64 results must match to relative 1e-12.
"""

import math

import numpy as np
import pytest

import pcodelay as pc
from pcodelay.curves import f_eval, f_inv, curve_slope, jump, validate_assumptions


# frozen from the high-precision oracle
F_AT_02 = 0.47885623496667757
FINV_AT_05 = 0.21239034303474387
SLOPE_AT_0 = 3.1967485596095941
SLOPE_AT_1 = 0.15222612188617115
JUMP_1_AT_05 = 0.50143664877002627
JUMP_100_AT_02 = 0.26322097422027918
JUMP_5_AT_09 = 0.92516455233826105
A2_HEADLINE = 0.57885623496667757


class TestCurveValues:
    def test_endpoints(self, std_curve):
        assert f_eval(std_curve, 0.0) == 0.0
        assert f_eval(std_curve, 1.0) == pytest.approx(1.0, abs=2e-16)
        assert f_inv(std_curve, 0.0) == 0.0
        # exact by construction: log1p(-1/i) / log1p(-1/i)
        assert f_inv(std_curve, 1.0) == 1.0

    def test_frozen_values(self, std_curve):
        assert f_eval(std_curve, 0.2) == pytest.approx(F_AT_02, rel=1e-12)
        assert f_inv(std_curve, 0.5) == pytest.approx(FINV_AT_05, rel=1e-12)
        assert curve_slope(std_curve, 0.0) == pytest.approx(SLOPE_AT_0, rel=1e-12)
        assert curve_slope(std_curve, 1.0) == pytest.approx(SLOPE_AT_1, rel=1e-12)

    def test_monotone_increasing_concave(self, std_curve):
        phi = np.linspace(0.0, 1.0, 201)
        values = np.array([f_eval(std_curve, p) for p in phi])
        slopes = np.array([curve_slope(std_curve, p) for p in phi])
        assert np.all(np.diff(values) > 0)
        assert np.all(slopes > 0)
        assert np.all(np.diff(slopes) < 0)

    def test_round_trip(self, std_curve):
        rng = np.random.default_rng(101)
        for x in rng.uniform(0.0, 1.0, size=1000):
            assert abs(f_inv(std_curve, f_eval(std_curve, x)) - x) <= 1e-10
            assert abs(f_eval(std_curve, f_inv(std_curve, x)) - x) <= 1e-10

    def test_slope_matches_finite_difference(self, std_curve):
        h = 1e-6
        rng = np.random.default_rng(11)
        for phi in rng.uniform(h, 1.0 - h, size=200):
            fd = (f_eval(std_curve, phi + h) - f_eval(std_curve, phi - h)) / (2 * h)
            assert curve_slope(std_curve, phi) == pytest.approx(fd, rel=1e-6)

    def test_domain_guard(self, std_curve):
        # within the roundoff slack: clamped, no error
        assert f_eval(std_curve, -1e-13) == 0.0
        assert f_eval(std_curve, 1.0 + 1e-13) == pytest.approx(1.0, abs=1e-12)
        assert f_inv(std_curve, 1.0 + 1e-13) == 1.0
        with pytest.raises(ValueError):
            f_eval(std_curve, -1e-3)
        with pytest.raises(ValueError):
            f_eval(std_curve, 1.001)
        with pytest.raises(ValueError):
            f_inv(std_curve, -0.5)
        with pytest.raises(ValueError):
            curve_slope(std_curve, 2.0)


class TestJump:
    def test_frozen_values(self, std_curve):
        assert jump(std_curve, 0.001, 0.5, 1) == pytest.approx(JUMP_1_AT_05, rel=1e-12)
        assert jump(std_curve, 0.001, 0.2, 100) == pytest.approx(JUMP_100_AT_02, rel=1e-12)
        assert jump(std_curve, 0.001, 0.9, 5) == pytest.approx(JUMP_5_AT_09, rel=1e-12)

    def test_identity_cases(self, std_curve):
        assert jump(std_curve, 0.001, 0.37, 0) == 0.37
        assert jump(std_curve, 0.0, 0.37, 12) == 0.37

    def test_threshold_clamp_is_exact(self, std_curve):
        # enough pulses to saturate: result is exactly 1.0, not merely close
        assert jump(std_curve, 0.01, 0.9, 50) == 1.0
        assert jump(std_curve, 0.001, 1.0, 1) == 1.0

    def test_rejects_bad_arguments(self, std_curve):
        with pytest.raises(ValueError):
            jump(std_curve, 0.001, 0.5, -1)
        with pytest.raises(ValueError, match="pulse count m 0.5 is not an integer"):
            jump(std_curve, 0.001, 0.5, 0.5)
        with pytest.raises(ValueError):
            jump(std_curve, -0.001, 0.5, 1)
        with pytest.raises(ValueError):
            jump(std_curve, 0.001, 1.5, 1)

    def test_monotone_in_theta_and_m(self, std_curve):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a, b = sorted(rng.uniform(0.0, 1.0, size=2))
            m = int(rng.integers(1, 20))
            if a < b:
                assert jump(std_curve, 0.001, a, m) < jump(std_curve, 0.001, b, m)
            assert jump(std_curve, 0.001, a, m) <= jump(std_curve, 0.001, a, m + 1)


class TestSpecs:
    def test_curve_spec_validation(self):
        with pytest.raises(ValueError):
            pc.CurveSpec(family="nope", i=1.05)
        with pytest.raises(ValueError):
            pc.CurveSpec(i=1.0)
        with pytest.raises(ValueError):
            pc.CurveSpec(i=0.5)
        with pytest.raises(ValueError):
            pc.CurveSpec(i=float("nan"))
        pc.CurveSpec(i=1.0000001)  # barely above 1 is legal

    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            pc.CouplingParams(n=1, epsilon=0.001, tau=0.1)
        with pytest.raises(ValueError):
            pc.CouplingParams(n=2, epsilon=-0.001, tau=0.1)
        with pytest.raises(ValueError):
            pc.CouplingParams(n=2, epsilon=0.001, tau=0.0)
        with pytest.raises(ValueError):
            pc.CouplingParams(n=2, epsilon=0.001, tau=-0.1)
        with pytest.raises(ValueError):
            pc.CouplingParams(n=2.0, epsilon=0.001, tau=0.1)  # type: ignore[arg-type]
        pc.CouplingParams(n=2, epsilon=0.0, tau=0.1)  # zero coupling is legal


class TestAssumptions:
    def test_headline_value(self, std_curve, headline_coupling):
        report = validate_assumptions(std_curve, headline_coupling)
        assert report.a2_value == pytest.approx(A2_HEADLINE, rel=1e-12)
        assert report.a2_holds
        assert report.margin == pytest.approx(1.0 - A2_HEADLINE, rel=1e-12)

    def test_holds_iff_below_one(self, std_curve):
        report = validate_assumptions(
            std_curve, pc.CouplingParams(n=100, epsilon=0.01, tau=0.1)
        )
        assert report.a2_value > 1.0
        assert not report.a2_holds
        assert report.margin < 0.0

    def test_large_delay_clamps_at_one(self, std_curve):
        # 2*tau beyond a full period: the curve argument caps at 1
        report = validate_assumptions(
            std_curve, pc.CouplingParams(n=10, epsilon=0.001, tau=0.75)
        )
        expected = f_eval(std_curve, 1.0) + 10 * 0.001
        assert report.a2_value == pytest.approx(expected, rel=1e-12)
        assert not report.a2_holds

    def test_zero_coupling_always_holds(self, std_curve):
        report = validate_assumptions(
            std_curve, pc.CouplingParams(n=1000, epsilon=0.0, tau=0.1)
        )
        assert report.a2_holds


class TestCouplingSize:
    def test_numpy_integer_n_is_stored_as_int(self):
        coupling = pc.CouplingParams(n=np.int64(100), epsilon=0.001, tau=0.1)
        plain = pc.CouplingParams(n=100, epsilon=0.001, tau=0.1)
        assert type(coupling.n) is int
        assert coupling == plain
        assert repr(coupling) == repr(plain)
        assert hash(coupling) == hash(plain)

    @pytest.mark.parametrize("n", [True, np.bool_(True), np.float64(2.0), "2"])
    def test_non_integer_n_is_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            pc.CouplingParams(n=n, epsilon=0.001, tau=0.1)

    def test_float32_parameters_are_stored_as_float(self):
        f32 = np.float32
        params, plain = (
            pc.ModelParams(
                curve=pc.CurveSpec(i=cast(1.05)),
                coupling=pc.CouplingParams(n=3, epsilon=cast(0.01), tau=cast(0.1)),
                tol_time=cast(1e-9),
                tol_phase=cast(1e-12),
            )
            for cast in (f32, lambda x: float(f32(x)))
        )
        assert repr(params) == repr(plain)
        assert hash(params) == hash(plain)
        run, plain_run = (
            list(pc.NetworkState(p, [0.3, 0.6, 0.9]).run(2.0)) for p in (params, plain)
        )
        assert all(type(rep.event_time) is float for rep in run)
        # repr round-trips floats, so equal reprs are a bit-identical stream.
        assert repr(run) == repr(plain_run)
