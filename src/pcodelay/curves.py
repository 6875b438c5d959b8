"""State curve for delay-coupled pulse oscillator networks.

Each oscillator carries a phase ``phi`` that increases at unit rate and a
state ``x = f(phi)``, where ``f`` is smooth, strictly increasing and strictly
concave on [0, 1] with f(0) = 0 and f(1) = 1.  An incoming pulse adds a fixed
increment ``epsilon`` to the state, capped at threshold, which in phase
coordinates is the jump map

    jump(theta, m) = f_inv(min(1, f(theta) + m * epsilon))

for ``m`` simultaneously arriving pulses.  The one curve family is an
exponential approach to an asymptote ``i > 1`` (the classic leaky
integrate-and-fire profile), named ``"ms_exponential"``.

The exponential family is evaluated as ``f(phi) = -i * expm1(a * phi)`` with
``a = log1p(-1/i)``; these forms make f(0) == 0.0 and f_inv(1.0) == 1.0 exact
in float64, which the threshold logic in the engine relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "CurveSpec",
    "CouplingParams",
    "AssumptionReport",
    "f_eval",
    "f_inv",
    "curve_slope",
    "log_ratio",
    "jump",
    "bind_jump",
    "validate_assumptions",
]

# Inputs this far outside [0, 1] are treated as roundoff and clamped; anything
# worse is a caller bug and raises.
_DOMAIN_SLACK = 1e-12


# The only curve family; CurveSpec rejects every other name.
_FAMILY = "ms_exponential"


@dataclass(frozen=True)
class CurveSpec:
    """Parameters of one state curve.

    Attributes:
        family: curve family name; "ms_exponential" is the only one.
        i: asymptote of the state curve; must be > 1 so the curve is concave
            and reaches threshold in finite phase.  Values barely above 1 are
            legal; they just make the network easy to saturate, which
            ``validate_assumptions`` will report.
    """

    family: str = "ms_exponential"
    i: float = 1.05

    def __post_init__(self) -> None:
        if self.family != _FAMILY:
            raise ValueError(
                f"unknown curve family {self.family!r}; "
                f"known: {[_FAMILY]}"
            )
        if not (isinstance(self.i, (int, float)) and math.isfinite(self.i)):
            raise ValueError("curve parameter i must be a finite number")
        if not self.i > 1.0:
            raise ValueError(f"curve parameter i must be > 1, got {self.i}")


@dataclass(frozen=True)
class CouplingParams:
    """Network coupling parameters: size, pulse increment, transmission delay."""

    n: int
    epsilon: float
    tau: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError("n must be an integer")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class AssumptionReport:
    """Result of the saturation check ``f(min(1, 2*tau)) + n*epsilon < 1``.

    ``a2_value`` is the left-hand side; ``a2_holds`` means it is below 1, i.e.
    an oscillator at phase 0 cannot be pushed to threshold within two delays
    even if every other oscillator contributes one pulse.  ``margin`` is
    ``1 - a2_value`` (negative when the check fails).
    """

    a2_value: float
    a2_holds: bool
    margin: float


def _check_phase(phi: float) -> float:
    if not (-_DOMAIN_SLACK <= phi <= 1.0 + _DOMAIN_SLACK):
        raise ValueError(f"phase {phi!r} outside [0, 1]")
    # min(max(phi, 0.0), 1.0) without the two calls; the same result,
    # -0.0 included.
    if phi < 0.0:
        return 0.0
    if phi > 1.0:
        return 1.0
    return phi


def _check_state(x: float) -> float:
    if not (-_DOMAIN_SLACK <= x <= 1.0 + _DOMAIN_SLACK):
        raise ValueError(f"state {x!r} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def log_ratio(curve: CurveSpec) -> float:
    """The exponent ``a = log1p(-1/i)`` of the curve; negative."""
    return math.log1p(-1.0 / curve.i)


def f_eval(curve: CurveSpec, phi: float) -> float:
    """Evaluate the state curve at phase ``phi`` in [0, 1]."""
    return -curve.i * math.expm1(log_ratio(curve) * _check_phase(phi))


def f_inv(curve: CurveSpec, x: float) -> float:
    """Invert the state curve: the phase whose state is ``x`` in [0, 1]."""
    return math.log1p(-_check_state(x) / curve.i) / log_ratio(curve)


def curve_slope(curve: CurveSpec, phi: float) -> float:
    """Derivative of the state curve at ``phi``; positive and decreasing."""
    i = curve.i
    a = log_ratio(curve)
    return -i * a * math.exp(a * _check_phase(phi))


def jump(curve: CurveSpec, epsilon: float, theta: float, m: int) -> float:
    """Phase after absorbing ``m`` simultaneous pulses of size ``epsilon``.

    Equals ``f_inv(min(1, f(theta) + m * epsilon))``.  Returns exactly 1.0
    when the summed increment reaches threshold, so a caller can test for
    firing with ``==`` against the phase cap.

    Args:
        curve: state curve.
        epsilon: per-pulse state increment, >= 0.
        theta: phase in [0, 1] at the arrival instant.
        m: number of pulses, >= 0.
    """
    if m < 0:
        raise ValueError(f"pulse count m must be >= 0, got {m}")
    return bind_jump(curve, epsilon)(theta, m)


def bind_jump(curve: CurveSpec, epsilon: float) -> Callable[[float, int], float]:
    """``jump`` with the curve and the pulse size fixed, for loops.

    ``bind_jump(curve, epsilon)(theta, m) == jump(curve, epsilon, theta, m)``
    bit for bit.  The epsilon check and the curve's constants are done once
    here; each call still checks and clamps theta, but not m, so callers
    must pass m >= 0.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    i = curve.i
    a = log_ratio(curve)

    def bound(theta: float, m: int) -> float:
        theta = _check_phase(theta)
        if m == 0 or epsilon == 0.0:
            return theta
        y = -i * math.expm1(a * theta) + m * epsilon
        if y >= 1.0:
            return 1.0
        return math.log1p(-y / i) / a

    return bound


def validate_assumptions(curve: CurveSpec, coupling: CouplingParams) -> AssumptionReport:
    """Check that total coupling cannot saturate a freshly reset oscillator.

    Computes ``f(min(1, 2*tau)) + n*epsilon`` and compares against 1.  The
    analysis layer's guarantees (minimum inter-firing gap, at most one pending
    pulse per source) assume this value is below 1; callers should treat a
    failing report as "simulation runs, guarantees void".
    """
    horizon_phase = min(1.0, 2.0 * coupling.tau)
    value = f_eval(curve, horizon_phase) + coupling.n * coupling.epsilon
    return AssumptionReport(a2_value=value, a2_holds=value < 1.0, margin=1.0 - value)
