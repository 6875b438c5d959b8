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
import numbers
import operator
from typing import Callable

__all__ = [
    "CurveSpec",
    "CouplingParams",
    "AssumptionReport",
    "f_eval",
    "f_inv",
    "curve_slope",
    "jump",
    "validate_assumptions",
]

# Inputs this far outside [0, 1] are treated as roundoff and clamped; anything
# worse is a caller bug and raises.
_DOMAIN_SLACK = 1e-12


# The only curve family; CurveSpec rejects every other name.
_FAMILY = "ms_exponential"


class _Record:
    """Base of the package's immutable records.

    A record's __init__ checks its arguments and stores its fields in
    self.__dict__, in the order of its parameters; nothing else writes
    there.  Records of one class compare and hash by their field
    values, and print as Name(field=value, ...); assignment and deletion
    raise AttributeError.  _replace builds a changed copy through __init__,
    so it meets the same checks; copy and pickle copy the fields as they are.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in self.__dict__.items()])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy with the named fields changed, checked as a new record is."""
        return type(self)(**{**self.__dict__, **changes})


class CurveSpec(_Record):
    """Parameters of one state curve.

    Attributes:
        family: curve family name; "ms_exponential" is the only one.
        i: asymptote of the state curve; must be > 1 so the curve is concave
            and reaches threshold in finite phase.  Values barely above 1 are
            legal; they just make the network easy to saturate, which
            ``validate_assumptions`` will report.
    """

    def __init__(self, family: str = "ms_exponential", i: float = 1.05) -> None:
        if family != _FAMILY:
            raise ValueError(f"unknown curve family {family!r}; known: {[_FAMILY]}")
        if not (isinstance(i, numbers.Real) and math.isfinite(i)):
            raise ValueError("curve parameter i must be a finite number")
        if not i > 1.0:
            raise ValueError(f"curve parameter i must be > 1, got {i}")
        self.__dict__.update(family=family, i=float(i))


class CouplingParams(_Record):
    """Network coupling parameters: size, pulse increment, transmission delay."""

    def __init__(self, n: int, epsilon: float, tau: float) -> None:
        # Any integer type (numpy's too) but a bool, stored as a plain int,
        # and epsilon and tau as floats: equality, repr and the run's
        # arithmetic do not depend on the caller's types.
        if isinstance(n, bool):
            raise ValueError("n must be an integer")
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError("n must be an integer") from None
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not (math.isfinite(epsilon) and epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValueError(f"tau must be > 0, got {tau}")
        self.__dict__.update(n=n, epsilon=float(epsilon), tau=float(tau))


class AssumptionReport(_Record):
    """Result of the saturation check ``f(min(1, 2*tau)) + n*epsilon < 1``.

    ``a2_value`` is the left-hand side; ``a2_holds`` means it is below 1, i.e.
    an oscillator at phase 0 cannot be pushed to threshold within two delays
    even if every other oscillator contributes one pulse.  ``margin`` is
    ``1 - a2_value`` (negative when the check fails).
    """

    def __init__(self, a2_value: float, a2_holds: bool, margin: float) -> None:
        self.__dict__.update(a2_value=a2_value, a2_holds=a2_holds, margin=margin)


def _index(x: object, name: str, low: int = 0, high: int | None = None) -> int:
    """x as an integer in [low, high); ValueError naming it otherwise.

    Any integer type passes through operator.index (numpy's too, and True
    as 1); the result is a plain int.
    """
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} {x!r} is not an integer") from None
    if high is None:
        if x < low:
            raise ValueError(f"{name} must be >= {low}, got {x}")
    elif not low <= x < high:
        raise ValueError(f"{name} {x} out of range [{low}, {high})")
    return x


def _check_phase(x: float, what: str = "phase") -> float:
    if not (-_DOMAIN_SLACK <= x <= 1.0 + _DOMAIN_SLACK):
        raise ValueError(f"{what} {x!r} outside [0, 1]")
    # min(max(x, 0.0), 1.0) without the two calls; the same result,
    # -0.0 included.
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def log_ratio(curve: CurveSpec) -> float:
    """The exponent ``a = log1p(-1/i)`` of the curve; negative."""
    return math.log1p(-1.0 / curve.i)


def f_eval(curve: CurveSpec, phi: float) -> float:
    """Evaluate the state curve at phase ``phi`` in [0, 1]."""
    return -curve.i * math.expm1(log_ratio(curve) * _check_phase(phi))


def f_inv(curve: CurveSpec, x: float) -> float:
    """Invert the state curve: the phase whose state is ``x`` in [0, 1]."""
    return math.log1p(-_check_phase(x, "state") / curve.i) / log_ratio(curve)


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
        m: number of pulses, an integer >= 0.
    """
    return bind_jump(curve, epsilon)(theta, _index(m, "pulse count m"))


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
