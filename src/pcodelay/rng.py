"""Seedable random stream with a frozen, platform-independent algorithm.

Initial phases must be reproducible byte-for-byte across library versions,
so instead of relying on numpy's generators (whose streams may change
between releases) this module pins SplitMix64, the public-domain 64-bit
mixer with fixed constants.  The float transform maps raw output to the
half-open-below interval (low, high]: the upper endpoint is reachable, the
lower never is, matching the engine's requirement that initial phases be
strictly positive while phase 1.0 (fire immediately) stays legal.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitMix64", "sample_phases"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    """SplitMix64's output function of a state: on an int, or elementwise on
    a uint64 array, whose products wrap mod 2**64 by themselves."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _check_interval(low, high) -> None:
    if not high > low:
        raise ValueError(f"need high > low, got ({low}, {high}]")


def _open_closed(z, low, high):
    """Raw outputs mapped to low + (high - low) * u / 2**53, u in [1, 2**53]."""
    u = (z >> 11) + 1
    return low + (high - low) * (u * 2.0**-53)


class SplitMix64:
    """Deterministic 64-bit generator with a single word of state."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform_open_closed(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform draw on (low, high].

        The top 53 bits map to u in {1, ..., 2**53}, so u * 2**-53 lies in
        (0, 1] and the upper endpoint is hit with probability 2**-53.  For
        low == 0 the result is therefore strictly positive; for positive low
        the open lower end can still be hit by rounding of low + tiny, which
        no caller here cares about.
        """
        _check_interval(low, high)
        return min(_open_closed(self.next_uint64(), low, high), high)


def sample_phases(seed: int, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Draw n initial phases on (low, high] from a fresh stream.

    Oscillator i receives the i-th draw of SplitMix64(seed); documented so
    configs can be reproduced outside this package.  The k-th state is
    seed + k * 0x9E3779B97F4A7C15 mod 2**64, so all n draws are made at once
    with the same float operations as uniform_open_closed.
    """
    if n <= 0:
        return np.empty(0)
    _check_interval(low, high)
    states = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN + (seed & _MASK)
    return np.minimum(_open_closed(_mix(states), low, high), high)
