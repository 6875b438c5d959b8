"""The seeded stream: sample_phases draws all n phases in one vectorized
pass, bit for bit the draws of SplitMix64 one at a time."""

import numpy as np
import pytest

import pcodelay as pc
from pcodelay.rng import SplitMix64

SEEDS = [0, 1, 7, 99, 2024, 2**63, 2**64 - 1, 12345678901234567890]
BOUNDS = [(0.0, 1.0), (0.3, 0.30001), (0.999999, 1.0)]


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_phases_equals_one_draw_at_a_time(seed):
    for n in (0, 1, 100, 777, 10**4):
        for low, high in BOUNDS:
            gen = SplitMix64(seed)
            want = np.array([gen.uniform_open_closed(low, high) for _ in range(n)])
            got = pc.sample_phases(seed, n, low, high)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == want.tobytes()
            assert np.all(got > low) and np.all(got <= high)


def test_scalar_draws_return_python_numbers():
    gen = SplitMix64(7)
    assert type(gen.next_uint64()) is int
    assert type(gen.uniform_open_closed()) is float
    # The first state is seed + 0x9E3779B97F4A7C15; the seed wraps mod 2**64.
    assert SplitMix64(-1).next_uint64() == SplitMix64(2**64 - 1).next_uint64()


def test_bad_bounds_raise_only_when_a_draw_is_made():
    gen = SplitMix64(7)
    with pytest.raises(ValueError, match="need high > low"):
        gen.uniform_open_closed(1.0, 0.0)
    assert gen.next_uint64() == SplitMix64(7).next_uint64()  # nothing drawn
    for low, high in [(0.5, 0.5), (1.0, 0.0), (0.0, float("nan"))]:
        with pytest.raises(ValueError, match="need high > low"):
            pc.sample_phases(7, 3, low, high)
    assert pc.sample_phases(7, 0, 1.0, 0.0).shape == (0,)
