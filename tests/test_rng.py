import warnings

import numpy as np
import pytest

from quadrics.rng import Xorshift64Star, float_stream, xorshift64star_stream

# 0 takes the zero-state replacement.
SEEDS = [0, -12345, 2**64 + 7, 0x9E3779B97F4A7C15, 1]
# Around the 64 steps taken in Python, and around the array's doublings.
LENGTHS = [0, 1, 63, 64, 65, 6 * 3000] + [64 * 2**k + e for k in (1, 2, 5) for e in (-1, 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_next_u64(seed):
    for n in LENGTHS:
        rng = Xorshift64Star(seed)
        expected = [rng.next_u64() for _ in range(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # uint64 products wrap silently
            got = xorshift64star_stream(seed, n)
        assert got.dtype == np.uint64
        assert got.tolist() == expected, n


def test_float_stream_equals_next_float():
    rng = Xorshift64Star(99)
    expected = [rng.next_float() for _ in range(300)]
    got = float_stream(99, 300)
    assert got.dtype == np.float64 and got.tolist() == expected


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        xorshift64star_stream(1, -1)
