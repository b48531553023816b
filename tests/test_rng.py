import warnings

import numpy as np
import pytest

from quadrics.rng import Xorshift64Star, _rows, float_stream, xorshift64star_stream

# 0 takes the zero-state replacement.
SEEDS = [0, -12345, 2**64 + 7, 0x9E3779B97F4A7C15, 1]
# The stream is a grid of K rows by ceil(n / K) lanes.  K = 1, 2, 4, ... 64
# changes at n = 36 K^2, a multiple of both row counts.  The lane starts
# double from the first state alone: at K = 1, n = 2 takes the first
# doubling and n = 3 the second.  The benchmark draws 6 per ray.
ROW_CHANGES = [36 * 4**j for j in range(1, 7)]
LENGTHS = (
    [0, 1, 2, 3, 63, 64, 65]
    + [64 * 2**k + e for k in (1, 2, 5) for e in (-1, 1)]
    + [n + e for n in ROW_CHANGES + [6 * 500, 6 * 3000] for e in (-1, 0, 1)]
)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_next_u64(seed):
    rng = Xorshift64Star(seed)
    expected = [rng.next_u64() for _ in range(max(LENGTHS))]
    for n in LENGTHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # uint64 products wrap silently
            got = xorshift64star_stream(seed, n)
        assert got.dtype == np.uint64
        assert got.tolist() == expected[:n], n


def test_lengths_straddle_every_row_count_change():
    changes = [n for n in range(1, max(LENGTHS)) if _rows(n) != _rows(n - 1)]
    assert changes == ROW_CHANGES
    assert [_rows(n) for n in ROW_CHANGES] == [2, 4, 8, 16, 32, 64]
    assert [_rows(6 * 500), _rows(6 * 3000)] == [8, 16]


def test_float_stream_equals_next_float():
    rng = Xorshift64Star(99)
    expected = [rng.next_float() for _ in range(300)]
    got = float_stream(99, 300)
    assert got.dtype == np.float64 and got.tolist() == expected


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        xorshift64star_stream(1, -1)
