"""xorshift64* pseudo-random generator.

Fixed here (and in the README) so any implementation, in any language, can
reproduce the streams bit-exactly:

    state ^= state >> 12
    state ^= (state << 25) mod 2^64
    state ^= state >> 27
    output = (state * 2685821657736338717) mod 2^64

Doubles in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.  A zero seed
is replaced by 0x9E3779B97F4A7C15.  Integer draws below n use output mod n.

`Xorshift64Star` draws one value at a time and is the reference.
`xorshift64star_stream` returns the same sequence as a uint64 array, laid
out as a grid of K rows by L lanes: lane j holds states jK .. jK + K - 1,
and the array reads the grid lane by lane.  Each row follows from the one
above by the plain update on an L-vector.  The lane starts (row 0) follow
from the first state by jump-ahead: the update without the multiply is
linear over GF(2), so row 0 doubles by jumping every start it holds
m = K, 2K, 4K, ... steps ahead at once.  The jump L^m is a 64x64 bit matrix,
applied as eight 256-entry tables indexed by the bytes of the state; the
tables of L^2m are built by squaring L^m, so no jump is ever found by
stepping.  K grows with n (see `_rows`): at K = 1 the grid is one row and
the stream is the doubling alone.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["Xorshift64Star", "mix64", "xorshift64star_stream", "float_stream"]

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15
_TWO_POW_MINUS_53 = 2.0 ** -53


class Xorshift64Star:
    """Deterministic 64-bit generator; state is a single nonzero word."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64
        if self.state == 0:
            self.state = _ZERO_SEED_REPLACEMENT

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * _MULTIPLIER) & _MASK64

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _TWO_POW_MINUS_53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def int_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("int_below needs n >= 1")
        return self.next_u64() % n


# Each byte k of a state indexes row k of a (8, 256) table, flattened.
_BYTE_OFFSETS = np.arange(0, 8 * 256, 256)
_SHIFTS = tuple(np.uint64(k) for k in (12, 25, 27))


def _step(s: int) -> int:
    """The state update of `Xorshift64Star.next_u64`; linear over GF(2)."""
    s ^= s >> 12
    s ^= (s << 25) & _MASK64
    s ^= s >> 27
    return s


def _tables(columns: np.ndarray) -> np.ndarray:
    """(8, 256) tables of the bit matrix whose column i is the image of bit i.

    Entry [k, v] is the image of v << 8k: the XOR of the columns of the bits
    set in v.
    """
    out = np.zeros((8, 256), dtype=np.uint64)
    for bit in range(8):
        out[:, 1 << bit:2 << bit] = out[:, :1 << bit] ^ columns[bit::8, None]
    return out


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The bit matrix of `tables` applied to each state: the XOR of its eight byte images."""
    state_bytes = np.asarray(states, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.bitwise_xor.reduce(tables.reshape(-1)[state_bytes + _BYTE_OFFSETS], axis=1)


@cache
def _jump(log2_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, tables) of the update applied 2^log2_steps times.

    Read-only: the cache hands the same arrays to every caller.
    """
    if log2_steps == 0:
        columns = np.array([_step(1 << i) for i in range(64)], dtype=np.uint64)
    else:
        half_columns, half_tables = _jump(log2_steps - 1)
        columns = _apply(half_tables, half_columns)
    tables = _tables(columns)
    columns.setflags(write=False)
    tables.setflags(write=False)
    return columns, tables


def _rows(n: int) -> int:
    """Rows K of the lane grid for n states: the largest power of two with 36 K^2 <= n, at most 64.

    A row costs six numpy calls whatever its length, and a lane start eight
    table lookups, so K trades per-call cost against per-lane cost and grows
    as sqrt(n).  Timed with numpy 2.4 on a 2-core Xeon, this K was the
    fastest power of two for 300 to 18000 states, and within 12% of it up
    to 80000; K stops at 64, beyond the sizes timed.
    """
    return min(64, 1 << max(0, math.isqrt(n // 36).bit_length() - 1))


def xorshift64star_stream(seed: int, n: int) -> np.ndarray:
    """The first n `Xorshift64Star(seed).next_u64()` values, as uint64."""
    if n < 0:
        raise ValueError("stream length must be >= 0")
    rows = _rows(n)
    lanes = -(-n // rows)
    grid = np.empty((rows, lanes), dtype=np.uint64)
    starts = grid[0]
    starts[:1] = _step(Xorshift64Star(seed).state)
    # The starts held cover filled * rows states: each doubling jumps them that far.
    filled, log2_steps = 1, rows.bit_length() - 1
    while filled < lanes:
        take = min(filled, lanes - filled)
        starts[filled:filled + take] = _apply(_jump(log2_steps)[1], starts[:take])
        filled += take
        log2_steps += 1
    shift = np.empty_like(starts)
    for r in range(1, rows):
        row = grid[r]
        np.right_shift(grid[r - 1], _SHIFTS[0], out=shift)
        np.bitwise_xor(grid[r - 1], shift, out=row)
        np.left_shift(row, _SHIFTS[1], out=shift)
        row ^= shift
        np.right_shift(row, _SHIFTS[2], out=shift)
        row ^= shift
    # Lane-major: lane j holds states j*rows .. j*rows + rows - 1.  The
    # product is laid out in that order, so the reshape is a view.
    return np.multiply(grid.T, np.uint64(_MULTIPLIER), order="C").reshape(-1)[:n]


def float_stream(seed: int, n: int) -> np.ndarray:
    """The first n `Xorshift64Star(seed).next_float()` values, as float64."""
    top = xorshift64star_stream(seed, n)
    top >>= np.uint64(11)
    out = top.astype(np.float64)
    out *= _TWO_POW_MINUS_53
    return out


def mix64(x: int) -> int:
    """splitmix64 finalizer; used for order-independent checksums."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x
