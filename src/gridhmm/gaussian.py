"""Scalar Gaussian utilities and reproducible random streams.

Everything downstream of this module draws randomness through
:class:`RngStream`, which addresses an independent generator by
``(seed, stream_index)``.  Identical addresses give bitwise-identical
draws on every platform, and distinct stream indices give statistically
independent streams without any shared mutable state.  That property is
what lets the Monte Carlo harness hand one stream to each trial and stay
deterministic under any execution order.  The harness draws the
uniforms of a batch of streams at once, without building their
generators or loading ``numpy.random``: :func:`_stream_draws`
reproduces each stream's seeding and PCG64 steps in exact uint64 array
arithmetic, bit for bit.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "probability",
    "q_function",
    "RngStream",
    "sample_gaussian",
    "sample_categorical",
]

_SQRT2 = math.sqrt(2.0)

# Tolerance for user-supplied probability vectors summing to 1.
SUM_TOL = 1e-9


def probability(value: float) -> float:
    """Return ``value`` as a float after checking it lies in [0, 1].

    NaN fails both bound checks and is rejected.
    """
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"probability out of range [0, 1]: {value!r}")
    return v


def q_function(x: float) -> float:
    """Upper-tail probability of the standard normal distribution.

    Evaluated through the complementary error function rather than a
    series or rational approximation; the result is monotone decreasing
    in ``x`` and accurate to well below 1e-12 absolute over the argument
    ranges that arise here.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("q_function requires a non-NaN argument")
    return probability(0.5 * math.erfc(x / _SQRT2))


class RngStream:
    """One reproducible random stream addressed by ``(seed, stream_index)``.

    Backed by a PCG64 generator keyed through a seed sequence with the
    stream index as spawn key, so each index yields an independent
    stream derived directly from the root seed; creating stream ``t``
    never advances or touches stream ``u``.  Gaussian draws use the
    generator's native (ziggurat) sampler.

    A stream is single-owner state: never advance the same stream from
    two threads.  Distinct streams may be advanced concurrently.
    """

    def __init__(self, seed: int, stream_index: int = 0) -> None:
        seed = _check_seed(seed)
        stream_index = int(stream_index)
        if stream_index < 0:
            raise ValueError(f"stream_index must be non-negative, got {stream_index}")
        self.seed = seed
        self.stream_index = stream_index
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream_index,)))
        )

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"


def _check_seed(seed) -> int:
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
# and the multiplier of PCG64's 128-bit LCG.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hashmix(value, const: int):
    """SeedSequence's ``hashmix`` of an int, and its next multiplier state."""
    value = value ^ const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - _MIX_R * y) & _M32
    return r ^ r >> 16


def _hash_words(words, consts) -> np.ndarray:
    """Row i: the 32-bit ``words`` hashed with multiplier state ``consts[i]``, as by ``_hashmix``."""
    value = words ^ np.array(consts[:-1], dtype=np.uint32)[:, None]
    value *= np.array(consts[1:], dtype=np.uint32)[:, None]
    return value ^ value >> 16


def _consts(const: int, mult: int, count: int) -> list[int]:
    """``const`` and the ``count`` multiplier states after it."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _spawn_states(seed: int, first: int, last: int) -> tuple[np.ndarray, ...]:
    """PCG64 seed words ``(s_hi, s_lo, i_hi, i_lo)`` of ``RngStream(seed, t)``, t in ``first..last-1``.

    Each is a uint64 array over t < 2**64: the 128-bit state seed ``s``
    and stream seed ``i`` that ``PCG64`` reads from
    ``SeedSequence(seed, spawn_key=(t,)).generate_state(4, uint64)``.
    That hashes the seed's two 32-bit words, padded with zeros to its
    pool of four, into the pool, mixes the pool words with each other,
    then mixes each word of t into every pool word: one word for t <
    2**32, two above.  All of that but the last step is the same for
    every t and runs once, on ints.  The last step and
    ``generate_state`` run on uint32 arrays, one row per pool or output
    word and one column per t.
    """
    const = _INIT_A
    pool = []
    for word in (seed & _M32, seed >> 32, 0, 0):
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    t = np.arange(first, last, dtype=np.uint64)
    consts = _consts(const, _MULT_A, 8)
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], _hash_words(t.astype(np.uint32), consts[:5]))
    if last > 2**32:
        high = (t >> 32).astype(np.uint32)
        pool = np.where(high > 0, _mix(pool, _hash_words(high, consts[4:])), pool)
    words = _hash_words(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return tuple(words[0::2] | words[1::2] << 32)


# Elements (steps x streams) per piece of the Monte Carlo draws.  A piece's
# uint64 temporaries take about 90 B an element, 0.37 MB in all, which
# keeps the draws below the peak of the batch they feed.
_PIECE = 2**12


def _limbs(values) -> np.ndarray:
    """uint64 limbs (4, len(values)) of ints mod 2**128: rows hi, lo, lo & 0xFFFFFFFF, lo >> 32."""
    return np.array(
        [[v >> 64 & _M64 for v in values], [v & _M64 for v in values],
         [v & _M32 for v in values], [v >> 32 & _M32 for v in values]],
        dtype=np.uint64,
    )


@functools.lru_cache(maxsize=1)
def _sums(length: int) -> np.ndarray:
    """Limbs (4, length + 2, 1) of ``G_m = MULT**0 + ... + MULT**(m-1)`` for m in 0..length+1."""
    power, sums = 1, [0]
    for _ in range(length + 1):
        sums.append(sums[-1] + power)
        power = power * _PCG_MULT & _M128
    table = _limbs(sums)[:, :, None]
    table.flags.writeable = False  # cached: every caller shares it
    return table


def _mul_add(a, hi, lo, b_hi, b_lo):
    """``a * (hi, lo) + (b_hi, b_lo)`` mod 2**128, as uint64 words ``(hi, lo)``; ``a`` in limbs.

    The high word of the 64-bit product ``a_lo * lo`` is summed from
    32-bit partial products, none of which overflows.
    """
    a_hi, a_lo, a0, a1 = a
    lo0, lo1 = lo & _M32, lo >> 32
    mid = lo0 * a0
    mid >>= 32
    mid += lo1 * a0
    cross = lo0 * a1
    cross += mid & _M32
    cross >>= 32
    mid >>= 32
    out_hi = lo1 * a1
    out_hi += mid
    out_hi += cross
    out_hi += hi * a_lo
    out_hi += lo * a_hi
    out_hi += b_hi
    out_lo = lo * a_lo
    out_lo += b_lo
    out_hi += out_lo < b_lo
    return out_hi, out_lo


def _stream_draws(seed: int, first: int, last: int, count: int) -> np.ndarray:
    """Uniforms (count, last - first): column i ``RngStream(seed, first + i).generator.random(count)``.

    PCG64 seeds ``inc = 2 i + 1`` and ``state = MULT x + inc`` with ``x =
    s + inc``; each draw steps ``state <- MULT state + inc`` mod 2**128
    and returns the top 53 bits of XSL-RR of the new state, times 2**-53
    (O'Neill 2014, HMC-CS-2014-0905).  So draw j comes from the state
    ``MULT**m x + G_m inc`` with m = j + 2, which is ``x + G_m v`` with
    ``v = (MULT - 1) x + inc``, since ``MULT**m = 1 + (MULT - 1) G_m``
    (Brown 1994, "Random number generation with arbitrary strides").
    The first piece of ``rows`` draws takes that product with the table
    of :func:`_sums`; each later piece is the piece before advanced by
    ``rows`` steps, ``MULT**rows state + G_rows inc``.  A piece holds
    about ``_PIECE`` elements, and all arithmetic is exact uint64.
    """
    s_hi, s_lo, i_hi, i_lo = _spawn_states(seed, first, last)
    rows = max(1, min(count, _PIECE // (last - first)))
    one, mult_less_one, advance = _limbs([1, _PCG_MULT - 1, pow(_PCG_MULT, rows, 2**128)]).T
    sums = _sums(rows)
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    x = _mul_add(one, s_hi, s_lo, *inc)  # s + inc
    v = _mul_add(mult_less_one, *x, *inc)
    state = _mul_add(sums[:, 2 : rows + 2], *v, *x)
    step = _mul_add(sums[:, rows, 0], *inc, 0, 0)
    u = np.empty((count, last - first))
    for row in range(0, count, rows):
        if row:
            n = min(rows, count - row)
            state = _mul_add(advance, state[0][:n], state[1][:n], *step)
        hi, lo = state
        bits = hi ^ lo  # XSL-RR: the words' xor, rotated right by the state's top 6 bits
        turn = hi >> 58
        np.multiply((bits >> turn | bits << (64 - turn)) >> 11, 2.0**-53, out=u[row : row + rows])
    return u


def _normal_law(mean, sigma) -> tuple[np.ndarray, float]:
    """``mean`` as a float array and ``sigma`` as a float, checked: finite means, positive sigma."""
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mean = np.asarray(mean, dtype=float)
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean must be finite")
    return mean, sigma


def sample_gaussian(mean, sigma: float, rng: RngStream, size=None):
    """Draw from N(mean, sigma^2) on the given stream.

    ``mean`` may be scalar or an array; an array yields one draw per
    element in order.  Returns a float for scalar input, an ndarray
    otherwise.
    """
    mean_arr, sigma = _normal_law(mean, sigma)
    out = rng.generator.normal(mean_arr, sigma, size=size)
    if size is None and mean_arr.ndim == 0:
        return float(out)
    return out


def _vector_violation(vec: np.ndarray, name: str) -> str | None:
    """First probability-vector violation in ``vec``, or None.

    ``SUM_TOL`` loosens the sum and the upper bound only: a negative
    entry, however small, has a NaN logarithm and is always rejected.
    """
    if not np.all(np.isfinite(vec)):
        return f"{name} has a non-finite entry"
    low = np.flatnonzero(vec < 0.0)
    if low.size:
        i = int(low[0])
        return f"{name}[{i}] = {float(vec[i]):.12g} is negative"
    high = np.flatnonzero(vec > 1.0 + SUM_TOL)
    if high.size:
        i = int(high[0])
        return f"{name}[{i}] = {float(vec[i]):.12g} exceeds 1"
    total = float(vec.sum())
    if abs(total - 1.0) > SUM_TOL:
        return f"{name} sums to {total:.12g}, off by {abs(total - 1.0):.3e} (> {SUM_TOL})"
    return None


def _matrix_violation(mat: np.ndarray, name: str, sum_axis: int) -> str | None:
    """First stochasticity violation in ``mat``, or None.

    ``sum_axis=1`` checks row sums (transition matrices), ``sum_axis=0``
    column sums (emission matrices).  Entry bounds are those of
    :func:`_vector_violation`.
    """
    if not np.all(np.isfinite(mat)):
        return f"{name} has a non-finite entry"
    bad = np.argwhere((mat < 0.0) | (mat > 1.0 + SUM_TOL))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        return f"{name}[{i}, {j}] = {float(mat[i, j]):.12g} is outside [0, 1]"
    sums = mat.sum(axis=sum_axis)
    off = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOL)
    if off.size:
        i = int(off[0])
        kind = "row" if sum_axis == 1 else "column"
        return (
            f"{name} {kind} {i} sums to {float(sums[i]):.12g},"
            f" off by {abs(float(sums[i]) - 1.0):.3e} (> {SUM_TOL})"
        )
    return None


def _cumulative(w: np.ndarray, axis: int = 0) -> np.ndarray:
    """Cumulative weights of checked probability vectors along ``axis``.

    The last entry along ``axis`` is exactly 1.0, so u < 1 always lands
    in range.  The sums run in index order, as for a 1-D vector.
    """
    cum = np.cumsum(w, axis=axis)
    cum /= np.take(cum, [-1], axis=axis)
    return cum


def _invert(cum: np.ndarray, u) -> np.ndarray:
    """Category index of each uniform draw.

    ``cum`` holds cumulative weights along its first axis, and its other
    axes broadcast against ``u``.  Inversion counts cumulative entries
    <= u, which skips zero-width (zero-probability) categories even when
    u hits a boundary exactly; this is ``searchsorted(side="right")``.
    The count is int8 whenever it fits, which keeps successor tables small.
    Past 128 categories ``cum`` must be one vector (its other axes of
    length 1); it is then searched instead of compared with every draw,
    which gives the same count without a ``len(cum)``-fold temporary.
    """
    if len(cum) <= 128:
        return (cum <= u).sum(axis=0, dtype=np.int8)
    return np.searchsorted(cum.reshape(len(cum)), u, side="right").astype(np.int64)


def sample_categorical(weights, rng: RngStream, size=None):
    """Draw category indices with the given probabilities on the stream.

    Consumes exactly one uniform per draw, by inversion of the
    cumulative weight vector.  Zero-probability categories are never
    returned.  Returns an int for ``size=None``, an int64 ndarray
    otherwise.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    problem = _vector_violation(w, "weights")
    if problem is not None:
        raise ValueError(problem)
    cum = _cumulative(w)
    u = rng.generator.random(size)
    idx = _invert(cum.reshape(cum.shape + (1,) * np.ndim(u)), u)
    if size is None:
        return int(idx)
    return idx.astype(np.int64)
