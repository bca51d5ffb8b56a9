"""Scalar Gaussian utilities and reproducible random streams.

Everything downstream of this module draws randomness through
:class:`RngStream`, which addresses an independent generator by
``(seed, stream_index)``.  Identical addresses give bitwise-identical
draws on every platform, and distinct stream indices give statistically
independent streams without any shared mutable state.  That property is
what lets the Monte Carlo harness hand one stream to each trial and stay
deterministic under any execution order.
"""
from __future__ import annotations

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
        seed = int(seed)
        stream_index = int(stream_index)
        if not (0 <= seed < 2**64):
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
        if stream_index < 0:
            raise ValueError(f"stream_index must be non-negative, got {stream_index}")
        self.seed = seed
        self.stream_index = stream_index
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream_index,)))
        )

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"


def sample_gaussian(mean, sigma: float, rng: RngStream, size=None):
    """Draw from N(mean, sigma^2) on the given stream.

    ``mean`` may be scalar or an array; an array yields one draw per
    element in order.  Returns a float for scalar input, an ndarray
    otherwise.
    """
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mean_arr = np.asarray(mean, dtype=float)
    if not np.all(np.isfinite(mean_arr)):
        raise ValueError("mean must be finite")
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
