"""Synthetic data generation, Monte Carlo accuracy studies, and forecasting.

Reproducibility convention: every function that draws randomness takes
an :class:`~gridhmm.gaussian.RngStream` and consumes a documented
number of variates from it, so callers can reason about stream state.
The Monte Carlo driver derives one stream per trial index from a base
seed, which makes results independent of execution order.

One core serves a single record and a batch of trials alike.  Every
three-state draw, of a state or of a symbol, is :func:`_invert`: a
uniform becomes a category by counting the cumulative weights at or
below it, one weight at a time.  The sampled chain comes from each
step's successor map, the three transition rows inverted at that
step's uniform and coded as one int8, and the Viterbi path from the
successor maps and first states that the normalised, memoised
automaton of :func:`~gridhmm.viterbi.viterbi_decode` decides once per
(score to go, symbol) pair, one memo serving every batch of a run.
:func:`~gridhmm.viterbi._follow` turns coded successor maps into paths
by a prefix scan over their compositions, with no per-step Python loop.
In a batch each trial draws the uniforms of its own stream in the order
of :func:`simulate_states` and :func:`emit_symbols`:
:func:`~gridhmm.gaussian._stream_draws` seeds the batch's streams and
jumps their PCG64 states ahead in closed form, in exact uint64 array
arithmetic, the engine of every :class:`~gridhmm.gaussian.RngStream`.
Every score is formed in the same order, so each trial equals those two
functions and ``viterbi_decode`` run on its own stream, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .detector import (
    DegenerateThresholdsError,
    DetectorParams,
    compute_thresholds,
    detection_probabilities,
)
from .gaussian import RngStream, _check_seed, _cumulative, _matrix_violation
from .gaussian import _stream_draws, _vector_violation, sample_gaussian
from .model import HmmModel, require_valid
from .viterbi import _CHUNK, _Memo, _follow, _paths, _symbol_indices

__all__ = [
    "HIST_BINS",
    "simulate_states",
    "emit_symbols",
    "synthesize_measurements",
    "accuracy",
    "MonteCarloSummary",
    "run_monte_carlo",
    "SweepPoint",
    "detection_sweep",
    "PredictionVector",
    "predict",
    "expected_ht_accuracy",
]

# Accuracy histograms bin whole percentage points: [0,1), [1,2), ..., plus {100}.
HIST_BINS = 101

# Steps (trials x K) per batch of the Monte Carlo kernel.  Running a
# batch peaks at 36 bytes per step (traced at K=100 and 1000): the
# uniforms (16), the hidden and emitted columns (2) and viterbi._follow's
# int16 prefix scan and take temporaries (18), which also set the chain's
# peak; the draws alone, in pieces of gaussian._PIECE elements, peak at
# 42.  So a batch needs about 0.7 MB,
# while the vector operations across trials (163 of them at K=100)
# amortise the per-step interpreter overhead.  A batch holds at least one
# trial, however long; a batch of one trial is decoded by the scalar loop
# of viterbi_decode.
_BATCH_STEPS = 2**14


def simulate_states(model: HmmModel, length: int, rng: RngStream) -> np.ndarray:
    """Sample a hidden deviation path of the given length.

    The first state comes from the initial distribution, each later one
    from the transition row of its predecessor.  Consumes exactly
    ``length`` uniforms from the stream.  Returns symbols in {-1, 0, 1}.
    """
    tables = _Tables.of(model)
    length = _check_length(length)
    states = np.concatenate(list(_chain(tables, rng, length)), dtype=np.int64)
    states -= 1
    return states


def emit_symbols(hidden, emissions, rng: RngStream) -> np.ndarray:
    """Draw one detector symbol per hidden state through the emission channel.

    ``emissions`` must be column-stochastic; column j is the symbol law
    under true state j.  Draws are independent across positions and use
    the same single-uniform inversion as
    :func:`~gridhmm.gaussian.sample_categorical`, consuming one uniform
    per position.
    """
    r = np.asarray(emissions, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"emissions must be 3x3, got shape {r.shape}")
    problem = _matrix_violation(r, "emissions", 0)
    if problem is not None:
        raise ValueError(problem)
    hid = _symbol_indices(hidden, "hidden")
    u = rng.random(hid.size)
    return _invert((row[hid] for row in _cumulative(r)), u).astype(np.int64) - 1


def synthesize_measurements(hidden, params: DetectorParams, rng: RngStream) -> np.ndarray:
    """Gaussian frequency measurements around each hidden state's mean.

    Consumes one Gaussian variate per position.
    """
    hid = _symbol_indices(hidden, "hidden")
    means = np.asarray(params.means)[hid]
    return sample_gaussian(means, params.sigma, rng, size=hid.size)


def accuracy(estimate, truth) -> float:
    """Fraction of positions where the estimate matches the truth."""
    a = np.asarray(estimate)
    b = np.asarray(truth)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("sequences must be non-empty")
    return float(np.mean(a == b))


class _Tables(NamedTuple):
    """Sampling tables of a validated model, built once per run."""

    cum_init: np.ndarray  # (3,) cumulative initial law
    cum_trans: np.ndarray  # (3, 3) cumulative transition rows
    cum_emit: np.ndarray  # (3, 3) cumulative emission columns

    @classmethod
    def of(cls, model: HmmModel) -> "_Tables":
        require_valid(model)
        return cls(
            _cumulative(model.initial),
            _cumulative(model.transitions, axis=1),
            _cumulative(model.emissions),
        )


def _invert(cum, u) -> np.ndarray:
    """Category index (int8, shaped like ``u``) of each uniform draw ``u``.

    Counts the entries of ``cum``, at most 127 cumulative weights that
    each broadcast against ``u``, that are <= u, one entry at a time:
    ``searchsorted(side="right")``, which skips a zero-width category
    even when u is on its boundary.
    """
    count = np.zeros(np.shape(u), dtype=np.int8)
    for c in cum:
        count += c <= u
        del c  # so that a generator's next entry is not made beside this one
    return count


def _sample_chain(tables: _Tables, u: np.ndarray, law: np.ndarray) -> np.ndarray:
    """State paths (K, T) int8 of the chain driven by the (K, T) uniforms ``u``.

    The first step inverts the cumulative law ``law`` (3,), each later
    one the transition row of the state before it.  Step k's successor
    map sends state i to ``_invert(cum_trans[i], u[k])``; its code
    ``f(0) + 3 f(1) + 9 f(2)``, which :func:`~gridhmm.viterbi._follow`
    walks, is summed one transition row at a time.
    """
    codes = sum(3**i * _invert(row, u) for i, row in enumerate(tables.cum_trans))
    return _follow(codes, _invert(law, u[0]))


def _chain(tables: _Tables, rng: RngStream, length: int):
    """One record's state indices (int8), ``_CHUNK`` steps at a time.

    Takes one uniform a step from ``rng``, a chunk at a time: the same
    draws, and the same stream state after them, as ``rng.random(length)``.
    The first chunk starts from the initial law, each later one from the
    transition row of the state the chunk before ended in, as
    :func:`~gridhmm.viterbi._follow` carries the state across its chunks:
    so the chunks joined are one chunk of ``length`` steps.
    """
    law = tables.cum_init
    for lo in range(0, length, _CHUNK):
        path = _sample_chain(tables, rng.random(min(_CHUNK, length - lo))[:, None], law)[:, 0]
        law = tables.cum_trans[path[-1]]
        yield path


def _run_batch(
    tables: _Tables, u: np.ndarray, memo: _Memo
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hidden, emitted and decoded state indices (K, T) int8 of the trials in the columns of ``u``.

    Column t of the uniforms ``u`` (2K, T) holds trial t's K state
    draws, then its K emission draws, as :func:`simulate_states` and
    :func:`emit_symbols` consume them from one stream.  Sampling and
    emitting run through the same :func:`_sample_chain` and
    :func:`_invert` as those functions.  Decoding is
    :func:`~gridhmm.viterbi._paths`, the automaton and walk of
    :func:`~gridhmm.viterbi.viterbi_decode`, over the vector of trials
    with ``memo`` (built on the same model); so every path equals
    ``viterbi_decode`` of its record, at any K, and the first infeasible
    trial raises its error.  The model is not validated here.
    """
    length = len(u) // 2
    hidden = _sample_chain(tables, u[:length], tables.cum_init)
    emitted = _invert((row[hidden] for row in tables.cum_emit), u[length:])
    return hidden, emitted, _paths(memo, emitted)


def _check_length(length) -> int:
    length = int(length)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return length


@dataclass(frozen=True)
class MonteCarloSummary:
    """Accuracy statistics over independent trials, in percentage points.

    Histograms count trials per whole percentage point, bin b covering
    [b, b+1) with a final closed bin at exactly 100.  Means and standard
    deviations are the maximum-likelihood Gaussian fit to the per-trial
    accuracies (population standard deviation).
    """

    trials: int
    ht_mean: float
    ht_std: float
    va_mean: float
    va_std: float
    histogram_ht: np.ndarray
    histogram_va: np.ndarray

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name in ("ht_mean", "va_mean"):
            v = getattr(self, name)
            if not (0.0 <= v <= 100.0):
                raise ValueError(f"{name} must lie in [0, 100], got {v!r}")
        for name in ("ht_std", "va_std"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("histogram_ht", "histogram_va"):
            h = np.asarray(getattr(self, name))
            if h.shape != (HIST_BINS,):
                raise ValueError(f"{name} must have {HIST_BINS} bins, got shape {h.shape}")
            if int(h.sum()) != self.trials:
                raise ValueError(f"{name} counts {int(h.sum())} trials, expected {self.trials}")
            object.__setattr__(self, name, h.astype(np.int64))


def _percent_stats(match_counts: np.ndarray, length: int) -> tuple[float, float, np.ndarray]:
    pct = match_counts * 100.0 / length
    # Integer floor keeps exact-percent trials in their own bin.
    bins = (match_counts * 100) // length
    hist = np.bincount(bins, minlength=HIST_BINS)
    return float(np.mean(pct)), float(np.std(pct)), hist


def run_monte_carlo(
    model: HmmModel,
    length: int,
    trials: int,
    base_seed: int,
) -> MonteCarloSummary:
    """Accuracy statistics of both estimators over independent trials.

    Trial t runs on ``RngStream(base_seed, stream_index=t)``, so the
    result is a pure function of (model, length, trials, base_seed).
    Trials go through one batched kernel, about ``_BATCH_STEPS`` steps
    (trials x length) at a time, and each trial equals
    :func:`simulate_states`, :func:`emit_symbols` and
    :func:`~gridhmm.viterbi.viterbi_decode` run on its stream.  A
    batch's draws come from :func:`~gridhmm.gaussian._stream_draws`, one
    decoder memo serves every batch, and the model is validated once.
    """
    tables = _Tables.of(model)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    length = _check_length(length)
    base_seed = _check_seed(base_seed)

    memo = _Memo(model)
    batch = max(1, _BATCH_STEPS // length)
    ht_counts = np.empty(trials, dtype=np.int64)
    va_counts = np.empty(trials, dtype=np.int64)
    for first in range(0, trials, batch):
        last = min(first + batch, trials)
        u = _stream_draws(base_seed, first, last, 2 * length)
        hidden, emitted, decoded = _run_batch(tables, u, memo)
        del u  # so that the next batch draws without it
        ht_counts[first:last] = np.count_nonzero(emitted == hidden, axis=0)
        va_counts[first:last] = np.count_nonzero(decoded == hidden, axis=0)
    ht_mean, ht_std, ht_hist = _percent_stats(ht_counts, length)
    va_mean, va_std, va_hist = _percent_stats(va_counts, length)
    return MonteCarloSummary(
        trials=trials,
        ht_mean=ht_mean,
        ht_std=ht_std,
        va_mean=va_mean,
        va_std=va_std,
        histogram_ht=ht_hist,
        histogram_va=va_hist,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Detection probabilities at one noise level.

    ``detection`` is None when the thresholds degenerate at this level
    (prior imbalance swallowing a decision region); ``note`` then says
    why.
    """

    snr_db: float
    sigma: float
    detection: tuple[float, float, float] | None
    note: str = ""


def detection_sweep(
    template: DetectorParams,
    snr_db_grid=None,
    sigma_grid=None,
) -> list[SweepPoint]:
    """Per-state detection probability across measurement noise levels.

    Exactly one grid must be given.  SNR in dB maps to noise through
    ``sigma = 10**(-snr_db / 10)``, i.e. SNR is the power ratio 1/sigma
    on the dB scale.  The template's sigma is replaced point by point;
    its means and priors are used as given.  Degenerate points are
    reported in place rather than aborting the sweep.
    """
    if (snr_db_grid is None) == (sigma_grid is None):
        raise ValueError("exactly one of snr_db_grid and sigma_grid is required")
    if snr_db_grid is not None:
        snr_db = [float(v) for v in snr_db_grid]
        if not all(math.isfinite(v) for v in snr_db):
            raise ValueError("snr_db_grid entries must be finite")
        sigmas = [10.0 ** (-v / 10.0) for v in snr_db]
    else:
        sigmas = [float(v) for v in sigma_grid]
        if not all(math.isfinite(v) and v > 0.0 for v in sigmas):
            raise ValueError("sigma_grid entries must be finite and positive")
        snr_db = [10.0 * math.log10(1.0 / v) for v in sigmas]
    if not sigmas:
        raise ValueError("the grid must contain at least one point")

    points: list[SweepPoint] = []
    for db, sg in zip(snr_db, sigmas):
        params = replace(template, sigma=sg)
        try:
            thresholds = compute_thresholds(params)
        except DegenerateThresholdsError as exc:
            points.append(SweepPoint(snr_db=db, sigma=sg, detection=None, note=str(exc)))
            continue
        probs = detection_probabilities(params, thresholds)
        points.append(
            SweepPoint(snr_db=db, sigma=sg, detection=(probs[0], probs[1], probs[2]))
        )
    return points


@dataclass(frozen=True)
class PredictionVector:
    """State occupancy distribution some number of steps ahead."""

    probs: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        problem = _vector_violation(p, "probs")
        if problem is not None:
            raise ValueError(problem)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")


def _propagate(v: np.ndarray, p: np.ndarray, steps: int):
    """Yield ``v``, then each of ``steps`` forward steps ``v <- v P`` in turn."""
    yield v
    for _ in range(steps):
        v = v @ p
        yield v


def predict(transitions, initial, horizon: int) -> PredictionVector:
    """Occupancy distribution after ``horizon`` steps of the chain.

    Applies the forward equation ``v <- v P`` once per step, so
    predicting a steps and then feeding the result forward b more steps
    reproduces the (a+b)-step prediction bit for bit.  Horizon 0 returns
    the initial distribution unchanged.
    """
    p = np.asarray(transitions, dtype=float)
    if p.shape != (3, 3):
        raise ValueError(f"transitions must be 3x3, got shape {p.shape}")
    problem = _matrix_violation(p, "transitions", 1)
    if problem is not None:
        raise ValueError(problem)
    v = np.asarray(initial, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"initial must have 3 entries, got shape {v.shape}")
    problem = _vector_violation(v, "initial")
    if problem is not None:
        raise ValueError(problem)
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    for out in _propagate(v.copy(), p, horizon):
        pass
    return PredictionVector(probs=out, horizon=horizon)


def _power_sum(p: np.ndarray, m: int) -> np.ndarray:
    """``I + P + ... + P^(m-1)`` by binary powering, in O(log m) matrix products.

    Reads the bits of m from the top, keeping ``(P^j, I + ... + P^(j-1))``
    for the prefix j read so far: a bit doubles j, a set bit adds one.
    """
    power, total = np.eye(3), np.zeros((3, 3))
    for bit in bin(m)[2:]:
        total = total + total @ power
        power = power @ power
        if bit == "1":
            total = total + power
            power = power @ p
    return total


def expected_ht_accuracy(model: HmmModel, length: int) -> float:
    """Analytic mean matching fraction of the per-symbol test.

    The test is right at step k with probability equal to the
    occupancy-weighted diagonal of the emission matrix, so the expected
    accuracy over a length-K path averages the occupancy distribution
    ``v P^k`` across steps k < K and weights the diagonal with it.  The
    sum of powers takes O(log K) matrix products.  Serves as an
    independent check on Monte Carlo estimates.
    """
    require_valid(model)
    return _expected_ht_accuracy(model, _check_length(length))


def _expected_ht_accuracy(model: HmmModel, length: int) -> float:
    """:func:`expected_ht_accuracy` of a model and length already validated."""
    occupancy = model.initial @ _power_sum(model.transitions, length) / length
    # Clamp away float drift from the matrix products; the result is a probability.
    return float(min(max(occupancy @ np.diagonal(model.emissions), 0.0), 1.0))
