"""Synthetic data generation, Monte Carlo accuracy studies, and forecasting.

Reproducibility convention: every function that draws randomness takes
an :class:`~gridhmm.gaussian.RngStream` and consumes a documented
number of variates from it, so callers can reason about stream state.
The Monte Carlo driver derives one stream per trial index from a base
seed, a batch's side by side (:func:`_streams`), which makes results
independent of execution order.

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
A record and a batch alike are sampled by :func:`_chain` a ``_CHUNK``
of steps at a time, a batch emitting each chunk as it is sampled, and a
trial equals :func:`simulate_states`, :func:`emit_symbols` and
``viterbi_decode`` run on its own stream, bit for bit.
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
from .gaussian import RngStream, _check_seed, _cumulative, sample_gaussian
from .model import HmmModel, _law, _matrix, require_valid
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

# Steps (trials x K) per batch of the Monte Carlo kernel.  A batch peaks
# at 33 bytes a step (traced at K=100 and 1000) while it draws a chunk's
# emissions: 8 of uniforms and 21 of temporaries in pieces of
# gaussian._PIECE elements, beside the int8 columns and path (3); the
# chain's stream (7) is freed after its last draw, and viterbi._follow's
# temporaries (18) stay below.  So a batch needs about 0.55 MB, while
# the vector operations across trials (163 at K=100) amortise the
# per-step interpreter overhead.  A batch holds at least one trial,
# however long, sampled a chunk at a time; a batch of one trial is
# decoded by the scalar loop of viterbi_decode.
_BATCH_STEPS = 2**14


def simulate_states(model: HmmModel, length: int, rng: RngStream) -> np.ndarray:
    """Sample a hidden deviation path of the given length.

    The first state comes from the initial distribution, each later one
    from the transition row of its predecessor.  Consumes exactly
    ``length`` uniforms from the stream.  Returns symbols in {-1, 0, 1}.
    """
    tables = _Tables.of(model)
    length = _check_length(length)
    chunks = _chain(tables, rng._rows, length)
    states = np.concatenate([path[:, 0] for _, path in chunks], dtype=np.int64)
    states -= 1
    return states


def emit_symbols(hidden, emissions, rng: RngStream) -> np.ndarray:
    """Draw one detector symbol per hidden state through the emission channel.

    ``emissions`` must be column-stochastic; column j is the symbol law
    under true state j.  Draws are independent across positions and use
    the same single-uniform inversion as
    :func:`~gridhmm.gaussian.sample_categorical`, consuming one uniform
    per position.  Other ``emissions`` raise InvalidModelError (a ValueError).
    """
    r = _matrix(emissions, "emissions", 0)
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


def _chain(tables: _Tables, draw, length: int):
    """Yield ``(lo, path)``, the state paths (n, T) int8 of steps ``lo .. lo + n - 1``, a ``_CHUNK`` at a time.

    ``draw(n)`` gives the next n steps' uniforms (n, T), a column a record.
    Step k's successor map sends state i to ``_invert(cum_trans[i], u[k])``;
    its code ``f(0) + 3 f(1) + 9 f(2)``, which :func:`~gridhmm.viterbi._follow`
    walks, is summed one transition row at a time.  The first step inverts
    the initial law, a later chunk's the transition rows of the states the
    chunk before ended in, as ``_follow`` carries states across its chunks:
    so the chunks joined are one chunk of ``length`` steps.
    """
    law = tables.cum_init
    for lo in range(0, length, _CHUNK):
        u = draw(min(_CHUNK, length - lo))
        if lo + _CHUNK >= length:
            del draw  # the last draw: the caller may free its stream while it works on the path
        codes = sum(3**i * _invert(row, u) for i, row in enumerate(tables.cum_trans))
        first = _invert(law, u[0])
        del u  # so that _follow, and the caller's work on the path, run without it
        path = _follow(codes, first)
        law = tables.cum_trans[path[-1]].T
        yield lo, path


def _run_batch(
    tables: _Tables, draws, length: int, trials: int, memo: _Memo
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hidden, emitted and decoded state indices (K, T) int8 of T trials.

    ``draws`` is the pair ``(chain, emissions)``, each a ``draw(n)``, the
    next n uniforms (n, T), sampled a chunk at a time as by
    :func:`simulate_states` and :func:`emit_symbols`.  The chain's is
    dropped after its last draw, before the last chunk's emissions are
    drawn, and the emissions' before the decode: so a caller that passes
    the only references frees each stream's state and words by then.
    Decoding is :func:`~gridhmm.viterbi._paths`, the automaton and walk
    of :func:`~gridhmm.viterbi.viterbi_decode`, over the vector of
    trials with ``memo`` (built on the same model); so every path equals
    ``viterbi_decode`` of its record, at any K, and the first infeasible
    trial raises its error.  The model is not validated here.
    """
    # Allocated before any draw, so that a batch too large fails at once.
    hidden, emitted = np.empty((2, length, trials), dtype=np.int8)
    chain, emissions = draws
    chunks = _chain(tables, chain, length)
    del draws, chain  # _chain drops its draw after the last one
    for lo, path in chunks:
        hi = lo + len(path)
        hidden[lo:hi] = path
        emitted[lo:hi] = _invert((row[path] for row in tables.cum_emit), emissions(hi - lo))
    del emissions
    return hidden, emitted, _paths(memo, emitted)


def _streams(seed: int, first: int, last: int, length: int) -> tuple[RngStream, ...]:
    """``RngStream(seed, t)``, t in ``first..last-1``, side by side: from word 0, and after the chain's ``length``."""
    return tuple(RngStream._side_by_side(seed, first, last, start) for start in (0, length))


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
    :func:`~gridhmm.viterbi.viterbi_decode` run on its stream.  One
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
        # The draws go unnamed: _run_batch holds their only references and drops them to decode.
        hidden, emitted, decoded = _run_batch(
            tables,
            tuple(stream._rows for stream in _streams(base_seed, first, last, length)),
            length,
            last - first,
            memo,
        )
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
        p = _law(self.probs, "probs", stochastic=True)
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
    the initial distribution unchanged.  Raises InvalidModelError (a ValueError) unless
    ``transitions`` is a row-stochastic 3x3 matrix and ``initial`` a law of 3 entries.
    """
    p = _matrix(transitions, "transitions", 1)
    v = _law(initial, "initial", stochastic=True)
    horizon = int(horizon)
    for out in _propagate(v.copy(), p, horizon):
        pass
    return PredictionVector(probs=out, horizon=horizon)  # which rejects a negative horizon


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
