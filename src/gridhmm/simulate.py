"""Synthetic data generation, Monte Carlo accuracy studies, and forecasting.

Reproducibility convention: every function that draws randomness takes
an :class:`~gridhmm.gaussian.RngStream` and consumes a documented
number of variates from it, so callers can reason about stream state.
The Monte Carlo driver derives one stream per trial index from a base
seed, which makes results independent of execution order.

One core serves a single record and a batch of trials alike: a uniform
becomes a category only in :func:`~gridhmm.gaussian._invert`, and both
the sampled chain and the Viterbi path come from a successor table (the
state at each step given each state at the step before) built by array
operations.  :func:`~gridhmm.viterbi._follow` turns a table into paths
by a prefix scan over the composed successor maps, with no per-step
Python loop.  In a batch each trial reads its own stream in the order of
:func:`simulate_states` and :func:`emit_symbols`, and every sum is
formed in the same order, so the output equals running the trials one
by one, bit for bit.
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
from .gaussian import RngStream, _cumulative, _invert, _matrix_violation, _vector_violation
from .gaussian import sample_gaussian
from .model import HmmModel, require_valid
from .viterbi import _follow, _log_params, _successors, _symbol_indices

__all__ = [
    "HIST_BINS",
    "simulate_states",
    "emit_symbols",
    "synthesize_measurements",
    "accuracy",
    "TrialResult",
    "run_trial",
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

# Steps (trials x K) per batch of the Monte Carlo kernel.  Its working
# arrays peak at about 140 bytes per step, so a batch needs about half a
# megabyte, while the vector operations across trials (40 of them at
# K=100) still amortise the per-step interpreter overhead.  A batch
# holds at least one trial, however long.
_BATCH_STEPS = 2**12


def simulate_states(model: HmmModel, length: int, rng: RngStream) -> np.ndarray:
    """Sample a hidden deviation path of the given length.

    The first state comes from the initial distribution, each later one
    from the transition row of its predecessor.  Consumes exactly
    ``length`` uniforms from the stream.  Returns symbols in {-1, 0, 1}.
    """
    tables = _Tables.of(model)
    length = _check_length(length)
    u = rng.generator.random(length)
    return _sample_chain(tables, u[:, None])[0].astype(np.int64) - 1


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
    u = rng.generator.random(hid.size)
    return _invert(_cumulative(r)[:, hid], u).astype(np.int64) - 1


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


@dataclass(frozen=True)
class TrialResult:
    """One simulated trial with both estimators applied to it.

    ``ht_accuracy`` scores the memoryless per-symbol hypothesis test
    (the emitted symbols themselves, since they are the test's output);
    ``va_accuracy`` scores the Viterbi sequence estimate.
    """

    hidden: np.ndarray
    emitted: np.ndarray
    decoded: np.ndarray
    ht_accuracy: float
    va_accuracy: float


class _Tables(NamedTuple):
    """Sampling and decoding tables of a validated model, built once per run."""

    cum_init: np.ndarray  # (3,) cumulative initial law
    cum_trans: np.ndarray  # (3, 3) cumulative transition rows
    cum_emit: np.ndarray  # (3, 3) cumulative emission columns
    log_init: np.ndarray
    log_trans: np.ndarray
    log_emit: np.ndarray

    @classmethod
    def of(cls, model: HmmModel) -> "_Tables":
        require_valid(model)
        return cls(
            _cumulative(model.initial),
            _cumulative(model.transitions, axis=1),
            _cumulative(model.emissions),
            *_log_params(model),
        )


def _sample_chain(tables: _Tables, u: np.ndarray) -> np.ndarray:
    """State paths (T, K) of the chain driven by the (K, T) uniforms ``u``."""
    first = _invert(tables.cum_init[:, None], u[0])
    # successor[k, i, t]: the state at step k of record t when step k-1 is in state i.
    successor = _invert(tables.cum_trans.T[:, None, :, None], u[:, None, :])
    return _follow(successor, first)


def _run_batch(
    tables: _Tables, length: int, streams: list[RngStream]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hidden, emitted and decoded state indices (T, K) int8, one trial per stream.

    Each stream supplies K uniforms for the states, then K for the
    emissions, as :func:`simulate_states` and :func:`emit_symbols` draw
    them, and sampling and decoding run through the same inversion,
    successor tables and prefix scan as those functions and
    :func:`~gridhmm.viterbi.viterbi_decode`.  Only the backward pass is
    the kernel's own: a loop over K on whole trial vectors that adds
    ``log_trans + (log_emit[x] + to_go)`` in the scalar loop's order.
    The model is not validated here.
    """
    n_trials = len(streams)
    u_state = np.empty((n_trials, length))
    u_emit = np.empty((n_trials, length))
    for t, rng in enumerate(streams):
        rng.generator.random(out=u_state[t])
        rng.generator.random(out=u_emit[t])

    hidden = _sample_chain(tables, u_state.T)
    emitted = _invert(tables.cum_emit[:, hidden], u_emit)

    log_init, log_trans, log_emit = tables.log_init, tables.log_trans, tables.log_emit
    x = emitted.T
    le = log_emit.T[:, x].transpose(1, 0, 2)  # le[k, j, t] = log_emit[x[k, t], j]
    # to_go[k, j, t]: best log score of the path suffix after step k, given state j at k.
    to_go = np.zeros((length, 3, n_trials))
    trans_ji = log_trans.T[:, :, None]
    for k in range(length - 2, -1, -1):
        cand = trans_ji + (le[k + 1] + to_go[k + 1])[:, None, :]  # cand[j, i, t]: from i into j
        cand.max(axis=0, out=to_go[k])

    return hidden, emitted, _follow(*_successors(log_init, log_trans, log_emit, x, to_go))


def _check_length(length) -> int:
    length = int(length)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return length


def run_trial(model: HmmModel, length: int, rng: RngStream) -> TrialResult:
    """Simulate one hidden path, emit symbols, decode, and score both ways.

    Equals :func:`simulate_states`, then :func:`emit_symbols`, then
    :func:`~gridhmm.viterbi.viterbi_decode` on ``rng``, and consumes the
    same ``2 * length`` uniforms from it.
    """
    tables = _Tables.of(model)
    length = _check_length(length)
    batch = _run_batch(tables, length, [rng])
    hidden, emitted, decoded = (a[0].astype(np.int64) - 1 for a in batch)
    return TrialResult(
        hidden=hidden,
        emitted=emitted,
        decoded=decoded,
        ht_accuracy=accuracy(emitted, hidden),
        va_accuracy=accuracy(decoded, hidden),
    )


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
    (trials x length) at a time, and each trial's result equals
    :func:`run_trial` on its stream.  The model is validated once per
    call.
    """
    tables = _Tables.of(model)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    length = _check_length(length)

    batch = max(1, _BATCH_STEPS // length)
    ht_counts = np.empty(trials, dtype=np.int64)
    va_counts = np.empty(trials, dtype=np.int64)
    for first in range(0, trials, batch):
        last = min(first + batch, trials)
        streams = [RngStream(base_seed, stream_index=t) for t in range(first, last)]
        hidden, emitted, decoded = _run_batch(tables, length, streams)
        ht_counts[first:last] = np.count_nonzero(emitted == hidden, axis=1)
        va_counts[first:last] = np.count_nonzero(decoded == hidden, axis=1)
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
