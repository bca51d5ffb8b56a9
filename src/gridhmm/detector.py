"""Three-hypothesis maximum-likelihood detection of frequency deviation.

The grid frequency is modelled as sitting at one of three levels: a
negative deviation, the nominal value, or a positive deviation.  Under
each hypothesis a measurement is Gaussian around that level with common
standard deviation sigma.  Maximising the posterior over the three
hypotheses reduces to comparing the measurement against two scalar
thresholds, computed here in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import SUM_TOL, probability, q_function

__all__ = [
    "STATES",
    "DetectorParams",
    "Thresholds",
    "DegenerateThresholdsError",
    "compute_thresholds",
    "classify",
    "error_probabilities",
    "detection_probabilities",
]

# Deviation symbols in fixed order; index i maps to symbol STATES[i].
STATES = (-1, 0, 1)


class DegenerateThresholdsError(ValueError):
    """The two decision thresholds collapsed or crossed.

    Happens when a prior imbalance outweighs the mean separation at the
    given noise level, leaving one hypothesis with an empty decision
    region.
    """


@dataclass(frozen=True)
class DetectorParams:
    """Measurement model: one Gaussian mean per deviation state.

    ``m_neg < m_zero < m_pos`` is required (strictly), sigma must be
    positive, and the three prior weights must be strictly positive and
    sum to 1 within ``SUM_TOL``.  Zero priors are rejected because the log
    prior ratio enters the thresholds.
    """

    m_neg: float
    m_zero: float
    m_pos: float
    sigma: float
    priors: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self) -> None:
        for name in ("m_neg", "m_zero", "m_pos", "sigma"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, v)
        if not (self.m_neg < self.m_zero < self.m_pos):
            raise ValueError(
                "means must be strictly increasing, got "
                f"({self.m_neg}, {self.m_zero}, {self.m_pos})"
            )
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        pri = tuple(float(p) for p in self.priors)
        if len(pri) != 3:
            raise ValueError(f"priors must have three entries, got {len(pri)}")
        for p in pri:
            if not (math.isfinite(p) and p > 0.0):
                raise ValueError(f"priors must be strictly positive, got {pri}")
        total = pri[0] + pri[1] + pri[2]
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"priors must sum to 1 within {SUM_TOL}, got sum {total!r}")
        object.__setattr__(self, "priors", pri)

    @property
    def means(self) -> tuple[float, float, float]:
        return (self.m_neg, self.m_zero, self.m_pos)


@dataclass(frozen=True)
class Thresholds:
    """Ordered pair of decision boundaries on the measurement axis."""

    delta_neg_zero: float
    delta_zero_pos: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_neg_zero", float(self.delta_neg_zero))
        object.__setattr__(self, "delta_zero_pos", float(self.delta_zero_pos))
        if not (self.delta_neg_zero < self.delta_zero_pos):
            raise DegenerateThresholdsError(
                "thresholds must be strictly ordered, got "
                f"delta_neg_zero={self.delta_neg_zero!r}, "
                f"delta_zero_pos={self.delta_zero_pos!r}"
            )


def compute_thresholds(params: DetectorParams) -> Thresholds:
    """Decision thresholds of the three-hypothesis maximum-likelihood test.

    Each threshold is the midpoint of the adjacent means plus a prior
    correction ``ln(prior_left / prior_right) * sigma^2 / gap``.  Equal
    adjacent priors make the correction exactly zero, so the threshold
    is exactly the midpoint.
    """
    p_neg, p_zero, p_pos = params.priors
    var = params.sigma * params.sigma
    d_nz = (params.m_neg + params.m_zero) / 2.0 + math.log(p_neg / p_zero) * var / (
        params.m_zero - params.m_neg
    )
    d_zp = (params.m_zero + params.m_pos) / 2.0 + math.log(p_zero / p_pos) * var / (
        params.m_pos - params.m_zero
    )
    return Thresholds(d_nz, d_zp)


def classify(z, thresholds: Thresholds):
    """Map measurements to deviation symbols by the threshold test.

    Below ``delta_neg_zero`` classifies as -1, the half-open middle band
    ``[delta_neg_zero, delta_zero_pos)`` as 0, and values at or above
    ``delta_zero_pos`` as +1; a measurement exactly on a boundary goes
    to the region on its right.  Accepts a scalar or an array and
    returns an int or an int64 array to match.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("measurements must be finite")
    edges = (thresholds.delta_neg_zero, thresholds.delta_zero_pos)
    symbols = np.digitize(arr, edges)
    symbols -= 1
    if arr.ndim == 0:
        return int(symbols)
    return symbols.astype(np.int64, copy=False)


def error_probabilities(params: DetectorParams, thresholds: Thresholds) -> np.ndarray:
    """Probability of misclassifying a measurement, per true state.

    Entry i is the probability that a measurement drawn under state
    ``STATES[i]`` falls outside that state's decision region.
    """
    d_nz = thresholds.delta_neg_zero
    d_zp = thresholds.delta_zero_pos
    s = params.sigma
    p_neg = q_function((d_nz - params.m_neg) / s)
    p_zero = 1.0 - (q_function((d_nz - params.m_zero) / s) - q_function((d_zp - params.m_zero) / s))
    p_pos = 1.0 - q_function((d_zp - params.m_pos) / s)
    return np.array([probability(p_neg), probability(p_zero), probability(p_pos)])


def detection_probabilities(params: DetectorParams, thresholds: Thresholds) -> np.ndarray:
    """Per-state probability of classifying correctly, the complement of
    :func:`error_probabilities` entry by entry."""
    return 1.0 - error_probabilities(params, thresholds)
