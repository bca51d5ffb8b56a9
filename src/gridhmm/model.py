"""Hidden-Markov model of the deviation process.

The hidden chain moves between the three deviation states under a
row-stochastic transition matrix.  What the estimator observes is the
symbol stream produced by the threshold detector, so the emission
matrix is the detector's confusion channel: column j holds the
distribution of the emitted symbol given true state j, making the
matrix column-stochastic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import DetectorParams, compute_thresholds, q_function
from .gaussian import _matrix_violation, _vector_violation

__all__ = [
    "HmmModel",
    "InvalidModelError",
    "NonConvergenceError",
    "build_emission_matrix",
    "validate",
    "require_valid",
    "stationary_distribution",
]

N_STATES = 3

# Sup-norm change at which power iteration counts as converged.
_CONVERGENCE_TOL = 1e-12
# Power iterations before a chain counts as not converging.
_MAX_ITER = 10**6


class InvalidModelError(ValueError):
    """A model matrix failed a stochasticity or shape check."""


class NonConvergenceError(ValueError):
    """Power iteration failed to settle, e.g. on a periodic chain."""


@dataclass(frozen=True)
class HmmModel:
    """Bundle of transition matrix, emission matrix, and initial law.

    ``transitions[i, j]`` is the probability of moving from state index
    i to state index j (rows sum to 1).  ``emissions[i, j]`` is the
    probability of emitting symbol index i from true state index j
    (columns sum to 1).  ``initial`` is the distribution of the first
    state.  State/symbol index 0, 1, 2 means deviation -1, 0, +1.

    Construction only fixes shapes and dtypes; call :func:`require_valid`
    (or :func:`validate`) to check stochasticity.
    """

    transitions: np.ndarray
    emissions: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        t, r, pi = (np.array(a, dtype=float) for a in (self.transitions, self.emissions, self.initial))
        checked = _matrix(t, "transitions"), _matrix(r, "emissions"), _law(pi, "initial")
        for name, arr in zip(("transitions", "emissions", "initial"), checked):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _matrix(value, name: str, sum_axis: int | None = None) -> np.ndarray:
    """``value`` as a float 3x3 array, checked stochastic along ``sum_axis`` if one is given."""
    mat = np.asarray(value, dtype=float)
    if mat.shape != (N_STATES, N_STATES):
        raise InvalidModelError(f"{name} must be 3x3, got shape {mat.shape}")
    if sum_axis is not None and (problem := _matrix_violation(mat, name, sum_axis)):
        raise InvalidModelError(problem)
    return mat


def _law(value, name: str, stochastic: bool = False) -> np.ndarray:
    """``value`` as a float array of 3 entries, checked as a probability vector if ``stochastic``."""
    vec = np.asarray(value, dtype=float)
    if vec.shape != (N_STATES,):
        raise InvalidModelError(f"{name} must have 3 entries, got shape {vec.shape}")
    if stochastic and (problem := _vector_violation(vec, name)):
        raise InvalidModelError(problem)
    return vec


def build_emission_matrix(params: DetectorParams) -> np.ndarray:
    """Emission matrix induced by the threshold detector.

    Entry [i, j] is the probability that a measurement drawn under true
    state j classifies as symbol i, obtained from Gaussian tail masses
    of the two decision boundaries.  Each column is an exhaustive
    partition of the measurement axis, so columns sum to 1 up to
    floating-point rounding.
    """
    thr = compute_thresholds(params)
    out = np.empty((N_STATES, N_STATES))
    for j, mean in enumerate(params.means):
        tail_nz = q_function((thr.delta_neg_zero - mean) / params.sigma)
        tail_zp = q_function((thr.delta_zero_pos - mean) / params.sigma)
        out[0, j] = 1.0 - tail_nz
        out[1, j] = tail_nz - tail_zp
        out[2, j] = tail_zp
    return out


def validate(model: HmmModel) -> str | None:
    """Describe the first stochasticity violation, or return None if valid."""
    return (
        _matrix_violation(model.transitions, "transitions", 1)
        or _matrix_violation(model.emissions, "emissions", 0)
        or _vector_violation(model.initial, "initial")
    )


def require_valid(model: HmmModel) -> HmmModel:
    """Return the model unchanged or raise :class:`InvalidModelError`."""
    problem = validate(model)
    if problem is not None:
        raise InvalidModelError(problem)
    return model


def stationary_distribution(transitions) -> np.ndarray:
    """Stationary law of the chain by power iteration from uniform.

    Iterates ``v <- v P`` with renormalisation until the sup-norm change
    drops to ``_CONVERGENCE_TOL``.  Chains without a limit from the
    uniform start (periodic ones, for instance) exhaust ``_MAX_ITER`` and
    raise :class:`NonConvergenceError` rather than returning a spurious
    vector.
    """
    p = _matrix(transitions, "transitions", 1)
    v = np.full(N_STATES, 1.0 / N_STATES)
    change = np.inf
    for _ in range(_MAX_ITER):
        nxt = v @ p
        nxt /= nxt.sum()
        change = float(np.abs(nxt - v).max())
        if change <= _CONVERGENCE_TOL:
            return nxt
        v = nxt
    raise NonConvergenceError(
        f"power iteration did not converge within {_MAX_ITER} iterations "
        f"(last sup-norm change {change:.3e})"
    )
