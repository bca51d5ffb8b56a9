"""Maximum-likelihood sequence estimation over the symbol channel.

Given the emitted symbol stream, the decoder finds a hidden state
sequence maximising the joint probability of states and symbols under
the model: initial weight, one emission factor per step, one transition
factor per step after the first.  All scoring happens in the log domain
with -inf standing for zero-probability factors.

Tie handling is part of the contract: among all maximising sequences
the lexicographically smallest (under -1 < 0 < +1) is returned.  Two
distinct optimal sequences can have genuinely equal scores, e.g. when
they use the same multiset of factors in a different order, but the two
log-sums then typically differ by a few ulp because float addition is
not associative.  Scores within ``TIE_EPS`` of the running optimum are
therefore treated as ties; the window is far above accumulated rounding
noise and far below any genuine score gap at these sequence lengths.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import HmmModel, require_valid

__all__ = [
    "TIE_EPS",
    "BRUTE_FORCE_MAX_LEN",
    "InfeasibleObservationError",
    "Trellis",
    "joint_log_prob",
    "compute_trellis",
    "viterbi_decode",
    "brute_force_mlse",
]

# Absolute log-domain window within which path scores count as tied.
TIE_EPS = 1e-9

# Steps per chunk of the vectorised choice table: for one record the
# array temporaries stay near 0.4 MB each, however long the record.
_CHUNK = 2**14

# Enumeration guard: 3^12 sequences is the most brute_force_mlse will score.
BRUTE_FORCE_MAX_LEN = 12


def _max3(a: float, b: float, c: float) -> float:
    """The largest of three floats; log scores are never NaN, so numpy's max agrees."""
    m = a if a >= b else b
    return m if m >= c else c


class InfeasibleObservationError(ValueError):
    """Every state sequence has probability zero for the observations."""


def _symbol_indices(seq, name: str) -> np.ndarray:
    arr = np.asarray(seq)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = np.asarray(seq, dtype=np.int64)
        if not np.array_equal(as_int, np.asarray(seq)):
            raise ValueError(f"{name} must contain integers in {{-1, 0, 1}}")
        arr = as_int
    if arr.min() < -1 or arr.max() > 1:
        raise ValueError(f"{name} entries must lie in {{-1, 0, 1}}")
    return (arr + 1).astype(np.int64)


def _log_params(model: HmmModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore"):
        return (
            np.log(model.initial),
            np.log(model.transitions),
            np.log(model.emissions),
        )


def joint_log_prob(symbols, states, model: HmmModel) -> float:
    """Log joint probability of a state sequence and a symbol sequence.

    Sums the log initial weight of the first state, one log emission
    term per step, and one log transition term per adjacent state pair.
    Returns -inf when any factor is zero.
    """
    x = _symbol_indices(symbols, "symbols")
    s = _symbol_indices(states, "states")
    if x.shape != s.shape:
        raise ValueError(f"length mismatch: {x.size} symbols vs {s.size} states")
    log_init, log_trans, log_emit = _log_params(model)
    total = log_init[s[0]] + np.sum(log_emit[x, s]) + np.sum(log_trans[s[:-1], s[1:]])
    return float(total)


@dataclass(frozen=True)
class Trellis:
    """Forward dynamic-programming lattice for one observation sequence.

    ``log_scores[k, j]`` is the best log joint score over state prefixes
    ending in state index j after observation k.  ``backpointers[k, j]``
    is the predecessor symbol (-1, 0, +1) achieving it, with the
    smallest symbol kept on exact score ties; row 0 has no predecessor
    and is left as 0.
    """

    log_scores: np.ndarray
    backpointers: np.ndarray


def compute_trellis(symbols, model: HmmModel) -> Trellis:
    """Forward pass: best-prefix scores and predecessor choices per step."""
    x = _symbol_indices(symbols, "symbols")
    require_valid(model)
    log_init, log_trans, log_emit = _log_params(model)
    n = x.size
    scores = np.empty((n, 3))
    back = np.zeros((n, 3), dtype=np.int8)
    scores[0] = log_init + log_emit[x[0]]
    for k in range(1, n):
        cand = scores[k - 1][:, None] + log_trans  # cand[i, j]: from i into j
        best = cand.argmax(axis=0)
        scores[k] = cand[best, np.arange(3)] + log_emit[x[k]]
        back[k] = best - 1
    return Trellis(scores, back)


def _infeasible(x: np.ndarray, log_init, log_trans, log_emit) -> InfeasibleObservationError:
    """Error citing the first step at which no state is reachable.

    A scalar forward pass over the symbol indices ``x`` keeps the states
    that some positive-probability prefix ends in as a 3-bit mask;
    ``step[mask][s]`` is the mask one step later, at symbol index s.
    The first empty mask is the first all -inf row of
    :func:`compute_trellis`.
    """
    live_emit = np.isfinite(log_emit)  # live_emit[s, j]: state j can emit symbol s
    bits = 1 << np.arange(3)
    members = (np.arange(8)[:, None] & bits) > 0  # members[mask, i]: state i is in mask
    reach = (members[:, :, None] & np.isfinite(log_trans)).any(axis=1)  # reach[mask, j]
    step = ((reach[:, None, :] & live_emit) @ bits).tolist()
    mask = int((np.isfinite(log_init) & live_emit[x[0]]) @ bits)
    dead = 0
    for s in x[1:].tolist():
        if not mask:
            break
        mask = step[mask][s]
        dead += 1
    return InfeasibleObservationError(
        f"no state sequence has positive probability; every path dies at step {dead}"
    )


def _choices(log_trans, log_emit, x: np.ndarray, to_go: np.ndarray) -> np.ndarray:
    """Successor table (K, 3, T) int8 of the decoded paths of T records.

    ``choice[k, i, t]``, the state at step k when step k-1 is in state
    i, is the smallest j within ``TIE_EPS`` of the best of
    ``(log_trans[i, j] + log_emit[x[k, t], j]) + to_go[k, j, t]``.  Row
    0 stays 0.  Chunks of ``_CHUNK`` steps keep the temporaries small.
    """
    n, records = x.shape
    choice = np.zeros((n, 3, records), dtype=np.int8)
    for start in range(1, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        le = log_emit.T[:, x[start:stop]].transpose(1, 0, 2)  # le[k, j, t] = log_emit[x[k, t], j]
        for i in range(3):
            cand = log_trans[i][:, None] + le + to_go[start:stop]  # cand[k, j, t]: i into j
            tied = cand >= cand.max(axis=1, keepdims=True) - TIE_EPS
            choice[start:stop, i] = np.argmax(tied, axis=1)
    return choice


def _follow(table: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Paths (T, K) int8 with ``path[t, k] = table[k, path[t, k-1], t]`` from ``first``.

    Each record walks a ``bytes`` copy of its own (K, 3) slice of the
    (K, 3, T) successor table.
    """
    n, _, records = table.shape
    out = bytearray()
    for t, j in enumerate(first.tolist()):
        steps = table[:, :, t].tobytes()
        path = bytearray((j,))
        for k in range(3, 3 * n, 3):
            j = steps[k + j]
            path.append(j)
        out += path
    return np.frombuffer(out, dtype=np.int8).reshape(records, n)


def _decode_paths(log_init, log_trans, log_emit, x: np.ndarray, to_go: np.ndarray) -> np.ndarray:
    """Decoded paths (T, K) from symbol indices x (K, T) and to_go (K, 3, T).

    The first state is the smallest within ``TIE_EPS`` of the best
    total score; :func:`_choices` and :func:`_follow` give the rest.
    Raises :class:`InfeasibleObservationError` for the first record that
    no state sequence can produce.
    """
    head = log_init[:, None] + log_emit[x[0]].T + to_go[0]
    best = head.max(axis=0)
    dead = np.flatnonzero(~np.isfinite(best))
    if dead.size:
        raise _infeasible(x[:, dead[0]], log_init, log_trans, log_emit)
    first = np.argmax(head >= best - TIE_EPS, axis=0)
    return _follow(_choices(log_trans, log_emit, x, to_go), first)


def viterbi_decode(symbols, model: HmmModel) -> np.ndarray:
    """Most likely hidden state sequence for the observed symbols.

    Runs in O(K) time and memory over the three-state trellis.  Among
    equally scoring optima (within ``TIE_EPS``) the lexicographically
    smallest sequence wins.  Lexicographic selection needs the score-to-go
    from each state, so the recursion runs backward and the sequence is
    then built front to back, at each step taking the smallest state
    that still achieves the optimum.  Raises
    :class:`InfeasibleObservationError` when no sequence has positive
    probability.

    The backward pass is a loop over Python floats.  They are IEEE
    doubles like numpy's float64, so each addition rounds exactly as in
    the array form ``log_trans + (log_emit[x[k+1]] + to_go[k+1])`` and
    each maximum picks the same value: the scores are the same bit for
    bit, and only the per-step array dispatch is gone.  Its rows are
    packed into one bytearray, never into lists of float objects.  The
    path is rebuilt by :func:`_decode_paths`, the Monte Carlo kernel's
    reconstruction, for a batch of one record.
    """
    x = _symbol_indices(symbols, "symbols")
    require_valid(model)
    log_init, log_trans, log_emit = _log_params(model)
    n = x.size

    # to_go[k, j]: best log score of the path suffix after step k, given state j at k.
    # Rows are written from step n-1 (all zero) back to step 0, reading the
    # symbols x[n-1], ..., x[1] in reversed slices of _CHUNK steps.
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = log_trans.tolist()
    emit = log_emit.tolist()
    t0 = t1 = t2 = 0.0
    pack_into = struct.Struct("3d").pack_into
    rows = bytearray(24 * n)
    offset = 0
    for stop in range(n - 1, 0, -_CHUNK):
        for e0, e1, e2 in map(emit.__getitem__, x[stop : max(stop - _CHUNK, 0) : -1].tolist()):
            s0 = e0 + t0
            s1 = e1 + t1
            s2 = e2 + t2
            t0 = _max3(a00 + s0, a01 + s1, a02 + s2)
            t1 = _max3(a10 + s0, a11 + s1, a12 + s2)
            t2 = _max3(a20 + s0, a21 + s1, a22 + s2)
            offset += 24
            pack_into(rows, offset, t0, t1, t2)
    to_go = np.frombuffer(rows).reshape(n, 3, 1)[::-1]
    path = _decode_paths(log_init, log_trans, log_emit, x[:, None], to_go)
    return path[0].astype(np.int64) - 1


def brute_force_mlse(symbols, model: HmmModel) -> np.ndarray:
    """Reference decoder: score every one of the 3^K state sequences.

    Exists as an independent check on :func:`viterbi_decode`; refuses
    sequences longer than ``BRUTE_FORCE_MAX_LEN``.  Applies the same
    tie rule: first sequence in lexicographic order whose score is
    within ``TIE_EPS`` of the maximum.
    """
    x = _symbol_indices(symbols, "symbols")
    require_valid(model)
    n = x.size
    if n > BRUTE_FORCE_MAX_LEN:
        raise ValueError(
            f"brute-force enumeration is limited to {BRUTE_FORCE_MAX_LEN} steps, got {n}"
        )
    log_init, log_trans, log_emit = _log_params(model)
    count = 3**n
    # seqs rows enumerate state-index sequences in lexicographic order.
    seqs = np.empty((count, n), dtype=np.int8)
    base = np.arange(count)
    for k in range(n):
        seqs[:, k] = (base // 3 ** (n - 1 - k)) % 3
    idx = seqs.astype(np.int64)
    scores = log_init[idx[:, 0]] + log_emit[x[0], idx[:, 0]]
    for k in range(1, n):
        scores = scores + log_trans[idx[:, k - 1], idx[:, k]] + log_emit[x[k], idx[:, k]]
    top = float(scores.max())
    if not np.isfinite(top):
        raise _infeasible(x, log_init, log_trans, log_emit)
    winner = int(np.argmax(scores >= top - TIE_EPS))
    return idx[winner] - 1
