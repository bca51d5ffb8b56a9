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
    i, is the smallest j with ``c_j >= max(c_0, c_1, c_2) - TIE_EPS``,
    where ``c_j = (log_trans[i, j] + log_emit[x[k, t], j]) + to_go[k, j, t]``.
    The three columns are compared directly, in that order.  Row 0
    stays 0.  Chunks of ``_CHUNK`` steps keep the temporaries small.
    """
    n, records = x.shape
    choice = np.zeros((n, 3, records), dtype=np.int8)
    for start in range(1, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        le = log_emit.T[:, x[start:stop]]  # le[j, k, t] = log_emit[x[k, t], j]
        tg = to_go[start:stop]
        for i, row in enumerate(log_trans.tolist()):
            c0, c1, c2 = ((row[j] + le[j]) + tg[:, j] for j in range(3))
            top = np.maximum(np.maximum(c0, c1), c2)
            top -= TIE_EPS
            choice[start:stop, i] = np.where(c0 >= top, 0, np.where(c1 >= top, 1, 2))
    return choice


# Successor maps of the three states are coded c = f(0) + 3 f(1) + 9 f(2);
# _MAPS[c] is (f(0), f(1), f(2)).  _COMPOSE[27 * a + b] is the code of
# i -> a(b(i)).  The constant map to state j has code 13 j, and
# _STATE[13 * j] is j.  Built from Python ints: numpy's integer division
# and matmul loops would add about 0.4 MB of code pages to every process.
_MAPS = [[c // 3**i % 3 for i in range(3)] for c in range(27)]
_COMPOSE = np.array(
    [a[b[0]] + 3 * a[b[1]] + 9 * a[b[2]] for a in _MAPS for b in _MAPS], dtype=np.intp
)
_STATE = np.array([f[0] for f in _MAPS], dtype=np.int8)


def _follow(table: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Paths (T, K) int8 with ``path[t, k] = table[k, path[t, k-1], t]`` from ``first``.

    Step k's successor map ``i -> table[k, i, t]`` is coded as a number
    in 0..26; composing maps is a lookup in ``_COMPOSE``.  Composition is
    associative, so the maps from step 0 to every step come out of a
    Hillis-Steele prefix scan: ceil(log2 m) rounds over a chunk of m
    steps, each a few whole-array operations.  A chunk covers ``_CHUNK``
    steps and starts with the constant map to the state the previous
    chunk ended in (to ``first`` for the first chunk), so every prefix is
    a constant map to the state at its step.
    """
    n, _, records = table.shape
    path = np.empty((records, n), dtype=np.int8)
    path[:, 0] = first
    for start in range(1, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        step = table[start:stop]
        codes = np.empty((stop - start + 1, records), dtype=np.intp)
        codes[0] = 13 * path[:, start - 1]
        codes[1:] = step[:, 0] + 3 * step[:, 1] + 9 * step[:, 2]
        shift = 1
        while shift < len(codes):
            codes[shift:] = _COMPOSE.take(codes[shift:] * 27 + codes[:-shift])
            shift *= 2
        path[:, start:stop] = _STATE.take(codes[1:]).T
    return path


def _successors(log_init, log_trans, log_emit, x: np.ndarray, to_go: np.ndarray):
    """Successor table (K, 3, T) and first states (T,) of the decoded paths.

    ``x`` holds the symbol indices (K, T) and ``to_go`` the scores to go
    (K, 3, T) of T records.  The first state is the smallest within
    ``TIE_EPS`` of the best total score; :func:`_choices` gives the
    table, and :func:`_follow` turns both into the paths.  Raises
    :class:`InfeasibleObservationError` for the first record that no
    state sequence can produce.
    """
    head = log_init[:, None] + log_emit[x[0]].T + to_go[0]
    best = head.max(axis=0)
    dead = np.flatnonzero(~np.isfinite(best))
    if dead.size:
        raise _infeasible(x[:, dead[0]], log_init, log_trans, log_emit)
    first = np.argmax(head >= best - TIE_EPS, axis=0)
    return _choices(log_trans, log_emit, x, to_go), first


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
    each maximum, taken by two ``>=`` comparisons, picks the same value:
    the scores are the same bit for bit, and only the per-step array
    dispatch is gone.  Its rows are packed into one bytearray, never
    into lists of float objects, and freed once :func:`_successors` has
    built the successor table from them.  :func:`_follow` then walks the
    table, as it does for the Monte Carlo kernel, for a batch of one
    record.
    """
    x = _symbol_indices(symbols, "symbols").astype(np.int8)
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
            u0 = a00 + s0
            u1 = a01 + s1
            u2 = a02 + s2
            t0 = u0 if u0 >= u1 else u1
            t0 = t0 if t0 >= u2 else u2
            u0 = a10 + s0
            u1 = a11 + s1
            u2 = a12 + s2
            t1 = u0 if u0 >= u1 else u1
            t1 = t1 if t1 >= u2 else u2
            u0 = a20 + s0
            u1 = a21 + s1
            u2 = a22 + s2
            t2 = u0 if u0 >= u1 else u1
            t2 = t2 if t2 >= u2 else u2
            offset += 24
            pack_into(rows, offset, t0, t1, t2)
    to_go = np.frombuffer(rows).reshape(n, 3, 1)[::-1]
    table, first = _successors(log_init, log_trans, log_emit, x[:, None], to_go)
    del to_go, rows
    return np.subtract(_follow(table, first)[0], 1, dtype=np.int64)


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
