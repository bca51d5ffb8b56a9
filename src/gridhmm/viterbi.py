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
therefore treated as ties.  The decoder subtracts the maximum of the
score to go at every step, so the window compares normalised scores of
O(1) size, whose float spacing stays far below it however long the
record.  On raw sums, which grow linearly with K, it would not: past
about 1e7 in magnitude their spacing exceeds ``TIE_EPS``.
"""
from __future__ import annotations

import math
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

# Rows of normalised score to go that the decoder's memo holds before it
# is cleared; sparse random models reach about 13,000 in 2e5 steps.
_MEMO_ROWS = 2**16

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


def _choices(log_trans, le: np.ndarray, to_go: np.ndarray) -> np.ndarray:
    """Successor table (K, 3, T) int8 of the decoded paths of T records.

    ``le[k, j, t]`` is the log emission weight of state j for the symbol
    of record t at step k, gathered by the caller, and ``to_go[k, j, t]``
    the score to go from state j at that step.  ``choice[k, i, t]``, the
    state at step k when step k-1 is in state i, is the smallest j with
    ``c_j >= max(c_0, c_1, c_2) - TIE_EPS``, where
    ``c_j = (log_trans[i, j] + le[k, j, t]) + to_go[k, j, t]``.  The three
    columns are compared directly, in that order.  Row 0 stays 0.
    Chunks of ``_CHUNK`` steps keep the temporaries small.
    """
    n, _, records = le.shape
    choice = np.zeros((n, 3, records), dtype=np.int8)
    for start in range(1, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        e, tg = le[start:stop], to_go[start:stop]
        for i, row in enumerate(log_trans.tolist()):
            c0, c1, c2 = ((row[j] + e[:, j]) + tg[:, j] for j in range(3))
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


def _code(table: np.ndarray) -> np.ndarray:
    """Codes (K, T) int8 of the successor maps ``i -> table[k, i, t]`` of a (K, 3, T) table."""
    return table[:, 0] + 3 * table[:, 1] + 9 * table[:, 2]


def _follow(codes: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Paths (T, K) int8 from ``first``, each step applying the map coded ``codes[k, t]``.

    Composing maps is a lookup in ``_COMPOSE``.  Composition is
    associative, so the maps from step 0 to every step come out of a
    Hillis-Steele prefix scan: ceil(log2 m) rounds over a chunk of m
    steps, each a few whole-array operations.  A chunk covers ``_CHUNK``
    steps and starts with the constant map to the state the previous
    chunk ended in (to ``first`` for the first chunk), so every prefix is
    a constant map to the state at its step.  Row 0 of ``codes`` is not
    read.
    """
    n, records = codes.shape
    path = np.empty((records, n), dtype=np.int8)
    path[:, 0] = first
    for start in range(1, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        scan = np.empty((stop - start + 1, records), dtype=np.intp)
        scan[0] = 13 * path[:, start - 1]
        scan[1:] = codes[start:stop]
        shift = 1
        while shift < len(scan):
            scan[shift:] = _COMPOSE.take(scan[shift:] * 27 + scan[:-shift])
            shift *= 2
        path[:, start:stop] = _STATE.take(scan[1:]).T
    return path


def _first_states(log_init, log_trans, log_emit, x: np.ndarray, to_go: np.ndarray):
    """First states (T,) of the decoded paths of T records.

    ``x`` holds the symbol indices (K, T) and ``to_go`` the scores to go
    (3, T) at step 0.  The first state is the smallest within
    ``TIE_EPS`` of the best total score.  Raises
    :class:`InfeasibleObservationError` for the first record that no
    state sequence can produce.
    """
    head = log_init[:, None] + log_emit[x[0]].T + to_go
    best = head.max(axis=0)
    dead = np.flatnonzero(~np.isfinite(best))
    if dead.size:
        raise _infeasible(x[:, dead[0]], log_init, log_trans, log_emit)
    return np.argmax(head >= best - TIE_EPS, axis=0)


def _step(trans: list, emit: list, to_go: tuple) -> tuple:
    """Normalised score to go one step before ``to_go``, at a symbol of emission row ``emit``.

    ``max_j (trans[i][j] + (emit[j] + to_go[j]))`` for each state i, the
    additions in the order of ``log_trans + (log_emit[x] + to_go)``, then
    minus the largest of the three when that is finite.
    """
    s = [e + t for e, t in zip(emit, to_go)]
    u = [max([a + b for a, b in zip(row, s)]) for row in trans]
    top = max(u)
    return tuple(v - top for v in u) if top > -math.inf else tuple(u)


def _pair_codes(log_trans, log_emit, rows: list[tuple]) -> np.ndarray:
    """Successor-map codes (3R,) int8 of R score-to-go rows, each with each symbol.

    Entry ``3 r + s`` is the code of step k's successor map when
    ``rows[r]`` is the score to go at step k and s the symbol index
    there, by the rule of :func:`_choices`, which builds it with the
    3R pairs as its records.
    """
    to_go = np.zeros((2, 3, 3 * len(rows)))  # _choices skips step 0; the pairs are step 1
    to_go[1] = np.repeat(np.array(rows).T, 3, axis=1)  # to_go[1, j, 3r + s] = rows[r][j]
    le = np.zeros_like(to_go)
    le[1] = np.tile(log_emit.T, len(rows))  # le[1, j, 3r + s] = log_emit[s, j]
    return _code(_choices(log_trans, le, to_go))[1]


def _backward(log_trans, log_emit, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Successor-map codes (K,) int8 of the decoded path, and its score to go at step 0.

    A memoised automaton over the normalised score-to-go rows, run from
    step K-1 (all zero) back to step 0.  Each distinct row gets an id r
    and is carried as ``3 r``, so ``3 r + s`` names the pair of the row
    and the symbol index s at its step.  ``nxt[3 r + s]`` is the carried
    id of the row one step earlier: -1 until the pair first occurs, when
    :func:`_step` computes it.  ``table[3 r + s]`` is the pair's
    successor-map code, from :func:`_pair_codes` over the rows that are
    new, once per chunk.  So a step costs one list lookup.  A memo of
    more than ``_MEMO_ROWS`` rows is cleared at the next chunk boundary
    and restarts from the current row, so it never holds more than
    ``_MEMO_ROWS + _CHUNK`` rows; the codes are the same either way.
    """
    trans, emit = log_trans.tolist(), log_emit.tolist()
    n = x.size
    codes = np.zeros(n, dtype=np.int8)
    row = (0.0, 0.0, 0.0)
    rows: list[tuple] = []
    for hi in range(n - 1, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        if not rows or len(rows) > _MEMO_ROWS:  # a new memo, holding the current row
            rows, index, nxt, cur = [row], {row: 0}, [-1, -1, -1], 0
            table = np.empty(0, dtype=np.int8)
        symbols = x[hi:lo:-1]
        ids = []  # the carried id of the row at each step of the chunk
        append = ids.append
        for s in symbols.tolist():
            append(cur)
            cur = nxt[cur + s]
            if cur < 0:  # the pair's first occurrence
                key = ids[-1] + s
                row = _step(trans, emit[s], rows[key // 3])
                cur = index.get(row)
                if cur is None:
                    cur = index[row] = len(nxt)
                    rows.append(row)
                    nxt += (-1, -1, -1)
                nxt[key] = cur
        if len(table) < len(nxt):
            new = _pair_codes(log_trans, log_emit, rows[len(table) // 3 :])
            table = np.concatenate([table, new])
        codes[hi:lo:-1] = table.take(np.fromiter(ids, np.intp, len(ids)) + symbols)
        row = rows[cur // 3]
    return codes, row


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

    The score to go is normalised at every step: its largest entry is
    subtracted, so the tie window compares O(1) values however long the
    record.  Normalised rows take few distinct values, so the backward
    pass is a memoised automaton over them (:func:`_backward`): a step
    costs one list lookup and leaves one int8 successor-map code.
    :func:`_follow` then walks the codes, as it does for the Monte Carlo
    kernel, for a batch of one record.
    """
    x = _symbol_indices(symbols, "symbols").astype(np.int8)
    require_valid(model)
    log_init, log_trans, log_emit = _log_params(model)
    codes, to_go = _backward(log_trans, log_emit, x)
    first = _first_states(log_init, log_trans, log_emit, x[:, None], np.array(to_go)[:, None])
    return np.subtract(_follow(codes[:, None], first)[0], 1, dtype=np.int64)


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
