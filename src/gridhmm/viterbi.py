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

import numpy as np

from .model import HmmModel, require_valid

__all__ = [
    "TIE_EPS",
    "InfeasibleObservationError",
    "joint_log_prob",
    "viterbi_decode",
]

# Absolute log-domain window within which path scores count as tied.
TIE_EPS = 1e-9

# Steps per chunk of the backward pass and of the walk: for one record
# the array temporaries stay near 0.1 MB each, however long the record.
_CHUNK = 2**14

# Rows of normalised score to go that the decoder's memo holds before it
# is cleared; sparse random models reach about 13,000 in 2e5 steps.
_MEMO_ROWS = 2**16


class InfeasibleObservationError(ValueError):
    """Every state sequence has probability zero for the observations."""


def _symbol_indices(seq, name: str) -> np.ndarray:
    """Indices 0..2 of the symbols -1..1 in ``seq``, as a new int8 array."""
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
    out = arr.astype(np.int8)
    out += 1
    return out


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
    return _log_prob(x, s, _log_params(model))


def _log_prob(x: np.ndarray, s: np.ndarray, logs) -> float:
    """:func:`joint_log_prob` of symbol indices ``x`` and state indices ``s``, unchecked.

    ``logs`` are the model's log parameters (:func:`_log_params`).
    """
    log_init, log_trans, log_emit = logs
    emit = _sum(lambda lo, hi: log_emit[x[lo:hi], s[lo:hi]], 0, x.size)
    trans = _sum(lambda lo, hi: log_trans[s[lo:hi], s[lo + 1 : hi + 1]], 0, s.size - 1)
    return float(log_init[s[0]] + emit + trans)


def _sum(terms, lo: int, hi: int) -> np.float64:
    """``np.sum(terms(lo, hi))``, bit for bit, with at most ``_CHUNK`` terms made at a time.

    ``terms(a, b)`` is the float64 array of terms ``a..b-1``.  numpy sums
    a contiguous array pairwise: more than 128 terms are split into the
    first ``n // 2`` rounded down to a multiple of 8 and the rest, and
    the two sums added.  Splitting the same way down to parts of at most
    ``_CHUNK`` terms, each summed by ``np.sum``, adds in the same order.
    """
    if hi - lo <= _CHUNK:
        return np.sum(terms(lo, hi))
    half = (hi - lo) // 2
    half -= half % 8
    return _sum(terms, lo, lo + half) + _sum(terms, lo + half, hi)


def _infeasible(x: np.ndarray, log_init, log_trans, log_emit) -> InfeasibleObservationError:
    """Error citing the first step at which no state is reachable.

    A scalar forward pass over the symbol indices ``x`` keeps the states
    that some positive-probability prefix ends in as a 3-bit mask;
    ``step[mask][s]`` is the mask one step later, at symbol index s.
    The first empty mask is the first step at which the best prefix
    score of every state is -inf.
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


# Successor maps of the three states are coded c = f(0) + 3 f(1) + 9 f(2);
# _MAPS[c] is (f(0), f(1), f(2)).  _COMPOSE[27 * a + b] is the code of
# i -> a(b(i)).  The constant map to state j has code 13 j, and
# _STATE[13 * j] is j.  Codes and their sums fit int16: 27 a + b <= 728.
# Built from Python ints: numpy's integer division and matmul loops would
# add about 0.4 MB of code pages to every process.
_MAPS = [[c // 3**i % 3 for i in range(3)] for c in range(27)]
_COMPOSE = np.array(
    [a[b[0]] + 3 * a[b[1]] + 9 * a[b[2]] for a in _MAPS for b in _MAPS], dtype=np.int16
)
_STATE = np.array([f[0] for f in _MAPS], dtype=np.int8)


def _follow(codes: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Paths (K, T) int8 from ``first``, written over the codes ``codes[k, t]`` of step k's maps.

    Composing maps is a lookup in ``_COMPOSE``.  Composition is
    associative, so the maps from step 0 to every step come out of a
    Hillis-Steele prefix scan: ceil(log2 m) rounds over a chunk of m
    steps, each a few whole-array operations.  A chunk covers ``_CHUNK``
    steps and starts with the constant map to the state the previous
    chunk ended in (to ``first`` for the first chunk), so every prefix is
    a constant map to the state at its step.  Row 0 of ``codes`` is not
    read; it receives ``first``.  Returns ``codes``.
    """
    n, records = codes.shape
    codes[0] = first
    for start in range(1, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        scan = np.empty((stop - start + 1, records), dtype=np.int16)
        scan[0] = 13 * codes[start - 1]
        scan[1:] = codes[start:stop]
        shift = 1
        while shift < len(scan):
            scan[shift:] = _COMPOSE.take(scan[shift:] * 27 + scan[:-shift])
            shift *= 2
        codes[start:stop] = _STATE.take(scan[1:])
    return codes


def _pick(c: list) -> int:
    """The tie rule: the smallest j with ``c[j] >= max(c) - TIE_EPS``."""
    top = max(c) - TIE_EPS
    return 0 if c[0] >= top else 1 if c[1] >= top else 2


def _step(init: list, trans: list, emit: list, to_go: tuple) -> tuple[tuple, int, int]:
    """The earlier row, successor map and first state of a (score to go, symbol) pair.

    ``to_go`` is the normalised score to go at some step and ``emit`` the
    emission row of the symbol there.  Returns:

    - the row one step earlier, ``max_j (trans[i][j] + (emit[j] + to_go[j]))``
      for each state i, minus the largest of the three when that is finite;
    - the code of the step's successor map, ``i -> _pick(c)`` with
      ``c_j = (trans[i][j] + emit[j]) + to_go[j]``;
    - the first state of a record that starts with the pair,
      ``_pick(c)`` with ``c_j = (init[j] + emit[j]) + to_go[j]``, or -1
      when every such score is -inf.

    The additions are in the order of the array forms
    ``log_trans + (log_emit[x] + to_go)`` and
    ``(log_trans + log_emit[x]) + to_go``.
    """
    e0, e1, e2 = emit
    g0, g1, g2 = to_go
    s0, s1, s2 = e0 + g0, e1 + g1, e2 + g2
    u0, u1, u2 = [max(a + s0, b + s1, c + s2) for a, b, c in trans]
    top = max(u0, u1, u2)
    row = (u0 - top, u1 - top, u2 - top) if top > -math.inf else (u0, u1, u2)
    f0, f1, f2 = [_pick([(a + e0) + g0, (b + e1) + g1, (c + e2) + g2]) for a, b, c in trans]
    a, b, c = init
    head = [(a + e0) + g0, (b + e1) + g1, (c + e2) + g2]
    return row, f0 + 3 * f1 + 9 * f2, _pick(head) if max(head) > -math.inf else -1


class _Memo:
    """The decoder's automaton: the normalised score-to-go rows met so far.

    Each distinct row gets an id r and is carried as ``3 r``, so
    ``3 r + s`` names the pair of the row and the symbol index s at its
    step.  When a pair first occurs, :meth:`learn` decides it with
    :func:`_step`: ``nxt[3 r + s]`` (-1 until then) becomes the carried
    id of the row one step earlier, ``code[3 r + s]`` the pair's
    successor-map code and ``first[3 r + s]`` its first state, an int8
    byte.  ``array`` is a copy of ``nxt`` for gathers over a vector of
    records, at least as long and -1 where it has not caught up: a pair
    it holds as -1 is looked up in ``nxt``, or learned, and copied.  A
    memo outlives one record: every batch of a Monte Carlo run uses the
    same one.
    """

    def __init__(self, model: HmmModel):
        self.logs = _log_params(model)
        self.init, self.trans, self.emit = (a.tolist() for a in self.logs)
        self.restart()

    def restart(self) -> None:
        """Forget every row."""
        self.rows: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.nxt: list[int] = []
        self.code = bytearray()
        self.first = bytearray()
        self.array = np.empty(0, dtype=np.intp)

    def add(self, row: tuple) -> int:
        """The carried id of ``row``, a new one if the row is new."""
        cur = self.index.get(row)
        if cur is None:
            cur = self.index[row] = len(self.nxt)
            self.rows.append(row)
            self.nxt += (-1, -1, -1)
            self.code += bytes(3)
            self.first += bytes(3)
        return cur

    def learn(self, key: int) -> int:
        """``nxt[key]`` for a pair met for the first time, with its code and first state."""
        row, self.code[key], first = _step(
            self.init, self.trans, self.emit[key % 3], self.rows[key // 3]
        )
        self.first[key] = first & 255  # -1 is the byte 255, read back as int8
        self.nxt[key] = self.add(row)
        return self.nxt[key]

    def gather(self, keys: np.ndarray) -> np.ndarray:
        """``nxt`` at each of the pairs ``keys`` (an intp array), learning the new ones."""
        if len(self.array) < len(self.nxt):  # at least doubled: O(1) a row, amortised
            self.array = np.concatenate([self.array, np.full(len(self.nxt), -1, dtype=np.intp)])
        ids = self.array.take(keys)
        if ids[ids.argmin()] < 0:  # argmin skips the ufunc machinery of min
            new = np.flatnonzero(ids < 0)
            for i, key in zip(new.tolist(), keys[new].tolist()):
                ids[i] = self.nxt[key] if self.nxt[key] >= 0 else self.learn(key)
            self.array[keys[new]] = ids[new]
        return ids

    def trim(self, ids: list[int]) -> list[int]:
        """``ids``; past ``_MEMO_ROWS`` rows, their rows' ids in a memo restarted with them."""
        if len(self.rows) <= _MEMO_ROWS:
            return ids
        rows = [self.rows[i // 3] for i in ids]
        self.restart()
        return [self.add(row) for row in rows]


def _backward(memo: _Memo, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Successor-map codes (K, T) int8 of T records' decoded paths, and their first states (T,).

    ``x`` holds the symbol indices (K, T).  The memo's automaton runs
    from step K-1, where every score to go is all zero, back to step 0.
    For one record a step costs one list lookup; for T records it is one
    gather over the vector of their ids, ``nxt.take(ids + x[k])``, which
    learns the pairs it meets first.  Per-step numpy calls would cost
    about ten times the list lookup for one record.  The codes come from
    one lookup in the memo's ``code`` per chunk of ``_CHUNK`` steps, the
    first states from one in its ``first`` at step 0; a first state is
    -1 for a record that no state sequence can produce.  A memo of more
    than ``_MEMO_ROWS`` rows is cleared at the next chunk boundary and
    restarts from the current rows, so it never holds more than
    ``_MEMO_ROWS + T * _CHUNK`` rows; the codes are the same either way.
    """
    n, records = x.shape
    codes = np.empty((n, records), dtype=np.int8)
    cur = [memo.add((0.0, 0.0, 0.0))] * records
    for hi in range(n, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        cur = memo.trim(cur)
        symbols = x[lo:hi][::-1]
        if records == 1:
            nxt, keys, row = memo.nxt, [], cur[0]
            append = keys.append
            for s in symbols[:, 0].tolist():
                key = row + s
                append(key)
                row = nxt[key]
                if row < 0:  # the pair's first occurrence
                    row = memo.learn(key)
            keys, cur = np.fromiter(keys, np.intp, len(keys))[:, None], [row]
        else:
            keys = symbols.astype(np.intp)
            row = np.array(cur, dtype=np.intp)
            for key in keys:
                key += row
                row = memo.gather(key)
            cur = row.tolist()
        codes[lo:hi] = np.frombuffer(bytes(memo.code), dtype=np.int8).take(keys[::-1])
    return codes, np.frombuffer(bytes(memo.first), dtype=np.int8).take(keys[-1])


def _paths(memo: _Memo, x: np.ndarray) -> np.ndarray:
    """Decoded paths (K, T) int8 of state indices of the records in the columns of ``x``.

    Raises :class:`InfeasibleObservationError` for the first record that
    no state sequence can produce.
    """
    codes, first = _backward(memo, x)
    dead = np.flatnonzero(first < 0)
    if dead.size:
        raise _infeasible(x[:, dead[0]], *memo.logs)
    return _follow(codes, first)


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
    pass is a memoised automaton over them (:func:`_backward`).
    :func:`_step` decides each (row, symbol) pair once, when it first
    occurs: the row one step earlier, the step's successor map and the
    first state of a record that starts with the pair.  A step then
    costs one list lookup and leaves one int8 successor-map code, and
    :func:`_follow` walks the codes from the first state, writing the
    path over them.  The Monte Carlo kernel decodes its trials with the
    same automaton and walk (:func:`_paths`), a batch at a time, and so
    does the CLI's ``decode`` on the symbol indices it classifies.
    """
    x = _symbol_indices(symbols, "symbols")[:, None]
    require_valid(model)
    path = _paths(_Memo(model), x)[:, 0]
    path -= 1
    return path.astype(np.int64)
