"""The shared reconstruction core against plain references.

``_step`` decides each (score to go, symbol) pair of the decoder: its
successor map and the first state of a record that starts with it.
``_follow`` walks successor tables into paths, for ``viterbi_decode``,
``simulate_states`` and the Monte Carlo kernel alike.  Both must equal
the test-local references in ``conftest.py`` bit for bit: the argmax
choice builder and the per-record ``bytes`` walk.
"""
import numpy as np
import pytest

from gridhmm.viterbi import _CHUNK, TIE_EPS, _follow, _step

from conftest import _code, reference_choices, reference_follow


def _table(gen, length, records):
    """Random successor table (K, 3, T) int8 whose steps use all 27 maps when K*T allows."""
    codes = gen.integers(0, 27, size=(length, records))
    if (length - 1) * records >= 27:
        codes[1:].flat[:27] = gen.permutation(27)  # row 0 is never read
    return (codes[:, None, :] // 3 ** np.arange(3)[:, None] % 3).astype(np.int8)


@pytest.mark.parametrize("records", [1, 37])
@pytest.mark.parametrize("length", [1, 2, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_follow_equals_per_record_walk(length, records):
    gen = np.random.default_rng([length, records])
    table = _table(gen, length, records)
    for offset in range(3):
        first = (np.arange(records) + offset) % 3  # every first state, in every record
        got = _follow(_code(table), first)
        assert got.dtype == np.int8 and got.shape == (length, records)
        assert np.array_equal(got, reference_follow(table, first).T)


def _near_ties(gen, log_trans, log_emit, x):
    """Scores to go (K, 3, T) that put predecessor 0's candidates near each other.

    For predecessor 0 each candidate ``(log_trans[0, j] + log_emit[x, j]) + to_go[:, j]``
    aims at the best score, at it minus ``TIE_EPS`` exactly, at gaps of
    0.999 and 1.001 ``TIE_EPS``, at a gap of 1, or is -inf.
    """
    length, records = x.shape
    head = log_trans[0] + log_emit[x]  # head[k, t, j], added as in the decoder
    best = gen.normal(scale=8.0, size=(length, records, 1))
    gaps = np.array([0.0, TIE_EPS, 0.999 * TIE_EPS, 1.001 * TIE_EPS, 1.0, np.inf])
    target = best - gaps[gen.integers(0, gaps.size, size=head.shape)]
    with np.errstate(invalid="ignore"):
        to_go = np.where(np.isfinite(head), target - head, gen.normal(size=head.shape))
    return to_go.transpose(0, 2, 1)


def test_choices_equal_argmax_reference():
    gen = np.random.default_rng(5)
    length, records = _CHUNK + 3, 4
    log_trans = gen.normal(size=(3, 3)) - 1.0
    log_trans[1, 2] = -np.inf
    log_trans[2] = -np.inf  # a predecessor with no successor at all
    log_emit = gen.normal(size=(3, 3)) - 1.0
    log_emit[0, 1] = -np.inf
    # With the initial law equal to predecessor 0's row, a record's head
    # candidates are predecessor 0's, so the near ties below reach both rules.
    log_init = log_trans[0].copy()
    x = gen.integers(0, 3, size=(length, records))
    to_go = _near_ties(gen, log_trans, log_emit, x)

    # The inputs reach both sides of the window and its exact edge.
    cand = log_trans[0][:, None] + log_emit.T[:, x].transpose(1, 0, 2) + to_go
    with np.errstate(invalid="ignore"):  # rows of three -inf candidates
        gap = (cand.max(axis=1, keepdims=True) - cand)[np.isfinite(cand)]
    assert np.any(gap == 0) and np.any(gap > TIE_EPS)
    assert np.any((gap > 0.99 * TIE_EPS) & (gap < TIE_EPS))
    assert np.any((gap > TIE_EPS) & (gap < 1.01 * TIE_EPS))
    assert np.any(cand == cand.max(axis=1, keepdims=True) - TIE_EPS)

    # Steps 1.. of the records are the pairs; the reference leaves step 0 at 0.
    init, trans, emit = log_init.tolist(), log_trans.tolist(), log_emit.tolist()
    pairs = zip(x[1:].ravel().tolist(), to_go[1:].transpose(0, 2, 1).reshape(-1, 3).tolist())
    decided = [_step(init, trans, emit[s], tuple(g))[1:] for s, g in pairs]
    got, first = np.array(decided, dtype=np.int8).reshape(length - 1, records, 2).transpose(2, 0, 1)
    want = _code(reference_choices(log_trans, log_emit, x, to_go)[1:])
    assert np.array_equal(got, want)
    assert not (got // 9).any()
    assert set(np.unique(got % 3)) == {0, 1, 2}

    # The first state is the reference's choice with log_init as the
    # predecessor row, or -1 when every head score is -inf.
    head = reference_choices(np.tile(log_init, (3, 1)), log_emit, x, to_go)[1:, 0]
    dead = ~np.isfinite(cand[1:]).any(axis=1)
    assert np.array_equal(first, np.where(dead, -1, head))
    assert set(np.unique(first)) == {-1, 0, 1, 2}
