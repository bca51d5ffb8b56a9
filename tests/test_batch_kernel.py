"""The trial-batched Monte Carlo kernel against per-step references.

For every trial of a batch, the kernel's hidden, emitted and decoded
columns must equal a test-local per-step reference run on the same stream,
bit for bit.  The reference samples each state and each symbol
with one ``sample_categorical`` call and decodes with
``reference_decode``; it shares no code with the kernel, which
``simulate_states``, ``emit_symbols`` and ``viterbi_decode`` now do.

The kernel decodes a batch with the automaton of ``viterbi_decode``,
gathering over the vector of records.  On any batch of records its codes
and first states must equal those of each record decoded alone, whether
its memo is fresh, shared with an earlier batch, or capped.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridhmm as gh
from gridhmm import gaussian, simulate, viterbi
from gridhmm.gaussian import _cumulative

from conftest import MODELS, feasible_observation, oracle_generator, reference_decode, sparse_model


def reference(model, length, rng):
    """Hidden and emitted symbols drawn one uniform at a time, then decoded."""
    state = gh.sample_categorical(model.initial, rng)
    hidden = [state]
    for _ in range(length - 1):
        state = gh.sample_categorical(model.transitions[state], rng)
        hidden.append(state)
    emitted = [gh.sample_categorical(model.emissions[:, s], rng) for s in hidden]
    hidden, emitted = np.array(hidden) - 1, np.array(emitted) - 1
    return hidden, emitted, reference_decode(emitted, model)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize(
    "length, chunk", [(1, None), (2, None), (37, None), (37, 7)], ids=["1", "2", "37", "37-seams"]
)
def test_batch_rows_equal_single_sequence_functions(name, length, chunk, monkeypatch):
    if chunk:
        # The chain in chunks of 7 steps: each of the 11 columns carries its
        # own state's transition row across 5 seams, which no run_monte_carlo
        # batch does (its batches of more than one trial fit in one chunk).
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
    model = MODELS[name]
    trials = 11
    tables = simulate._Tables.of(model)
    chain, emissions = (stream._rows for stream in simulate._streams(5, 0, trials, length))
    batch = simulate._run_batch(tables, (chain, emissions), length, trials, viterbi._Memo(model))
    for t in range(trials):
        want = reference(model, length, oracle_generator(5, t))
        for got, expected in zip(batch, want):
            assert got.shape == (length, trials)
            assert np.array_equal(got[:, t] - 1, expected)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=2, max_size=8).filter(
        lambda w: 0.0 in w and sum(w) > 0.0
    ),
    st.data(),
)
def test_invert_counts_boundaries_like_searchsorted_right(raw, data):
    # Every u sits on a cumulative boundary, where "<= u" and "< u" part:
    # a zero-width category must be skipped, never drawn.
    cum = _cumulative(np.array(raw) / sum(raw))
    boundaries = [0.0, *cum[:-1].tolist()]
    u = np.array(data.draw(st.lists(st.sampled_from(boundaries), min_size=1, max_size=16)))
    want = np.searchsorted(cum, u, side="right")
    assert np.array_equal(simulate._invert(cum, u), want)
    assert simulate._invert(cum, u[0]) == want[0]


def _reader(rows):
    """``draw(n)``: the next n of ``rows``."""
    rows = iter(rows)
    return lambda n: np.array([next(rows) for _ in range(n)])


_STICKY = simulate._Tables.of(MODELS["sticky"])
# 0.0 and every cumulative entry of the sticky chain below 1: its zero
# transitions make zero-width categories, which a draw on their boundary skips.
_STICKY_BOUNDARIES = sorted({0.0, *np.concatenate([t.ravel() for t in _STICKY]).tolist()} - {1.0})


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5), st.sampled_from([2, 3, simulate._CHUNK]), st.data())
def test_boundary_draws_through_the_chain_and_the_emissions(length, trials, chunk, data):
    cells = st.lists(
        st.sampled_from(_STICKY_BOUNDARIES), min_size=2 * length * trials, max_size=2 * length * trials
    )
    u = np.array(data.draw(cells)).reshape(2 * length, trials)
    cum_trans, cum_emit = _STICKY.cum_trans, _STICKY.cum_emit
    want = np.empty((length, trials), dtype=np.int64)
    want[0] = np.searchsorted(_STICKY.cum_init, u[0], side="right")
    for k in range(1, length):
        for t in range(trials):
            want[k, t] = np.searchsorted(cum_trans[want[k - 1, t]], u[k, t], side="right")

    # Short chunks put boundary draws on the first step of a chunk, which
    # inverts the carried transition rows of every column.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_CHUNK", chunk)
        chain, emissions = _reader(u[:length]), _reader(u[length:])
        memo = viterbi._Memo(MODELS["sticky"])
        hidden, emitted, _ = simulate._run_batch(_STICKY, (chain, emissions), length, trials, memo)
    assert np.array_equal(hidden, want)
    for k in range(length):
        for t in range(trials):
            h = want[k, t]
            assert emitted[k, t] == np.searchsorted(cum_emit[:, h], u[length + k, t], side="right")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_monte_carlo_batches_do_not_change_the_summary(name, monkeypatch):
    model = MODELS[name]
    length, trials = 20, 17
    whole = gh.run_monte_carlo(model, length, trials, base_seed=4)
    # 17 trials in batches of 5: the last batch is partial.
    monkeypatch.setattr(simulate, "_BATCH_STEPS", 5 * length)
    batched = gh.run_monte_carlo(model, length, trials, base_seed=4)
    ht, va = [], []
    for t in range(trials):
        hidden, emitted, decoded = reference(model, length, gh.RngStream(4, stream_index=t))
        ht.append(np.count_nonzero(emitted == hidden) * 100.0 / length)
        va.append(np.count_nonzero(decoded == hidden) * 100.0 / length)
    for summary in (whole, batched):
        assert summary.ht_mean == float(np.mean(ht))
        assert summary.va_mean == float(np.mean(va))
        assert summary.ht_std == float(np.std(ht))
        assert summary.va_std == float(np.std(va))
    assert np.array_equal(whole.histogram_ht, batched.histogram_ht)
    assert np.array_equal(whole.histogram_va, batched.histogram_va)


def test_a_batch_sets_up_its_words_twice(monkeypatch):
    # Two trials of 3 chunks each, a batch each: the chain's stream from
    # word 0 and the emissions' from word K each set up their words once,
    # however many chunks they feed.
    length = 3 * simulate._CHUNK
    setups = []
    words = gaussian._stream_words

    def counting(*args):
        setups.append(args)  # on the first piece, when the set-up runs
        yield from words(*args)

    monkeypatch.setattr(gaussian, "_stream_words", counting)
    gh.run_monte_carlo(MODELS["sticky"], length, 2, base_seed=1)
    assert setups == [(1, 0, 1, 0), (1, 0, 1, length), (1, 1, 2, 0), (1, 1, 2, length)]


def test_monte_carlo_trial_traces_under_eight_bytes_a_step():
    # One K=2e5 trial: its hidden, emitted and decoded int8 columns and
    # temporaries the size of a chunk, about 5.2 B a step traced.  Drawing
    # the trial's 2K uniforms as one float64 matrix took 27.1.
    model, length = MODELS["sticky"], 200_000
    tracemalloc.start()
    try:
        gh.run_monte_carlo(model, length, 1, base_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * length


def test_a_batch_drops_its_draws_before_the_last_emissions():
    # One batch of 163 trials x K=100.  Its traced peak comes while it
    # draws the emissions: about 33 B a step, once the chain's stream (its
    # state and last piece of words, about 7 B a step) is freed after the
    # chain's last draw.  With the caller and the kernel holding both
    # streams to the end, the batch traced about 40.
    model, length, trials = MODELS["sticky"], 100, 163
    assert max(1, simulate._BATCH_STEPS // length) == trials
    gh.run_monte_carlo(model, length, trials, base_seed=1)  # fills the set-up caches
    tracemalloc.start()
    try:
        gh.run_monte_carlo(model, length, trials, base_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * length * trials


def test_monte_carlo_validates_the_model_once(monkeypatch):
    calls = []

    def counting(model, *args, **kwargs):
        calls.append(model)
        return gh.require_valid(model, *args, **kwargs)

    for module in ("simulate", "viterbi"):
        monkeypatch.setattr(f"gridhmm.{module}.require_valid", counting)
    gh.run_monte_carlo(MODELS["sticky"], 20, 30, base_seed=1)
    assert len(calls) == 1


def _decode_batch(model, symbols, memo=None):
    """Codes, first states and paths (K, T) of the records in the columns of ``symbols``."""
    x = np.asarray(symbols, dtype=np.int8) + 1
    if memo is None:
        memo = viterbi._Memo(model)
    codes, first = viterbi._backward(memo, x)
    return codes, first, viterbi._follow(codes.copy(), first) - 1


def _records(model, length, count, gen):
    return np.stack([feasible_observation(model, length, gen) for _ in range(count)], axis=1)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_decoder_equals_each_record_decoded_alone(name):
    model = MODELS[name]
    gen = np.random.default_rng(8)
    memo = viterbi._Memo(model)
    for batch in range(2):  # the second batch reuses the first one's memo
        symbols = _records(model, 200, 23, gen)
        codes, first, paths = _decode_batch(model, symbols, memo)
        assert codes.dtype == np.int8 and codes.shape == symbols.shape
        for t in range(symbols.shape[1]):
            alone = _decode_batch(model, symbols[:, [t]])
            assert np.array_equal(codes[:, t], alone[0][:, 0])
            assert first[t] == alone[1][0]
            assert np.array_equal(paths[:, t], reference_decode(symbols[:, t], model))
            assert np.array_equal(paths[:, t], gh.viterbi_decode(symbols[:, t], model))


def test_batch_decoder_learns_pairs_mid_batch(monkeypatch):
    # Every record emits 0 but record 3, which emits +1 at steps 20..25.
    # The backward pass meets the symbol +1, and so new pairs, at step
    # 25, after steps that learned nothing.
    model = MODELS["sticky"]
    symbols = np.zeros((60, 5), dtype=np.int64)
    symbols[20:26, 3] = 1
    memo = viterbi._Memo(model)
    steps, learned = [], []
    step, gather = viterbi._step, memo.gather
    monkeypatch.setattr(viterbi, "_step", lambda *args: steps.append(args) or step(*args))

    def counting(keys):
        before = len(steps)
        ids = gather(keys)
        learned.append(len(steps) - before)
        return ids

    monkeypatch.setattr(memo, "gather", counting)
    _, _, paths = _decode_batch(model, symbols, memo)
    # Call i gathers the rows of step 58 - i from the pairs of step 59 - i.
    assert learned[59 - 25] > 0 and 0 in learned[: 59 - 25]
    for t in range(symbols.shape[1]):
        assert np.array_equal(paths[:, t], reference_decode(symbols[:, t], model))


@pytest.mark.parametrize("name", ["sticky", "tie", "random"])
def test_batch_decoder_with_a_capped_memo_decodes_the_same(name, monkeypatch):
    # A memo of more than 3 rows restarts at every boundary of 10 steps,
    # holding only the current rows of the batch.
    gen = np.random.default_rng(4)
    model = sparse_model(gen) if name == "random" else MODELS[name]
    symbols = _records(model, 300, 17, gen)
    want = _decode_batch(model, symbols)
    restarts = []
    restart = viterbi._Memo.restart
    monkeypatch.setattr(viterbi._Memo, "restart", lambda m: restarts.append(1) or restart(m))
    monkeypatch.setattr(viterbi, "_MEMO_ROWS", 3)
    monkeypatch.setattr(viterbi, "_CHUNK", 10)
    got = _decode_batch(model, symbols)
    assert len(restarts) > 2
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


def test_batch_decoder_keeps_the_tie_rule_on_long_records():
    # The tie record of test_viterbi_long, whose unnormalised score to go
    # passes 2e7 by K=60,000, in three copies decoded as one batch: each
    # must start with the smaller of its two tied optima.
    tie = MODELS["tie"]
    emissions = tie.emissions.copy()
    emissions[:, 1] = [0.0, 1.0, 1e-300]
    model = gh.HmmModel(transitions=tie.transitions, emissions=emissions, initial=tie.initial)
    record = np.tile([-1, -1, 1, 1], 15_000)
    _, _, paths = _decode_batch(model, np.stack([record] * 3, axis=1))
    want = np.concatenate([[-1, 1], np.tile([0, 0, 1, -1], 15_000)[:-2]])
    for path in paths.T:
        assert np.array_equal(path, want)
