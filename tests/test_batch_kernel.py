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
import numpy as np
import pytest

import gridhmm as gh
from gridhmm import gaussian, simulate, viterbi

from conftest import MODELS, feasible_observation, reference_decode, sparse_model


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
@pytest.mark.parametrize("length", [1, 2, 37])
def test_batch_rows_equal_single_sequence_functions(name, length):
    model = MODELS[name]
    trials = 11
    tables = simulate._Tables.of(model)
    generator = np.random.Generator(np.random.PCG64())
    u = gaussian._stream_draws(generator, 5, 0, trials, 2 * length)
    batch = simulate._run_batch(tables, u, viterbi._Memo(model))
    for t in range(trials):
        want = reference(model, length, gh.RngStream(5, stream_index=t))
        for got, expected in zip(batch, want):
            assert got.shape == (length, trials)
            assert np.array_equal(got[:, t] - 1, expected)


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
