"""The trial-batched Monte Carlo kernel against per-step references.

For every trial of a batch, the kernel's hidden, emitted and decoded
rows must equal a test-local per-step reference run on the same stream,
bit for bit, and the stream must be left where that reference leaves
it.  The reference samples each state and each symbol with one
``sample_categorical`` call and decodes with ``reference_decode``; it
shares no code with the kernel, which ``simulate_states``,
``emit_symbols`` and ``viterbi_decode`` now do.
"""
import numpy as np
import pytest

import gridhmm as gh
from gridhmm import simulate

from conftest import MODELS, reference_decode


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
    streams = [gh.RngStream(5, stream_index=t) for t in range(trials)]
    batch = simulate._run_batch(simulate._Tables.of(model), length, streams)
    for t in range(trials):
        rng = gh.RngStream(5, stream_index=t)
        want = reference(model, length, rng)
        for got, expected in zip(batch, want):
            assert got.shape == (trials, length)
            assert np.array_equal(got[t] - 1, expected)
        assert streams[t].generator.random() == rng.generator.random()


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
