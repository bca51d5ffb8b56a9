"""The decoder on long records, against a per-step numpy reference.

``reference_decode`` (in ``conftest.py``) is the decoder written the
plain way: one array operation per step for the backward pass and one
per step for the reconstruction.  ``viterbi_decode`` must return the
same array on every record here, ties included, and report the same
infeasible step, which a forward reachability pass finds without the
trellis.  Lengths 2**14 and 2**14 + 1 end exactly at and just
past the first chunk of the choice table and of the walk; 3 * 2**14 + 5
crosses two chunk carries of the walk.  The tie records are checked
against their known optimal paths, and a decoder whose memo of score
rows is capped against the uncapped one.
"""
import tracemalloc

import numpy as np
import pytest

import gridhmm as gh
from gridhmm import simulate, viterbi

from conftest import (
    MODELS,
    brute_force_mlse,
    compute_trellis,
    feasible_observation,
    reference_decode,
    sparse_model,
)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("length", [1, 2, 3, 37, 2**14, 2**14 + 1, 3 * 2**14 + 5, 50_000])
def test_decode_equals_per_step_reference(name, length):
    model = MODELS[name]
    rng = gh.RngStream(11, stream_index=length)
    symbols = gh.emit_symbols(gh.simulate_states(model, length, rng), model.emissions, rng)
    got = gh.viterbi_decode(symbols, model)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_decode(symbols, model))
    x = (symbols + 1).astype(np.int8)[:, None]  # the indices that the CLI's decode reads
    narrow = viterbi._paths(viterbi._Memo(model), x)[:, 0]
    assert narrow.dtype == np.int8 and np.array_equal(narrow - 1, got)


def test_symbol_indices_make_one_int8_copy():
    symbols = np.ones(1_000_000, dtype=np.int64)
    tracemalloc.start()
    try:
        x = viterbi._symbol_indices(symbols, "symbols")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.dtype == np.int8 and np.array_equal(x, symbols + 1)
    assert peak < 1.1 * x.nbytes  # no int64 temporaries
    assert (symbols == 1).all()


def test_decode_traces_under_three_bytes_a_step():
    # The symbol indices and the successor-map codes, which the walk
    # overwrites with the path: 2 B a step, plus chunk temporaries (2.47
    # traced).  A path beside the codes adds 1 B a step (3.44).
    model = MODELS["sticky"]
    length = 1_000_000
    rng = gh.RngStream(5)
    hidden = gh.simulate_states(model, length, rng)
    symbols = gh.emit_symbols(hidden, model.emissions, rng).astype(np.int8)
    tracemalloc.start()
    try:
        x = symbols + 1
        path = viterbi._paths(viterbi._Memo(model), x[:, None])[:, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(path - 1, gh.viterbi_decode(symbols, model))
    assert peak < 2.8 * length


def test_long_infeasible_record_names_the_step():
    # Under the identity channel the symbols are the states, and the
    # sticky chain never moves from -1 to +1.
    model = MODELS["identity"]
    symbols = np.zeros(50_000, dtype=np.int64)
    symbols[39_999], symbols[40_000] = -1, 1
    with pytest.raises(gh.InfeasibleObservationError) as err:
        gh.viterbi_decode(symbols, model)
    assert str(err.value).endswith("every path dies at step 40000")
    with pytest.raises(gh.InfeasibleObservationError):
        reference_decode(symbols, model)


@pytest.mark.parametrize("length", [200_000, pytest.param(10_000_000, marks=pytest.mark.slow)])
def test_long_tie_resolves_lexicographically(length):
    # The first pair of -1 symbols is emitted equally well by (-1, +1) and
    # (+1, -1); every later pair only by (+1, -1).  The two tied scores
    # are sums over the whole record, formed in different orders.  Left
    # unnormalised, the score to go reaches about 9e6 at K=1e7, where the
    # float spacing is wider than TIE_EPS.
    model = MODELS["tie"]
    symbols = np.tile(np.array([-1, -1, 1, 1], dtype=np.int8), length // 4)
    decoded = gh.viterbi_decode(symbols, model)
    assert tuple(decoded[:2]) == (-1, 1)
    assert np.array_equal(decoded[2:], np.tile([0, 0, 1, -1], length // 4)[:-2])


def test_tie_holds_where_unnormalised_scores_lose_it():
    # As above, but the middle state emits +1 with probability 1e-300, so
    # each +1 pair costs about 1382 in log score.  Unnormalised, the score
    # to go passes 2e7 by K=60,000; the float spacing there, 2**-28, is
    # wider than TIE_EPS, and the larger of the two tied paths won.
    tie = MODELS["tie"]
    emissions = tie.emissions.copy()
    emissions[:, 1] = [0.0, 1.0, 1e-300]
    model = gh.HmmModel(transitions=tie.transitions, emissions=emissions, initial=tie.initial)
    decoded = gh.viterbi_decode(np.tile([-1, -1, 1, 1], 15_000), model)
    assert tuple(decoded[:2]) == (-1, 1)
    assert np.array_equal(decoded[2:], np.tile([0, 0, 1, -1], 15_000)[:-2])


@pytest.mark.parametrize("name", ["sticky", "tie", "random"])
def test_capped_memo_decodes_the_same(name, monkeypatch):
    # A memo of more than 3 rows restarts at every boundary of 100 steps;
    # the pairs it forgets are computed again, to the same rows.
    gen = np.random.default_rng(3)
    models = [sparse_model(gen) for _ in range(8)] if name == "random" else [MODELS[name]]
    records = [feasible_observation(model, 20_000, gen) for model in models]
    steps = []
    step = viterbi._step
    monkeypatch.setattr(viterbi, "_step", lambda *args: steps.append(args) or step(*args))
    want = [gh.viterbi_decode(symbols, model) for symbols, model in zip(records, models)]
    uncapped = len(steps)
    monkeypatch.setattr(viterbi, "_MEMO_ROWS", 3)
    monkeypatch.setattr(viterbi, "_CHUNK", 100)
    for symbols, model, path in zip(records, models, want):
        assert np.array_equal(gh.viterbi_decode(symbols, model), path)
    assert len(steps) - uncapped > uncapped > 3


def _first_dead_row(symbols, model):
    dead = np.all(np.isneginf(compute_trellis(symbols, model).log_scores), axis=1)
    return int(np.argmax(dead)) if dead.any() else None


@pytest.mark.parametrize("name", [*sorted(MODELS), "random"])
def test_dead_step_is_the_first_dead_trellis_row(name):
    # Every record of the sticky and tie models is feasible (some state
    # emits each symbol and is reachable from every state); the identity
    # model and random sparse models make many infeasible ones.
    gen = np.random.default_rng(7)
    infeasible = 0
    for _ in range(300):
        model = sparse_model(gen) if name == "random" else MODELS[name]
        symbols = gen.integers(-1, 2, size=int(gen.integers(1, 9)))
        step = _first_dead_row(symbols, model)
        if step is None:
            assert gh.viterbi_decode(symbols, model).size == symbols.size
            continue
        infeasible += 1
        with pytest.raises(gh.InfeasibleObservationError) as err:
            gh.viterbi_decode(symbols, model)
        assert str(err.value).endswith(f"every path dies at step {step}")
    assert (infeasible > 0) == (name in ("identity", "random"))


def test_dead_step_does_not_rebuild_the_trellis(monkeypatch):
    # The trellis is a test helper; the package has none to rebuild.
    assert not hasattr(viterbi, "compute_trellis")
    model = MODELS["identity"]
    # Under the identity channel the symbols are the states, and the
    # sticky chain never moves from -1 to +1.
    symbols = [0, 0, -1, 1, 0]
    for decode in (gh.viterbi_decode, brute_force_mlse):
        with pytest.raises(gh.InfeasibleObservationError, match="every path dies at step 3$"):
            decode(symbols, model)

    # Monte Carlo records come from the model itself and are feasible.
    # Decoding them as if the chain never moved makes the first state
    # change of trial 0 the dead step.
    hidden = gh.simulate_states(model, 100, gh.RngStream(3, stream_index=0))
    change = int(np.argmax(hidden[1:] != hidden[:-1])) + 1
    assert hidden[change] != hidden[0]
    frozen = gh.HmmModel(transitions=np.eye(3), emissions=model.emissions, initial=model.initial)
    monkeypatch.setattr(simulate, "_Memo", lambda m: viterbi._Memo(frozen))
    with pytest.raises(gh.InfeasibleObservationError, match=f"every path dies at step {change}$"):
        gh.run_monte_carlo(model, 100, 5, base_seed=3)
