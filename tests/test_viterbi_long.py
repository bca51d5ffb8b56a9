"""The decoder on long records, against a per-step numpy reference.

``reference_decode`` is the decoder written the plain way: one array
operation per step for the backward pass and one per step for the
reconstruction.  ``viterbi_decode`` must return the same array on every
record here, ties included, and report the same infeasible step.
"""
import numpy as np
import pytest

import gridhmm as gh
from gridhmm.viterbi import TIE_EPS, _log_params, _symbol_indices

from test_batch_kernel import MODELS


def reference_decode(symbols, model):
    x = _symbol_indices(symbols, "symbols")
    log_init, log_trans, log_emit = _log_params(model)
    n = x.size
    to_go = np.zeros((n, 3))
    for k in range(n - 2, -1, -1):
        cand = log_trans + (log_emit[x[k + 1]] + to_go[k + 1])[None, :]
        to_go[k] = cand.max(axis=1)
    head = log_init + log_emit[x[0]] + to_go[0]
    best = float(head.max())
    if not np.isfinite(best):
        raise gh.InfeasibleObservationError("infeasible")
    out = np.empty(n, dtype=np.int64)
    out[0] = int(np.argmax(head >= best - TIE_EPS))
    for k in range(n - 1):
        cand = log_trans[out[k]] + log_emit[x[k + 1]] + to_go[k + 1]
        out[k + 1] = int(np.argmax(cand >= float(cand.max()) - TIE_EPS))
    return out - 1


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("length", [1, 2, 3, 37, 50_000])
def test_decode_equals_per_step_reference(name, length):
    model = MODELS[name]
    rng = gh.RngStream(11, stream_index=length)
    symbols = gh.emit_symbols(gh.simulate_states(model, length, rng), model.emissions, rng)
    got = gh.viterbi_decode(symbols, model)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_decode(symbols, model))


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


def test_long_tie_resolves_lexicographically():
    # The first pair of -1 symbols is emitted equally well by (-1, +1) and
    # (+1, -1); every later pair only by (+1, -1).  The two tied scores
    # are sums over the whole record, formed in different orders.
    model = MODELS["tie"]
    symbols = np.tile([-1, -1, 1, 1], 50_000)
    decoded = gh.viterbi_decode(symbols, model)
    assert tuple(decoded[:2]) == (-1, 1)
    assert np.array_equal(decoded[2:], np.tile([0, 0, 1, -1], 50_000)[:-2])
