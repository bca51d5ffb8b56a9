"""The chunked ``simulate`` trace against the whole-array draws it replaces.

``gridhmm simulate`` samples the chain ``simulate._CHUNK`` steps at a
time, carrying the last state into the next chunk, and draws the
Gaussians a chunk at a time from the stream's words after the chain's K
uniforms, all computed without ``numpy.random``.  The reference here
draws the same stream in one piece, as ``simulate_states`` and
``synthesize_measurements`` once did: ``random(K)``, the chain from
those uniforms, then ``normal`` around each state's mean.  Lengths sit
on and around the chunk seams.
"""
import contextlib
import io

import numpy as np
import pytest

import gridhmm as gh
from gridhmm import simulate
from gridhmm.cli import main
from gridhmm.config import parse_config

from conftest import oracle_generator, reference_write

ROWS = simulate._CHUNK

CHAINS = {
    "sticky": """\
means = 49.0 50.0 51.0
sigma = 0.35
priors = 0.1 0.8 0.1
[transitions]
0.9 0.1 0.0
0.05 0.9 0.05
0.0 0.1 0.9
""",
    # The engineered-tie model of the decoder tests: the last transition
    # row has a zero-width category, and a chunk's first step may have
    # to skip it.
    "tie": """\
means = 49.0 50.0 51.0
sigma = 0.35
priors = 0.5 0.2 0.3
[transitions]
0.2 0.5 0.3
0.05 0.9 0.05
0.5 0.5 0.0
[emission_matrix]
0.5 0.0 0.5
0.5 0.9 0.5
0.0 0.1 0.0
""",
}

LENGTHS = [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1]


def _config(tmp_path, name, length, seed):
    path = tmp_path / f"{name}.cfg"
    path.write_text(f"k = {length}\nseed = {seed}\n" + CHAINS[name])
    return parse_config(str(path)), str(path)


def _reference(cfg, seed):
    """Hidden state indices and measurements drawn whole from the stream by numpy's Generator."""
    generator = oracle_generator(seed, 0)
    tables = simulate._Tables.of(cfg.model())
    u = generator.random(cfg.length)
    hidden = simulate._sample_chain(tables, u[:, None], tables.cum_init)[:, 0]
    z = generator.normal(np.asarray(cfg.params.means)[hidden], cfg.params.sigma)
    return hidden, z


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("length", LENGTHS)
def test_cli_trace_equals_whole_array_draws(tmp_path, name, length):
    seed = 7000 + length
    cfg, path = _config(tmp_path, name, length, seed)
    hidden, z = _reference(cfg, seed)
    x = gh.classify(z, gh.compute_thresholds(cfg.params))
    k = np.arange(1, length + 1)
    want = reference_write(["k", "s", "z_hz", "x"], k, hidden.astype(np.int64) - 1, z, x)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["simulate", "--config", path]) == 0
    got, want = out.getvalue().splitlines(), want.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    # Compared through ``first``: pytest's diff of two 3e4-line lists takes minutes.
    assert first == len(got) == len(want), f"line {first} differs"


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("length", LENGTHS)
def test_simulate_states_draws_as_one_array(tmp_path, name, length):
    # The chunks joined are the whole-array path, and the stream is left
    # where random(length) leaves it, so later draws are unchanged.
    seed = 9000 + length
    cfg, _ = _config(tmp_path, name, length, seed)
    hidden, _ = _reference(cfg, seed)
    rng = gh.RngStream(seed, 0)
    states = gh.simulate_states(cfg.model(), length, rng)
    assert states.dtype == np.int64
    assert np.array_equal(states, hidden.astype(np.int64) - 1)
    whole = oracle_generator(seed, 0)
    whole.random(length)
    assert oracle_generator(seed, 0, rng._offset).bit_generator.state == whole.bit_generator.state
    assert np.array_equal(rng.random(5), whole.random(5))
