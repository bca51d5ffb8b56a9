"""Golden outputs: the SHA-256 of the CSV-writing subcommands' stdout is pinned.

The chain is the benchmark's "sticky" one (zero transitions, a noise
level at which the decoder really corrects the detector).  One
``montecarlo`` case has many short trials, the other a few trials long
enough that each fills a batch of the Monte Carlo kernel on its own.
The ``decode`` cases read a 2e4-row ``k,z_hz`` file made with numpy
alone: noisy measurements of the sticky chain, and symbols of the
engineered-tie model (several hundred steps where two successors score
equally, so ``TIE_EPS`` decides them); ``detect`` reads the sticky
file.  The ``simulate`` cases run the sticky chain and the
engineered-tie chain for 2**14 + 5 steps, across the first chunk
boundary of the decoder's choice table.  The reducible cases run
``montecarlo`` and ``decode`` (of the sticky file) under the block chain
``[[.5,.5,0],[.5,.5,0],[0,0,1]]`` and the identity, whose zero-width
categories the sampler skips and whose scores to go drift apart, so the
decoder's memo restarts.  The ``emission``, ``predict``
and ``sweep`` cases print cells that fixed notation does not cover:
exact 0 and 1, subnormal and tiny probabilities, ``nan``.  A change to
sampling order, tie handling, summation order or output formatting
shows up here as a new digest.
"""
import hashlib

import numpy as np
import pytest

from gridhmm.cli import main

STICKY_CFG = """\
means = 49.0 50.0 51.0
sigma = 0.35
priors = 0.1 0.8 0.1
k = {length}
trials = {trials}
seed = {seed}

[transitions]
0.9 0.1 0.0
0.05 0.9 0.05
0.0 0.1 0.9
"""

GOLDEN = [
    (300, 100, 20181, "a4e46940144101e2a6fa0cba1c6e4e4b8f936df0f15e9b770238bbf1d9216589"),
    (3, 20000, 20182, "8fd097daab371710df21c03b3766412015f91db1b0f6d13f6bd900e5b07c832e"),
]


@pytest.mark.parametrize("trials,length,seed,digest", GOLDEN)
def test_montecarlo_stdout_digest(tmp_path, capsys, trials, length, seed, digest):
    path = tmp_path / "sticky.cfg"
    path.write_text(STICKY_CFG.format(length=length, trials=trials, seed=seed))
    code = main(["montecarlo", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- decode ---------------------------------------------------------------

TIE_CFG = """\
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
"""

DECODE_ROWS = 20_000
MEANS = np.array([49.0, 50.0, 51.0])


def _chain(gen, initial, transitions, length):
    """State indices 0..2 of a chain path drawn by inverse-CDF sampling."""
    cum_init = np.cumsum(initial)
    cum_rows = np.cumsum(transitions, axis=1)
    u = gen.random(length)
    out = np.empty(length, dtype=np.int64)
    j = min(int(np.searchsorted(cum_init, u[0], side="right")), 2)
    out[0] = j
    for k in range(1, length):
        j = min(int(np.searchsorted(cum_rows[j], u[k], side="right")), 2)
        out[k] = j
    return out


def _sticky_measurements(seed):
    """Measurements of the sticky chain: state means plus Gaussian noise."""
    gen = np.random.default_rng(seed)
    p = np.array([[0.9, 0.1, 0.0], [0.05, 0.9, 0.05], [0.0, 0.1, 0.9]])
    hidden = _chain(gen, [0.1, 0.8, 0.1], p, DECODE_ROWS)
    return MEANS[hidden] + 0.35 * gen.standard_normal(DECODE_ROWS)


def _tie_measurements(seed):
    """Measurements at the means of symbols emitted by the engineered-tie model."""
    gen = np.random.default_rng(seed)
    p = np.array([[0.2, 0.5, 0.3], [0.05, 0.9, 0.05], [0.5, 0.5, 0.0]])
    r = np.array([[0.5, 0.0, 0.5], [0.5, 0.9, 0.5], [0.0, 0.1, 0.0]])
    hidden = _chain(gen, [0.5, 0.2, 0.3], p, DECODE_ROWS)
    cum = np.cumsum(r, axis=0)[:, hidden]  # cum[:, k]: emission CDF of state hidden[k]
    symbols = np.minimum((cum <= gen.random(DECODE_ROWS)).sum(axis=0), 2)
    return MEANS[symbols]


def _measurement_file(tmp_path, z):
    """A ``k,z_hz`` file of the measurements ``z``."""
    data = tmp_path / "m.csv"
    data.write_text("k,z_hz\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(z.tolist(), start=1)))
    return data


DECODE_GOLDEN = [
    (
        "sticky",
        STICKY_CFG.format(length=DECODE_ROWS, trials=1, seed=0),
        _sticky_measurements,
        20183,
        "94ca63fa2a4999eefbfd38833d4a3d4345872e394ef474055476b69c3898ef5f",
    ),
    (
        "tie",
        TIE_CFG,
        _tie_measurements,
        20184,
        "1057b8f339ad1eec5c198b693166223e7de5f7cc5c579990df015880c0fc0536",
    ),
]


@pytest.mark.parametrize(
    "name,config,measurements,seed,digest", DECODE_GOLDEN, ids=[g[0] for g in DECODE_GOLDEN]
)
def test_decode_stdout_digest(tmp_path, capsys, name, config, measurements, seed, digest):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config)
    data = _measurement_file(tmp_path, measurements(seed))
    code = main(["decode", "--config", str(cfg), "--input", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REDUCIBLE_GOLDEN = [
    (
        "block",
        "0.5 0.5 0.0\n0.5 0.5 0.0\n0.0 0.0 1.0\n",
        20187,
        "4ad19f7249b286ffeb753b43645c4132247bac32e3f79d53c59122b4097e0735",
        "842e438462595b81c7bade654e3215d5ff7f2ea0d3b235df1037deb9172d672a",
    ),
    (
        "identity",
        "1.0 0.0 0.0\n0.0 1.0 0.0\n0.0 0.0 1.0\n",
        20188,
        "3a64ec7bb9248e02f821675bc1833ac73ab70bd532cfd5e0b07ebd8af63a45fe",
        "b8b820f1949b6ac8d8716bf6b89c89f4982717f22c442e68b5499927fbc3b9cb",
    ),
]


@pytest.mark.parametrize(
    "name,transitions,seed,montecarlo,decode", REDUCIBLE_GOLDEN, ids=[g[0] for g in REDUCIBLE_GOLDEN]
)
def test_reducible_chain_stdout_digests(tmp_path, capsys, name, transitions, seed, montecarlo, decode):
    # 300 trials x K=100, and the sticky measurements decoded, under the chain.
    sticky = STICKY_CFG.format(length=100, trials=300, seed=seed)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(sticky[: sticky.index("[transitions]")] + "[transitions]\n" + transitions)
    data = _measurement_file(tmp_path, _sticky_measurements(20183))
    for command, digest in [(["montecarlo"], montecarlo), (["decode", "--input", str(data)], decode)]:
        code = main([*command, "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command[0]


DETECT_DIGEST = "e09c03641e026afff2f3edc3d3eaf7f6f99541a82c96e48ed087d7502b15ddce"


def test_detect_stdout_digest(tmp_path, capsys):
    cfg = tmp_path / "sticky.cfg"
    cfg.write_text(STICKY_CFG.format(length=DECODE_ROWS, trials=1, seed=0))
    data = _measurement_file(tmp_path, _sticky_measurements(20183))
    code = main(["detect", "--config", str(cfg), "--input", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DETECT_DIGEST


# --- simulate -------------------------------------------------------------

SIMULATE_ROWS = 2**14 + 5

SIMULATE_GOLDEN = [
    (
        "sticky",
        STICKY_CFG.format(length=SIMULATE_ROWS, trials=1, seed=20185),
        "a32da03f29147ab4cc2e370754f6c4e2cb9c67d20bcc13c8c2ac7d453ef0fdbe",
    ),
    (
        "tie",
        f"k = {SIMULATE_ROWS}\nseed = 20186\n" + TIE_CFG,
        "ca9cb2c20e58c1fde67d0c0ab36b2c58ae0a70738d96f6071afe94a80677e028",
    ),
]


@pytest.mark.parametrize(
    "name,config,digest", SIMULATE_GOLDEN, ids=[g[0] for g in SIMULATE_GOLDEN]
)
def test_simulate_stdout_digest(tmp_path, capsys, name, config, digest):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config)
    code = main(["simulate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == SIMULATE_ROWS + 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- emission, predict, sweep ---------------------------------------------

SMALL_GOLDEN = [
    (
        "emission",
        "means = 49.0 50.0 51.0\nsigma = 0.06\npriors = 0.1 0.8 0.1\n",
        "211b1c125069042524fd4157d568e403e3de53df922bebee2cc79bfcd77b5a12",
    ),
    (
        # A chain with zero transitions: p_neg falls through the
        # subnormals to exact 0.
        "predict",
        "means = 49.0 50.0 51.0\nsigma = 0.35\npriors = 0.98 0.01 0.01\nhorizon = 120\n\n"
        "[transitions]\n0.001 0.999 0.0\n0.0 0.5 0.5\n0.0 0.0 1.0\n",
        "971c3d24e5978032de24380bd102adc8fd6dc1a80d3b30262ef038ca0c22a68f",
    ),
    (
        # Two degenerate points (nan cells) and a negative snr_db.
        "sweep",
        "means = 49.99 50 50.01\nsigma = 0.2\npriors = 0.499 0.002 0.499\n"
        "sigma_grid = 5 0.001 1e-5 0.004 1e-6\n",
        "c3fe8cfa3f2bf51797ddd800e730e6ce232111bdee450e4bd03598cd7c6604ca",
    ),
]


@pytest.mark.parametrize("command,config,digest", SMALL_GOLDEN, ids=[g[0] for g in SMALL_GOLDEN])
def test_small_output_stdout_digest(tmp_path, capsys, command, config, digest):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config)
    code = main([command, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
