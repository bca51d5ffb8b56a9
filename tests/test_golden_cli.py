"""Golden outputs: the SHA-256 of ``gridhmm montecarlo`` stdout is pinned.

The chain is the benchmark's "sticky" one (zero transitions, a noise
level at which the decoder really corrects the detector).  One case has
many short trials, the other a few trials long enough that each fills
a batch of the Monte Carlo kernel on its own.  A change to sampling
order, tie handling or summation order shows up here as a new digest.
"""
import hashlib

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
