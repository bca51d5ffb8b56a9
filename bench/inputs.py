"""Seeded benchmark inputs, made with numpy alone.

Nothing here imports gridhmm, so a change to the program cannot change
the inputs it is measured on.  Every workload uses one "sticky" chain:
its zero transitions exercise the decoder's -inf paths, and at this
noise level the decoder really corrects the per-symbol detector (on the
README chain the two estimators tie, which hides the decoder's work).
"""
from __future__ import annotations

import bisect
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRANSITIONS = np.array([[0.9, 0.1, 0.0], [0.05, 0.9, 0.05], [0.0, 0.1, 0.9]])
MEANS = (49.0, 50.0, 51.0)
SIGMA = 0.35
PRIORS = (0.1, 0.8, 0.1)

# Sizes are set so that one CLI call takes 0.7-2.5 s on a 2-core machine
# and a 20 s run collects enough samples for a steady median.
MC_TRIALS = 2000
MC_LENGTH = 100
MC_THREADS = 2
DECODE_ROWS = 200_000
SIMULATE_LENGTH = 200_000

WORKLOADS = ("montecarlo", "decode", "simulate")
TRUTH = "truth.npz"  # the decode input's hidden states and measurements, for the checks


@dataclass
class Inputs:
    """One workload's generated files and the CLI arguments that use them."""

    workload: str
    argv: list[str]
    config: Path
    steps: int
    hidden: np.ndarray | None = None  # true state indices behind a decode input
    z_hz: np.ndarray | None = None


def config_text(*, length: int, trials: int, seed: int) -> str:
    rows = "\n".join(" ".join(repr(float(p)) for p in row) for row in TRANSITIONS)
    return (
        f"means = {' '.join(repr(m) for m in MEANS)}\n"
        f"sigma = {SIGMA!r}\n"
        f"priors = {' '.join(repr(p) for p in PRIORS)}\n"
        f"k = {length}\n"
        f"trials = {trials}\n"
        f"seed = {seed}\n"
        f"[transitions]\n{rows}\n"
    )


def hidden_path(rng: np.random.Generator, length: int) -> np.ndarray:
    """State indices 0..2 of a chain path drawn by inverse-CDF sampling."""
    cum_init = np.cumsum(PRIORS).tolist()
    cum_rows = [np.cumsum(row).tolist() for row in TRANSITIONS]
    u = rng.random(length).tolist()
    out = np.empty(length, dtype=np.int64)
    j = min(bisect.bisect_right(cum_init, u[0]), 2)
    out[0] = j
    for k in range(1, length):
        j = min(bisect.bisect_right(cum_rows[j], u[k]), 2)
        out[k] = j
    return out


def prepare(workload: str, seed: int, work: Path) -> Inputs:
    """Write the workload's inputs under ``work``; the same seed gives the same bytes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cli_seed = int(rng.integers(2**32))
    config = work / f"{workload}.cfg"
    if workload == "montecarlo":
        config.write_text(config_text(length=MC_LENGTH, trials=MC_TRIALS, seed=cli_seed))
        argv = ["montecarlo", "--config", str(config), "--threads", str(MC_THREADS)]
        return Inputs(workload, argv, config, MC_TRIALS * MC_LENGTH)
    if workload == "simulate":
        config.write_text(config_text(length=SIMULATE_LENGTH, trials=1, seed=cli_seed))
        return Inputs(workload, ["simulate", "--config", str(config)], config, SIMULATE_LENGTH)
    if workload == "decode":
        config.write_text(config_text(length=DECODE_ROWS, trials=1, seed=cli_seed))
        hidden = hidden_path(rng, DECODE_ROWS)
        z = np.asarray(MEANS)[hidden] + SIGMA * rng.standard_normal(DECODE_ROWS)
        data = work / "measurements.csv"
        lines = [f"{k},{v!r}" for k, v in enumerate(z.tolist(), start=1)]
        data.write_text("k,z_hz\n" + "\n".join(lines) + "\n")
        np.savez(work / TRUTH, hidden=hidden, z_hz=z)
        argv = ["decode", "--config", str(config), "--input", str(data)]
        return Inputs(workload, argv, config, DECODE_ROWS, hidden=hidden, z_hz=z)
    raise ValueError(f"unknown workload {workload!r}")


def load(workload: str, work: Path, steps: int) -> Inputs:
    """The parts of prepared inputs that the output checks need."""
    given = Inputs(workload, [], work / f"{workload}.cfg", steps)
    if (work / TRUTH).is_file():
        with np.load(work / TRUTH) as truth:
            given.hidden, given.z_hz = truth["hidden"], truth["z_hz"]
    return given


def main(argv: list[str]) -> int:
    """``inputs.py WORKLOAD SEED WORKDIR``: write the inputs, print what was made as JSON."""
    workload, seed, work = argv
    given = prepare(workload, int(seed), Path(work))
    print(json.dumps({"argv": given.argv, "config": str(given.config), "steps": given.steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
