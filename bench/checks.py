"""Checks on the CLI's output: schema, row counts and statistics.

Every check returns a list of problems; an empty list means the output
passed.  The reference quantities (emission matrix, thresholds) come
from the CLI's own ``emission`` output, and everything else is
recomputed here with numpy alone.  Run as a script, this module checks
one workload output read from stdin, in a process of its own, so the
benchmark process stays small (a child's peak RSS counts its parent's).
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs as inp

# Statistical checks allow this many standard errors; a false alarm at
# 5 SE has a probability below 1e-6 per check.
Z_LIMIT = 5.0


@dataclass(frozen=True)
class Reference:
    """The detector as the CLI reports it: ``emissions[symbol, state]`` and thresholds."""

    emissions: np.ndarray
    thresholds: tuple[float, float]


def _lines(data: bytes, header: str) -> list[str]:
    text = data.decode("ascii")
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    return lines[1:]


def _columns(data: bytes, header: str, rows: int) -> list[list[str]]:
    lines = _lines(data, header)
    if len(lines) != rows:
        raise ValueError(f"{len(lines)} data rows, expected {rows}")
    width = header.count(",") + 1
    cells = [line.split(",") for line in lines]
    if any(len(c) != width for c in cells):
        raise ValueError(f"a row does not have {width} fields")
    return [list(col) for col in zip(*cells)]


def _ints(col: list[str]) -> np.ndarray:
    return np.array(col).astype(np.int64)


def parse_emission(data: bytes, stderr: str) -> Reference:
    """Read the emission matrix from stdout and the thresholds from the status line."""
    lines = _lines(data, "emitted,given_neg,given_zero,given_pos")
    if [line.split(",")[0] for line in lines] != ["-1", "0", "1"]:
        raise ValueError("emission rows are not -1, 0, 1")
    r = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    if r.shape != (3, 3) or np.any(np.abs(r.sum(axis=0) - 1.0) > 1e-9):
        raise ValueError("emission matrix is not 3x3 column-stochastic")
    found = dict(re.findall(r"(delta_neg_zero|delta_zero_pos)=(\S+)", stderr))
    if len(found) != 2:
        raise ValueError("thresholds missing from the emission status line")
    return Reference(r, (float(found["delta_neg_zero"]), float(found["delta_zero_pos"])))


def classify(z: np.ndarray, thresholds: tuple[float, float]) -> np.ndarray:
    """Symbols of the threshold test; a value on a boundary goes right."""
    low, high = thresholds
    return np.where(z < low, -1, np.where(z < high, 0, 1))


def _within(observed: float, expected: float, se: float) -> bool:
    return abs(observed - expected) <= Z_LIMIT * se + 1e-12


def _log_params(ref: Reference):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(inp.PRIORS)), np.log(inp.TRANSITIONS), np.log(ref.emissions)


def path_log_score(x: np.ndarray, s: np.ndarray, ref: Reference) -> float:
    """Log joint probability of state indices ``s`` and symbol indices ``x``."""
    log_init, log_trans, log_emit = _log_params(ref)
    return float(log_init[s[0]] + log_emit[x, s].sum() + log_trans[s[:-1], s[1:]].sum())


def best_log_score(x: np.ndarray, ref: Reference) -> float:
    """Largest log joint probability over all state paths, by a forward max-plus pass."""
    log_init, log_trans, log_emit = _log_params(ref)
    lt = log_trans.tolist()
    le = log_emit.tolist()
    xs = x.tolist()
    v = [log_init[j] + le[xs[0]][j] for j in range(3)]
    for xk in xs[1:]:
        e = le[xk]
        v = [max(v[0] + lt[0][j], v[1] + lt[1][j], v[2] + lt[2][j]) + e[j] for j in range(3)]
    return max(v)


def check_decode(data: bytes, ref: Reference, given: inp.Inputs) -> list[str]:
    k, z_txt, x_txt, s_txt = _columns(data, "k,z_hz,x,s_star", given.steps)
    problems = []
    if not np.array_equal(_ints(k), np.arange(1, given.steps + 1)):
        problems.append("k column is not the input's 1..N")
    z = np.array(z_txt, dtype=float)
    if not np.array_equal(z, given.z_hz):
        problems.append("z_hz does not reproduce the input bit for bit")
    x = _ints(x_txt)
    s = _ints(s_txt)
    if not np.array_equal(x, classify(z, ref.thresholds)):
        problems.append("x disagrees with the threshold test")
    if np.any(np.abs(s) > 1):
        return problems + ["s_star has a value outside {-1, 0, 1}"]
    score = path_log_score(x + 1, s + 1, ref)
    best = best_log_score(x + 1, ref)
    if not abs(score - best) <= 1e-9 * max(1.0, abs(best)):
        problems.append(f"s_star scores {score!r}, the optimum is {best!r}")
    ht = np.mean(x + 1 == given.hidden)
    va = np.mean(s + 1 == given.hidden)
    if not va > ht:
        problems.append(f"decoder accuracy {va:.4f} does not beat the detector's {ht:.4f}")
    return problems


def check_simulate(data: bytes, ref: Reference, given: inp.Inputs) -> list[str]:
    k, s_txt, z_txt, x_txt = _columns(data, "k,s,z_hz,x", given.steps)
    problems = []
    if not np.array_equal(_ints(k), np.arange(1, given.steps + 1)):
        problems.append("k column is not 1..K")
    s = _ints(s_txt)
    z = np.array(z_txt, dtype=float)
    x = _ints(x_txt)
    if np.any(np.abs(s) > 1):
        return problems + ["s has a value outside {-1, 0, 1}"]
    if not np.array_equal(x, classify(z, ref.thresholds)):
        problems.append("x disagrees with the threshold test")
    idx = s + 1
    counts = np.zeros((3, 3), dtype=np.int64)
    np.add.at(counts, (idx[:-1], idx[1:]), 1)
    for i in range(3):
        n_i = counts[i].sum()
        for j in range(3):
            p = inp.TRANSITIONS[i, j]
            freq = counts[i, j] / n_i if n_i else 0.0
            if p == 0.0 and counts[i, j]:
                problems.append(f"{counts[i, j]} transitions {i - 1}->{j - 1}, which has P=0")
            elif n_i and not _within(freq, p, math.sqrt(p * (1 - p) / n_i)):
                problems.append(f"transition {i - 1}->{j - 1} frequency {freq:.4f}, P={p}")
    for j in range(3):
        mask = idx == j
        n = int(mask.sum())
        if n == 0:
            continue
        if not _within(float(z[mask].mean()), inp.MEANS[j], inp.SIGMA / math.sqrt(n)):
            problems.append(f"mean z_hz in state {j - 1} is {z[mask].mean():.5f}")
        p = ref.emissions[j, j]
        hit = float(np.mean(x[mask] == j - 1))
        if not _within(hit, p, math.sqrt(p * (1 - p) / n)):
            problems.append(f"detection rate in state {j - 1} is {hit:.4f}, expected {p:.4f}")
    return problems


def expected_ht_pct(ref: Reference, length: int) -> float:
    """Analytic mean accuracy of the per-symbol test over a length-K path, in percent."""
    v = np.asarray(inp.PRIORS, dtype=float)
    occupancy = np.zeros(3)
    for _ in range(length):
        occupancy += v
        v = v @ inp.TRANSITIONS
    return 100.0 * float(occupancy @ np.diagonal(ref.emissions)) / length


def check_montecarlo(data: bytes, ref: Reference, given: inp.Inputs) -> list[str]:
    lines = [line.split(",") for line in _lines(data, "field,bin,ht,va")]
    if len(lines) != 3 + 101 or any(len(c) != 4 for c in lines):
        raise ValueError(f"{len(lines)} rows, expected 104 rows of 4 fields")
    trials = inp.MC_TRIALS
    problems = []
    if lines[0] != ["trials", "", str(trials), str(trials)]:
        problems.append(f"trials row is {lines[0]}")
    if [c[:2] for c in lines[1:3]] != [["mean_pct", ""], ["std_pct", ""]]:
        problems.append("mean_pct/std_pct rows are missing")
    if [c[:2] for c in lines[3:]] != [["hist", str(b)] for b in range(101)]:
        problems.append("histogram rows are not bins 0..100")
    means = [float(v) for v in lines[1][2:]]
    stds = [float(v) for v in lines[2][2:]]
    bins = np.arange(101)
    upper = np.minimum(bins + 1, 100)
    for col, name in ((2, "ht"), (3, "va")):
        h = _ints([c[col] for c in lines[3:]])
        mean = means[col - 2]
        if h.sum() != trials or np.any(h < 0):
            problems.append(f"{name} histogram counts {h.sum()} trials")
        elif not (bins @ h / trials - 1e-9 <= mean <= upper @ h / trials + 1e-9):
            problems.append(f"{name} mean {mean} lies outside its histogram's range")
        if not stds[col - 2] >= 0.0:
            problems.append(f"{name} std is {stds[col - 2]}")
    expected = expected_ht_pct(ref, inp.MC_LENGTH)
    if not _within(means[0], expected, stds[0] / math.sqrt(trials)):
        problems.append(f"ht mean {means[0]:.4f}%, analytic {expected:.4f}%")
    if not means[1] > means[0]:
        problems.append(f"va mean {means[1]} does not beat ht mean {means[0]}")
    return problems


CHECKS = {"montecarlo": check_montecarlo, "decode": check_decode, "simulate": check_simulate}


def output_problems(given: inp.Inputs, data: bytes, ref: Reference) -> list[str]:
    """Schema, row-count and statistical problems of one workload output."""
    try:
        return [f"{given.workload}: {p}" for p in CHECKS[given.workload](data, ref, given)]
    except (ValueError, OverflowError, UnicodeDecodeError) as exc:
        return [f"{given.workload}: malformed output: {exc}"]


def main(argv: list[str]) -> int:
    """``checks.py WORKLOAD WORKDIR STEPS < OUTPUT``: print the output's problems as JSON.

    WORKDIR holds the prepared inputs and the ``emission.out`` and
    ``emission.err`` streams of one ``gridhmm emission`` run.
    """
    workload, work, steps = argv[0], Path(argv[1]), int(argv[2])
    data = sys.stdin.buffer.read()
    try:
        ref = parse_emission((work / "emission.out").read_bytes(), (work / "emission.err").read_text())
    except (OSError, ValueError) as exc:
        problems = [f"emission: {exc}"]
    else:
        problems = output_problems(inp.load(workload, work, steps), data, ref)
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
