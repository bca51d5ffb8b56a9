"""Alternate the benchmark of two revisions and compare their end-to-end metrics.

    python3 tools/ab.py --base REV --change REV --seeds 1 2 --pairs 10 \
        --workload all --seconds 3 --out BENCH_<pr>.json

Both revisions are exported with ``git archive`` into ``parent`` and
``change`` under one new directory, so the two checkouts' paths are
equally long (peak RSS moves with the length of the paths a process
loads from).  Each one runs its own, unchanged ``bench/run.py``, parent
first in odd pairs and change first in even ones, and the last line of
each run's stdout, one JSON object, gives its metrics.

Per seed, workload and metric the output holds each side's median and
quartiles, the change's pairs better than the parent's (ties count for
neither), the relative change of the medians, and whether it is
resolved: the medians differ by more than the parent's interquartile
range.  A gain is met when the change is better in at least nine tenths
of the pairs and resolved.  A metric's direction and bound come from the
change's ``BENCHMARK.json``.  Every run's values are kept as well.

Every run also times start-up alone: ``python -m gridhmm emission`` of
each checkout on a small config that the driver writes, in
``STARTUP_PAIRS`` interleaved pairs, parent first in odd pairs.  The
``startup`` entry holds the statistics above and the change minus
parent difference of the medians, with a seeded bootstrap 95 % interval
over the pairs.  Only the standard library and ``git`` are used.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # equally long names, so equally long paths
STARTUP_PAIRS = 40
STARTUP_CONFIG = "means = 49 50 51\nsigma = 0.35\npriors = 0.1 0.8 0.1\n"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated as numpy's default ``percentile``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str, bound: float | None = None) -> dict:
    """Statistics of one metric over pairs ``(parent[i], change[i])``; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    relative = (cm - pm) / pm if pm else float("nan")
    resolved = abs(cm - pm) > p3 - p1
    out = {
        "better": better,
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "relative_change": relative,
        "change_better": f"{wins}/{len(parent)}",
        "resolved": resolved,
        "gain_met": wins >= 0.9 * len(parent) and resolved and sign * (cm - pm) > 0,
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = not (-sign * relative > bound)
    return out


def bootstrap_difference(parent: list[float], change: list[float], resamples: int = 2000, seed: int = 0):
    """The 2.5 % and 97.5 % points of median(change) - median(parent) over pairs drawn with replacement."""
    rng = random.Random(seed)
    differences = []
    for _ in range(resamples):
        drawn = rng.choices(range(len(parent)), k=len(parent))
        differences.append(
            statistics.median(change[i] for i in drawn) - statistics.median(parent[i] for i in drawn)
        )
    cuts = statistics.quantiles(differences, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def startup(parent: list[float], change: list[float]) -> dict:
    """The ``startup`` entry of the report: :func:`compare` of the emission walls, and the bootstrap."""
    entry = compare(parent, change, "lower")
    low, high = bootstrap_difference(parent, change)
    difference = entry["change"]["median"] - entry["parent"]["median"]
    return {
        "command": "python -m gridhmm emission",
        "pairs": len(parent),
        **entry,
        "difference": {"median": difference, "low": low, "high": high},
        "runs": {"parent": parent, "change": change},
    }


def time_emission(checkout: Path, config: Path) -> float:
    """The wall seconds of one ``python -m gridhmm emission`` process of ``checkout``."""
    path = [str(checkout / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, "-m", "gridhmm", "emission", "--config", str(config)]
    start = time.perf_counter()
    subprocess.run(argv, cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def metrics_of(summary: dict, workload: str) -> dict[str, dict[str, float]]:
    """``{workload: {metric: value}}`` of a ``bench/run.py`` summary; ``workload`` names unprefixed keys."""
    out: dict[str, dict[str, float]] = {}
    for key, entry in summary["metrics"].items():
        name, _, metric = key.rpartition(".")
        out.setdefault(name or workload, {})[metric] = entry["value"]
    return out


def summarize(runs: list[dict], selected: str, metrics: dict[str, dict]) -> dict:
    """``{workload: {metric: compare(...)}}`` over the pairs of ``runs`` in which both sides report it.

    Each run is ``{"parent": summary, "change": summary}`` of a run with
    ``--workload selected``; ``metrics`` maps each compared metric's name
    to its ``BENCHMARK.json`` entry.
    """
    pairs: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in runs:
        parent, change = (metrics_of(r[side], selected) for side in SIDES)
        for workload, values in change.items():
            for name, value in values.items():
                if name in metrics and name in parent.get(workload, {}):
                    pairs.setdefault((workload, name), []).append((parent[workload][name], value))
    table: dict[str, dict] = {}
    for (workload, name), got in pairs.items():
        parent, change = map(list, zip(*got))
        entry = compare(parent, change, metrics[name]["better"], metrics[name].get("bound"))
        table.setdefault(workload, {})[name] = {**entry, "runs": {"parent": parent, "change": change}}
    return table


def export(rev: str, target: Path) -> str:
    """Write the files of ``rev`` to ``target``; returns its commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(target, filter="data")
    return commit


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run of ``checkout``: its JSON summary, with its machine line as ``machine``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    lines = subprocess.run(argv, cwd=checkout, capture_output=True, text=True).stdout.splitlines()
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("machine:")), None)
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):  # a run that died before its summary
        summary = {"correct": False, "metrics": {}}
    return {"machine": machine, **summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="the parent revision (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="the changed revision (default HEAD)")
    parser.add_argument("--workload", default="all", help="bench/run.py --workload (default all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0, help="bench/run.py --seconds")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        checkouts = {side: Path(work) / side for side in SIDES}
        commits = {side: export(rev, checkouts[side]) for side, rev in zip(SIDES, (args.base, args.change))}
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        report = {
            "base": {"rev": args.base, "commit": commits["parent"]},
            "change": {"rev": args.change, "commit": commits["change"]},
            "command": f"bench/run.py --workload {args.workload} --seconds {args.seconds:g}",
            "pairs": args.pairs,
            "seeds": {},
        }
        config = Path(work) / "startup.cfg"
        config.write_text(STARTUP_CONFIG)
        walls: dict[str, list[float]] = {side: [] for side in SIDES}
        for pair in range(1, STARTUP_PAIRS + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                walls[side].append(time_emission(checkouts[side], config))
        report["startup"] = startup(walls["parent"], walls["change"])
        for seed in args.seeds:
            runs = []
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                done = {side: run(checkouts[side], args.workload, seed, args.seconds) for side in order}
                runs.append(done)
                print(f"seed {seed} pair {pair}/{args.pairs}: "
                      + " ".join(f"{s} correct={done[s].get('correct')}" for s in SIDES), file=sys.stderr)
            report["machine"] = runs[0]["change"]["machine"]
            report["seeds"][str(seed)] = {
                "correct": {side: all(r[side].get("correct") for r in runs) for side in SIDES},
                "failed": {side: sum(r[side].get("failed", 1) for r in runs) for side in SIDES},
                "workloads": summarize(runs, args.workload, metrics),
            }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(s["correct"]["change"] for s in report["seeds"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
