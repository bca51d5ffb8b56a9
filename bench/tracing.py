"""Per-layer spans around gridhmm's public functions, without touching its source.

Run as ``python tracing.py METRICS_FILE SUBCOMMAND [ARGS...]`` (with
gridhmm importable): it wraps every public function of the seven
modules in every module namespace where the CLI looks it up, plus the
``RngStream`` constructor and the CLI's subcommand handler, and runs
``gridhmm.cli.main`` in this process.  Spans are kept in memory; when
the CLI returns, the per-layer metrics are computed from them and
written to METRICS_FILE as JSON.  Each span records its
parent through a thread-local stack; a span opened on a pool thread
with nothing open on that thread gets the innermost span open on the
main thread as its parent, which is the call that is waiting on the pool.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("config", "detector", "gaussian", "model", "simulate", "viterbi", "cli")

# Bytes of the float64 score-to-go array per decoded step (3 states x 8 B).
SCORE_BYTES_PER_STEP = 24


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = [next(self._ids), parent, name, time.perf_counter(), None, None]
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced


def _decode_attrs(args, states) -> dict:
    return {"steps": int(states.size), "corrected": int(np.count_nonzero(states != args[0]))}


def install(tracer: Tracer) -> None:
    """Replace each public function by a traced one wherever the modules refer to it."""
    mods = {name: importlib.import_module(f"gridhmm.{name}") for name in MODULES}
    attrs = {
        "viterbi.viterbi_decode": _decode_attrs,
        "config.load_measurements": lambda args, series: {"rows": int(series.z_hz.size)},
    }
    for owner, module in mods.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{owner}.{attr}"
            traced = tracer.wrap(name, fn, attrs.get(name))
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, traced)
    cli = mods["cli"]
    for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
        setattr(cli, attr, tracer.wrap("cli.handler", getattr(cli, attr)))
    rng_cls = mods["gaussian"].RngStream
    rng_cls.__init__ = tracer.wrap("gaussian.RngStream", rng_cls.__init__)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_hi = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cur_hi), min(hi, end)
        if hi <= lo:
            continue
        total += hi - lo
        cur_hi = hi
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced CLI run, from its spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_name: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))

    def busy(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(s[4] - s[3] - _covered(s[3], s[4], children[s[0]]) for s in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    decodes = by_name["viterbi.viterbi_decode"]
    steps = sum(s[5]["steps"] for s in decodes)
    corrected = sum(s[5]["corrected"] for s in decodes)
    rows = sum(s[5]["rows"] for s in by_name["config.load_measurements"])
    return {
        "viterbi.viterbi_decode_s": busy("viterbi.viterbi_decode"),
        "viterbi.decode_calls": len(decodes),
        "viterbi.steps_per_s": ratio(steps, busy("viterbi.viterbi_decode")),
        "viterbi.computed_bytes": SCORE_BYTES_PER_STEP * steps,
        "viterbi.corrected_share": ratio(corrected, steps),
        "simulate.simulate_states_s": busy("simulate.simulate_states"),
        "simulate.emit_symbols_s": busy("simulate.emit_symbols"),
        "simulate.run_trial_self_s": self_time("simulate.run_trial"),
        "simulate.run_monte_carlo_self_s": self_time("simulate.run_monte_carlo"),
        "simulate.mc_parallelism": ratio(
            busy("simulate.run_trial"), busy("simulate.run_monte_carlo")
        ),
        "model.require_valid_calls": len(by_name["model.require_valid"]),
        "model.require_valid_s": busy("model.require_valid"),
        "gaussian.rng_streams": len(by_name["gaussian.RngStream"]),
        "gaussian.sample_gaussian_s": busy("gaussian.sample_gaussian"),
        "config.parse_config_s": busy("config.parse_config"),
        "config.load_measurements_s": busy("config.load_measurements"),
        "config.load_rows_per_s": ratio(rows, busy("config.load_measurements")),
        "detector.classify_s": busy("detector.classify"),
        "cli.self_s": self_time("cli.handler"),
    }


def main(argv: list[str]) -> int:
    metrics_file, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from gridhmm import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    metrics_file.write_text(json.dumps(layer_metrics(tracer.spans)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
