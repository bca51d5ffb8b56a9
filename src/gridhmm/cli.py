"""Command-line surface: one subcommand per pipeline stage.

Data goes to the output stream as CSV (LF line endings, ``.`` decimal
point, floats at 17 significant digits so they parse back bit-exactly);
diagnostics and a final ``status=... command=...`` summary line go to
the error stream.  Exit codes: 0 success, 1 validation problem, 2 I/O
problem.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from contextlib import nullcontext
from itertools import chain, islice

import numpy as np

from .config import ConfigError, load_measurements, parse_config
from .detector import classify, compute_thresholds
from .gaussian import RngStream
from .model import build_emission_matrix
from .simulate import (
    _propagate,
    detection_sweep,
    expected_ht_accuracy,
    run_monte_carlo,
    simulate_states,
    synthesize_measurements,
)
from .viterbi import joint_log_prob, viterbi_decode

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation problems: exit 1, not argparse's 2.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _fmt_index(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return format(value, ".17g")


# Rows per write.  Larger chunks save no time and raise peak RSS.
_ROWS = 2**12


def _index_column(index: np.ndarray):
    """``(cell format, column)`` printing each index value like :func:`_fmt_index`.

    Integral indices (every ``k``) print through ``%d``; an index with
    another value is formatted up front, one string per row.
    """
    if np.all(np.trunc(index) == index) and np.all(np.abs(index) < 2.0**63):
        return "%d", index.astype(np.int64)
    return "%s", np.array([_fmt_index(v) for v in index.tolist()], dtype=object)


def _columns(*columns):
    """Rows of equal-length array columns as tuples of Python scalars, converted _ROWS at a time."""
    return chain.from_iterable(
        zip(*(c[lo : lo + _ROWS].tolist() for c in columns))
        for lo in range(0, len(columns[0]), _ROWS)
    )


def _write_csv(target: str, header: list[str], fmt: str, rows) -> None:
    """Write ``header``, then each row tuple through the %-format ``fmt``, as CSV lines.

    ``target`` is a path, or '-'/'stdout' for stdout.  Rows are taken
    from ``rows`` and written _ROWS at a time, one string per write.
    """
    line = fmt + "\n"
    rows = iter(rows)
    to_stdout = target in ("-", "stdout")
    with nullcontext(sys.stdout) if to_stdout else open(target, "w", newline="") as out:
        out.write(",".join(header) + "\n")
        while text := "".join(map(line.__mod__, islice(rows, _ROWS))):
            out.write(text)


def _summary(command: str, **fields) -> None:
    parts = [f"status=ok command={command}"]
    parts += [f"{k}={_fmt(v)}" for k, v in fields.items()]
    print(" ".join(parts), file=sys.stderr)


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError(f"{text!r} does not fit in an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_emission(args) -> int:
    cfg = parse_config(args.config)
    thresholds = compute_thresholds(cfg.params)
    r = build_emission_matrix(cfg.params)
    rows = ((symbol, *r[i].tolist()) for i, symbol in enumerate((-1, 0, 1)))
    header = ["emitted", "given_neg", "given_zero", "given_pos"]
    _write_csv(args.output, header, "%d,%.17g,%.17g,%.17g", rows)
    _summary(
        "emission",
        delta_neg_zero=thresholds.delta_neg_zero,
        delta_zero_pos=thresholds.delta_zero_pos,
    )
    return 0


def _cmd_detect(args) -> int:
    cfg = parse_config(args.config)
    series = load_measurements(args.input)
    thresholds = compute_thresholds(cfg.params)
    symbols = classify(series.z_hz, thresholds)
    cell, index = _index_column(series.index)
    rows = _columns(index, series.z_hz, symbols)
    _write_csv(args.output, [series.index_name, "z_hz", "x"], f"{cell},%.17g,%d", rows)
    _summary("detect", rows=symbols.size)
    return 0


def _cmd_decode(args) -> int:
    cfg = parse_config(args.config)
    series = load_measurements(args.input)
    model = cfg.model()
    thresholds = compute_thresholds(cfg.params)
    symbols = classify(series.z_hz, thresholds)
    states = viterbi_decode(symbols, model)
    cell, index = _index_column(series.index)
    rows = _columns(index, series.z_hz, symbols, states)
    header = [series.index_name, "z_hz", "x", "s_star"]
    _write_csv(args.output, header, f"{cell},%.17g,%d,%d", rows)
    _summary(
        "decode",
        rows=symbols.size,
        log_prob=joint_log_prob(symbols, states, model),
        corrected=int(np.count_nonzero(states != symbols)),
    )
    return 0


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    model = cfg.model()
    rng = RngStream(seed, stream_index=0)
    hidden = simulate_states(model, cfg.length, rng)
    z = synthesize_measurements(hidden, cfg.params, rng)
    symbols = classify(z, compute_thresholds(cfg.params))
    rows = _columns(np.arange(1, cfg.length + 1), hidden, z, symbols)
    _write_csv(args.output, ["k", "s", "z_hz", "x"], "%d,%d,%.17g,%d", rows)
    _summary("simulate", k=cfg.length, seed=seed)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    trials = args.trials if args.trials is not None else cfg.trials
    model = cfg.model()
    summary = run_monte_carlo(model, cfg.length, trials, seed, threads=args.threads)
    rows = [
        ("trials", "", summary.trials, summary.trials),
        ("mean_pct", "", _fmt(summary.ht_mean), _fmt(summary.va_mean)),
        ("std_pct", "", _fmt(summary.ht_std), _fmt(summary.va_std)),
    ]
    hist = zip(summary.histogram_ht, summary.histogram_va)
    rows += [("hist", b, int(ht), int(va)) for b, (ht, va) in enumerate(hist)]
    _write_csv(args.output, ["field", "bin", "ht", "va"], "%s,%s,%s,%s", rows)
    # Analytic cross-check: the z-score of ht_mean against its expectation (nan if ht_std is 0).
    ht_expected = 100.0 * expected_ht_accuracy(model, cfg.length)
    ht_sem = summary.ht_std / math.sqrt(summary.trials)
    _summary(
        "montecarlo",
        trials=summary.trials,
        k=cfg.length,
        seed=seed,
        threads=args.threads,
        ht_mean=summary.ht_mean,
        va_mean=summary.va_mean,
        ht_expected=ht_expected,
        ht_z=(summary.ht_mean - ht_expected) / ht_sem if ht_sem > 0.0 else math.nan,
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if cfg.snr_db_grid is None and cfg.sigma_grid is None:
        raise ConfigError(["'snr_db' or 'sigma_grid' is required for sweep"])
    points = detection_sweep(
        cfg.params, snr_db_grid=cfg.snr_db_grid, sigma_grid=cfg.sigma_grid
    )

    def rows():
        # Notes go out as their rows are written, so none precede an unwritable --output.
        for pt in points:
            if pt.detection is None:
                print(f"note: snr_db={_fmt(pt.snr_db)}: {pt.note}", file=sys.stderr)
                yield (pt.snr_db, pt.sigma, math.nan, math.nan, math.nan)
            else:
                yield (pt.snr_db, pt.sigma, *pt.detection)

    header = ["snr_db", "sigma", "pd_neg", "pd_zero", "pd_pos"]
    _write_csv(args.output, header, ",".join(["%.17g"] * 5), rows())
    _summary("sweep", points=len(points), degenerate=sum(pt.detection is None for pt in points))
    return 0


def _cmd_predict(args) -> int:
    cfg = parse_config(args.config)
    problems = []
    if cfg.transitions is None:
        problems.append("a [transitions] block is required for predict")
    if cfg.horizon is None:
        problems.append("'horizon' is required for predict")
    if problems:
        raise ConfigError(problems)
    forecasts = _propagate(np.array(cfg.params.priors), cfg.transitions, cfg.horizon)
    rows = ((m, *v.tolist()) for m, v in enumerate(forecasts))
    _write_csv(args.output, ["m", "p_neg", "p_zero", "p_pos"], "%d,%.17g,%.17g,%.17g", rows)
    _summary("predict", horizon=cfg.horizon)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gridhmm",
        description="Hidden-Markov estimation of grid frequency deviation states.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name: str, handler, help_text: str, *, needs_input=False, seeded=False, mc=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument(
            "--output", default="-", help="output CSV path, or '-'/'stdout' (default: stdout)"
        )
        if needs_input:
            p.add_argument("--input", required=True, help="measurement CSV (k,z_hz or timestamp,z_hz)")
        if seeded:
            p.add_argument("--seed", type=_u64, default=None, help="override the config seed")
        if mc:
            p.add_argument(
                "--trials", type=_positive_int, default=None, help="override the config trial count"
            )
            p.add_argument(
                "--threads",
                type=_positive_int,
                default=1,
                help="validated (>= 1) but unused: trials run in one process and the output"
                " does not depend on it (default 1)",
            )
        p.set_defaults(handler=handler)
        return p

    add("emission", _cmd_emission, "print the detector-induced emission matrix and thresholds")
    add("detect", _cmd_detect, "classify measurements into deviation symbols", needs_input=True)
    add(
        "decode",
        _cmd_decode,
        "classify measurements, then decode the most likely state sequence",
        needs_input=True,
    )
    add("simulate", _cmd_simulate, "generate a synthetic state/measurement/symbol trace", seeded=True)
    add(
        "montecarlo",
        _cmd_montecarlo,
        "accuracy statistics of both estimators over independent trials",
        seeded=True,
        mc=True,
    )
    add("sweep", _cmd_sweep, "detection probabilities across noise levels")
    add("predict", _cmd_predict, "state occupancy forecasts for horizons 0..m")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(message)s", level=logging.INFO)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # ConfigError, model/measurement validation, infeasible observations.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
