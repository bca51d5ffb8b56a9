"""Command-line surface: one subcommand per pipeline stage.

Data goes to the output stream as CSV (LF line endings, ``.`` decimal
point, floats at 17 significant digits so they parse back bit-exactly);
diagnostics and a final ``status=... command=...`` summary line go to
the error stream.  Exit codes: 0 success, 1 validation problem, 2 I/O
or resource problem.
"""
from __future__ import annotations

import argparse
import itertools
import logging
import math
import sys
import tempfile
from contextlib import nullcontext

import numpy as np

from .config import ConfigError, _measurement_chunks, parse_config
from .detector import classify, compute_thresholds
from .gaussian import sample_gaussian
from .model import build_emission_matrix, require_valid
from .simulate import (
    _chain,
    _expected_ht_accuracy,
    _propagate,
    _streams,
    _Tables,
    detection_sweep,
    run_monte_carlo,
)
from .viterbi import _log_params, _log_prob, _Memo, _paths

__all__ = ["main"]


class _UsageError(ValueError):
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


# Rows per chunk.  2**13 writes no faster and adds about 1 MB to peak RSS.
_ROWS = 2**12

# A float cell in fixed notation is a sign and at most 22 characters
# ("0.000" and 17 digits); any other '%.17g' cell has at most 24.
_FLOAT_WIDTH = 24

# 10**p for 0 <= p <= 20, exact doubles.
_SCALE = np.array([10**p for p in range(21)], dtype=np.float64)
# A magnitude has 1 + (the number of _TENS it reaches) digits.
_TENS = np.array([10**i for i in range(1, 20)], dtype=np.uint64)
# _SUFFIX[n] marks the last n of 20 places: where an n-digit magnitude prints.
_SUFFIX = np.arange(19, -1, -1) < np.arange(21)[:, None]
# _PREFIX[n] marks the first n of the _FLOAT_WIDTH places of a float cell.
_PREFIX = np.arange(_FLOAT_WIDTH) < np.arange(_FLOAT_WIDTH)[:, None]
# The two digit characters of 0..99 as one uint16 each, and the four of
# 0..9999 as one uint32 each: two pairs side by side.
_PAIRS = np.frombuffer(("%02d" * 100 % tuple(range(100))).encode(), dtype=np.uint16)
_QUADS = np.column_stack((np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100))).view(np.uint32).ravel()
# The '%3d' cells of -99..99, NUL-padded, at index v + 99.
_NARROW = np.frombuffer(
    ("%3d" * 199 % tuple(range(-99, 100))).encode().replace(b" ", b"\0"), dtype=np.uint8
).reshape(199, 3)


def _digits(magnitude: np.ndarray, quads: int, nuls: int = 0) -> np.ndarray:
    """The last ``4 * quads`` digits of uint64 ``magnitude``, then ``4 * nuls`` NULs, as rows of bytes.

    Each group of four digits is one lookup in ``_QUADS``, taken a column
    at a time.  The first group is ``magnitude // 10**(4 * (quads - 1))``,
    which must be below 10**4.
    """
    text = np.zeros((magnitude.size, quads + nuls), dtype=np.uint32)
    for i in range(quads - 1, 0, -1):
        rest = magnitude // 10**4
        _QUADS.take(magnitude - rest * 10**4, out=text[:, i])
        magnitude = rest
    _QUADS.take(magnitude, out=text[:, 0])
    return text.view(np.uint8)


def _put(cells: np.ndarray, rows, start: int, text: np.ndarray) -> None:
    """The rows x n bytes ``text`` into ``cells[:, start:start + n]``, at ``rows`` of both.

    The copy runs over n-byte void items, one a row, which numpy moves
    faster than n bytes of each row.
    """
    n = text.shape[1]
    cells[:, start : start + n].view(f"V{n}")[rows, 0] = text.view(f"V{n}")[rows, 0]


def _fill_text(strings: list, cells: np.ndarray) -> None:
    """The encoded ``strings``, left-aligned and NUL-padded, into ``cells`` (rows x width) uint8.

    The bytes go straight into the slots through an ``S{width}`` view of
    them, which pads each with NUL, so no rows x width temporary is
    made: one wide string costs a chunk its own bytes, not ``width``
    bytes a row.  The strings hold no NUL of their own.
    """
    cells.view(f"S{cells.shape[1]}")[:, 0] = [s.encode() for s in strings]


def _fill_ints(v: np.ndarray, cells: np.ndarray) -> None:
    """Integers ``v`` as '%d' into ``cells``: a sign or NUL, then NULs and right-aligned digits.

    ``v`` is of any integer dtype, its values of magnitude below 2**63,
    and ``cells`` has a place for the sign and one for each digit of the
    largest magnitude.  A chunk of magnitudes up to 99 takes each cell
    whole from ``_NARROW``.  Any other is converted to int64 and laid
    out in the digits of :func:`_digits`, whose leading zeros turn NUL
    by a mask a row when some magnitude has fewer digits than the largest.
    """
    width = cells.shape[1]
    if width <= 3:
        _put(cells, slice(None), 0, _NARROW.take(v.astype(np.intp) + 99, axis=0)[:, 3 - width :])
        return
    v = np.ascontiguousarray(v, dtype=np.int64)
    magnitude = np.abs(v).view(np.uint64)  # exact for -2**63 too
    text = _digits(magnitude, (width + 3) // 4)[:, -width:]  # the sign's place, then the digits
    text[:, 0] = (v < 0) * np.uint8(ord("-"))
    places = width - 1
    if magnitude.min() < 10 ** (places - 1):
        digits = 1 + _TENS[: places - 1].searchsorted(magnitude, side="right")
        text[:, 1:] *= _SUFFIX[:, -places:].take(digits, axis=0)
    _put(cells, slice(None), 0, text)


def _halves(x):
    """Veltkamp's split of doubles ``x`` into two halves of 26 bits each, whose products are exact."""
    t = x * (2.0**27 + 1)
    high = t - (t - x)
    return high, x - high


def _round17(a: np.ndarray, p) -> np.ndarray:
    """``a * 10**p`` rounded half to even, as uint64, for ``0 <= p <= 20``.

    Dekker's product gives ``a * 10**p`` exactly as the sum of the double
    ``h = fl(a * 10**p)`` and the double ``l``, from the products of the
    26-bit halves of both factors.  Where the product is at least 2**53,
    ``h`` is an even integer, so ``h + rint(l)`` rounds it half to even.
    """
    scale = _SCALE[p]
    h = a * scale
    a_high, a_low = _halves(a)
    high, low = _halves(scale)
    l = (((a_high * high - h) + a_low * high) + a_high * low) + a_low * low
    return h.astype(np.uint64) + np.rint(l).astype(np.int64).view(np.uint64)


def _fill_floats(v: np.ndarray, cells: np.ndarray) -> None:
    """Floats ``v`` as '%.17g' into ``cells`` (rows x _FLOAT_WIDTH): a sign or NUL, text, NULs.

    ``v`` is converted to float64 here.  A finite value of magnitude in
    [1e-4, 1e17) prints in fixed notation from the 17 digits
    N = round(|v| * 10**(16 - X)), X its decimal exponent taken from
    ``log10``.  Every other value, and any row whose N does not check
    out, is formatted by '%.17g' itself.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)  # keeps the arithmetic of the other rows in range
    x = np.floor(np.log10(a)).astype(np.int64).clip(-4, 16)
    lowest, highest = int(x.min()), int(x.max())
    n = _round17(a, 16 - x if lowest < highest else 16 - lowest)
    # N holds the 17 digits exactly when it has 17 digits: near a power of
    # ten log10 can be off by one, and such rows take the per-cell path.
    # An X one too large gives N < 10**16, because the double below 10**X
    # lies more than half a unit of N below it for every X in -4..16; one
    # too small, or a carry into an 18th digit, gives N >= 10**17.
    fast &= (n >= 10**16) & (n < 10**17)

    # The digits of N behind 7 zeros, then 8 NULs: each row's text is
    # copied from these bytes, one value of X at a time.  "ddd.dddd" for
    # X >= 0 is two pieces around the point; "0.000dddd" (-X-1 zeros)
    # for X < 0 is one.
    text = _digits(n, 6, nuls=2)
    for ex in range(lowest, highest + 1):
        rows = slice(None) if lowest == highest else x == ex
        if ex >= 0:
            _put(cells, rows, 1, text[:, 7 : ex + 8])
            cells[rows, ex + 2] = ord(".")
            _put(cells, rows, ex + 3, text[:, ex + 8 : 29])
        else:
            text[rows, 7 + ex] = ord(".")
            _put(cells, rows, 1, text[:, 6 + ex : 29 + ex])
    cells[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    # A row whose last digit is 0 drops its trailing zero digits, and the
    # point if no digit follows it; X = 16 has no digit after the point.
    short = np.flatnonzero((text[:, 23] == ord("0")) | (x == 16))
    if short.size:
        zeros = np.argmax(text[short, 23:6:-1] != ord("0"), axis=1)
        fraction = 16 - x[short] - zeros  # digits after the point that are kept
        length = 2 + np.maximum(x[short], 0) + np.where(fraction > 0, fraction + 1, 0)
        cells[short] *= _PREFIX.take(length, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = cells[slow]
        _fill_text(["%.17g" % f for f in v[slow].tolist()], text)
        cells[slow] = text


def _format(column: np.ndarray):
    """The format ``(width, fill)`` of a column chunk; ``fill(values, cells)`` lays out rows.

    Floats print as '%.17g', integers as '%d' in slots as wide as the
    chunk's extremes need, anything else through ``str``.  Numeric rows
    are converted as they are written, so no whole-chunk copy is made.
    """
    if column.dtype.kind == "f":
        return _FLOAT_WIDTH, _fill_floats
    if column.dtype.kind in "iu":
        digits = len(str(max(-int(column.min()), int(column.max()))))
        return 1 + digits, _fill_ints
    width = max(len(str(c).encode()) for c in column.tolist()) or 1

    def fill(values, cells):
        _fill_text([str(c) for c in values.tolist()], cells)

    return width, fill


def _write_csv(target: str, header: list[str], chunks) -> None:
    """Write ``header``, then the rows of ``chunks``, as CSV lines.

    ``chunks`` is an iterable of tuples of equal-length column arrays,
    taken one at a time; each column of a chunk prints in the
    :func:`_format` of that chunk.  ``target`` is a path, or
    '-'/'stdout' for stdout.  Each _ROWS rows of a chunk are laid out in
    one (rows x line width) byte matrix: every cell in a fixed-width
    slot, then a comma, the last one a newline.  A fill writes NUL into
    the bytes of its slots that its cells leave, so those rows' text is
    the block's bytes without their NULs: ``bytes.translate`` drops them
    from at most 64 KiB of whole lines at a time.  The matrix is kept
    from chunk to chunk and reallocated only for a chunk that needs more
    bytes, so what a write holds beside its chunks is bounded by _ROWS
    rows of its widest line.
    """
    lines = np.empty(0, dtype=np.uint8)
    to_stdout = target in ("-", "stdout")
    with nullcontext(sys.stdout) if to_stdout else open(target, "w", newline="") as out:
        out.write(",".join(header) + "\n")
        for chunk in chunks:
            formats = [_format(c) for c in chunk]
            ends = np.cumsum([width + 1 for width, _ in formats])
            total = len(chunk[0])
            size = min(total, _ROWS) * ends[-1]
            if lines.size < size:
                lines = np.empty(size, dtype=np.uint8)
            matrix = lines[:size].reshape(-1, ends[-1])
            step = max(1, 2**16 // ends[-1])  # lines in at most 64 KiB, or one
            matrix.fill(ord(","))  # the fills overwrite all but the bytes between slots
            matrix[:, -1] = ord("\n")
            for lo in range(0, total, _ROWS):
                rows = min(_ROWS, total - lo)
                for (width, fill), end, column in zip(formats, ends, chunk):
                    fill(column[lo : lo + rows], matrix[:rows, end - 1 - width : end - 1])
                block = matrix[:rows]
                for start in range(0, rows, step):  # whole lines, so no character is cut
                    out.write(block[start : start + step].tobytes().translate(None, b"\0").decode())


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
    header = ["emitted", "given_neg", "given_zero", "given_pos"]
    _write_csv(args.output, header, [(np.arange(-1, 2), *r.T)])
    _summary(
        "emission",
        delta_neg_zero=thresholds.delta_neg_zero,
        delta_zero_pos=thresholds.delta_zero_pos,
    )
    return 0


def _symbols(z_hz: np.ndarray, thresholds) -> np.ndarray:
    """The detector's symbols of ``z_hz`` as int8, classified one chunk of rows at a time."""
    symbols = np.empty(z_hz.size, dtype=np.int8)
    for lo in range(0, symbols.size, _ROWS):  # classify's int64 stays one chunk long
        symbols[lo : lo + _ROWS] = classify(z_hz[lo : lo + _ROWS], thresholds)
    return symbols


def _index_cells(index: np.ndarray) -> np.ndarray:
    """A chunk of the index as cells that print as :func:`_fmt_index` prints it.

    int64 when every value is whole and of magnitude below 2**63 (every
    ``k``).  Otherwise float64 when every magnitude is below 1e17, where
    '%.17g' prints a whole value as its digits; adding 0.0 turns -0.0
    into 0.0.  Otherwise the :func:`_fmt_index` strings.
    """
    if (np.trunc(index) == index).all() and -(2.0**63) < index.min() and index.max() < 2.0**63:
        return index.astype(np.int64)
    if np.abs(index).max() < 1e17:
        return index + 0.0
    return np.array([_fmt_index(v) for v in index.tolist()], dtype=object)


def _spill(path, thresholds, spill) -> tuple[str, np.ndarray]:
    """Load the measurement CSV ``path`` a chunk at a time: its index name and symbol indices.

    The first of the two passes of ``detect`` and ``decode``.  Each
    checked chunk is classified onto a growing int8 column of symbol
    indices 0..2 (the symbols -1..1 plus 1, as the decoder reads them),
    and its index and ``z_hz`` are appended to the file ``spill`` as raw
    (rows x 2) float64 bytes, which :func:`_trace` reads back.  So the
    pass holds 1 B a row, and every error of the input is raised here,
    before the first byte of output.
    """
    indices = bytearray()
    with _measurement_chunks(path) as (index_name, chunks):
        for index, z in chunks:
            x = _symbols(z, thresholds)
            x += 1
            indices += x.data
            spill.write(np.column_stack((index, z)))
    return index_name, np.frombuffer(indices, dtype=np.int8)


def _trace(spill, *columns):
    """The rows of ``spill`` and the equal-length index ``columns`` as :func:`_write_csv` chunks.

    ``spill`` is read back from its start, _ROWS rows at a time, into
    one buffer that every chunk reuses, so a chunk's ``z_hz`` holds only
    until the next chunk is taken.  The int8 indices 0..2 of ``columns``
    print as the symbols or states -1..1, one chunk at a time.
    """
    pairs = np.empty((_ROWS, 2))
    spill.seek(0)
    total = columns[0].size
    for lo in range(0, total, _ROWS):
        rows = pairs[: total - lo]
        if spill.readinto(rows) != rows.nbytes:
            raise OSError("the spilled measurements were cut short")
        yield _index_cells(rows[:, 0]), rows[:, 1], *(c[lo : lo + _ROWS] - 1 for c in columns)


def _cmd_detect(args) -> int:
    cfg = parse_config(args.config)
    with tempfile.TemporaryFile() as spill:
        index_name, x = _spill(args.input, compute_thresholds(cfg.params), spill)
        _write_csv(args.output, [index_name, "z_hz", "x"], _trace(spill, x))
    _summary("detect", rows=x.size)
    return 0


def _cmd_decode(args) -> int:
    """``viterbi_decode`` of ``--input``, run on the symbol indices that :func:`_spill` keeps."""
    cfg = parse_config(args.config)
    model = cfg.model()
    require_valid(model)
    with tempfile.TemporaryFile() as spill:
        index_name, x = _spill(args.input, compute_thresholds(cfg.params), spill)
        states = _paths(_Memo(model), x[:, None])[:, 0]
        header = [index_name, "z_hz", "x", "s_star"]
        _write_csv(args.output, header, _trace(spill, x, states))
    corrected = 0  # a chunk at a time: comparing whole columns would hold 1 B a row more
    for lo in range(0, x.size, _ROWS):
        corrected += np.count_nonzero(states[lo : lo + _ROWS] != x[lo : lo + _ROWS])
    log_prob = _log_prob(x, states, _log_params(model))
    _summary("decode", rows=x.size, log_prob=log_prob, corrected=corrected)
    return 0


def _cmd_simulate(args) -> int:
    """The trace of :func:`simulate_states`, then :func:`synthesize_measurements`, on one stream.

    The chain is sampled a ``simulate._CHUNK`` of steps at a time, its
    uniforms from word 0 (``simulate._streams``).  Each chunk's states
    are then taken one write block of _ROWS rows at a time: the block's
    Gaussians of :func:`sample_gaussian`, from word K on in order, its
    symbols, and its rows for :func:`_write_csv`.  So no float or
    integer column longer than a write block is made, and nothing held
    grows with K.  Every check, those of the parsed config included,
    runs before the first byte is written.
    """
    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    tables = _Tables.of(cfg.model())
    means = np.array(cfg.params.means)
    thresholds = compute_thresholds(cfg.params)
    chain, noise = _streams(seed, 0, 1, cfg.length)

    def rows():
        for lo, path in _chain(tables, chain._rows, cfg.length):
            for at in range(0, len(path), _ROWS):
                hidden = path[at : at + _ROWS, 0]
                z = sample_gaussian(means[hidden], cfg.params.sigma, noise)
                k = np.arange(lo + at + 1, lo + at + hidden.size + 1)
                yield k, hidden - 1, z, _symbols(z, thresholds)

    _write_csv(args.output, ["k", "s", "z_hz", "x"], rows())
    _summary("simulate", k=cfg.length, seed=seed)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    trials = args.trials if args.trials is not None else cfg.trials
    model = cfg.model()
    summary = run_monte_carlo(model, cfg.length, trials, seed)
    rows = [
        ("trials", "", summary.trials, summary.trials),
        ("mean_pct", "", _fmt(summary.ht_mean), _fmt(summary.va_mean)),
        ("std_pct", "", _fmt(summary.ht_std), _fmt(summary.va_std)),
    ]
    hist = zip(summary.histogram_ht, summary.histogram_va)
    rows += [("hist", b, int(ht), int(va)) for b, (ht, va) in enumerate(hist)]
    _write_csv(args.output, ["field", "bin", "ht", "va"], [np.array(rows, dtype=object).T])
    # Analytic cross-check: the z-score of ht_mean against its expectation (nan if ht_std is 0).
    # run_monte_carlo has validated the model and length.
    ht_expected = 100.0 * _expected_ht_accuracy(model, cfg.length)
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
    rows = [(pt.snr_db, pt.sigma, *(pt.detection or [math.nan] * 3)) for pt in points]
    header = ["snr_db", "sigma", "pd_neg", "pd_zero", "pd_pos"]
    _write_csv(args.output, header, [np.array(rows, dtype=np.float64).T])
    # Notes follow the rows, so none precede an unwritable --output.
    for pt in points:
        if pt.detection is None:
            print(f"note: snr_db={_fmt(pt.snr_db)}: {pt.note}", file=sys.stderr)
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

    def rows():  # _ROWS forecasts at a time, so nothing held grows with the horizon
        for lo in range(0, cfg.horizon + 1, _ROWS):
            chunk = np.array([*itertools.islice(forecasts, _ROWS)])
            yield np.arange(lo, lo + len(chunk)), *chunk.T

    _write_csv(args.output, ["m", "p_neg", "p_zero", "p_pos"], rows())
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
                help="accepted but ignored (must be >= 1): trials run serially in one process"
                " and the output does not depend on it (default 1)",
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
    except ValueError as exc:
        # Usage errors, ConfigError, model/measurement validation, infeasible observations.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
