"""CSV input and output: the chunked array loader against the row loop, and the row writer.

``load_measurements`` reads a body in chunks of ``config._LOAD_ROWS``
lines, each parsed by ``np.loadtxt``; a chunk that parser cannot vouch
for, and only that chunk, is read by ``config._parse_rows`` with
``csv`` and ``float``.  Both check their columns by one array function.
Against the row loop of ``conftest.reference_load``, either both give
bitwise-equal arrays, or both raise the same error.  The writer lays out each chunk of rows as a
byte matrix; every cell must read as ``format(v, ".17g")`` for floats
and ``"%d"`` for integers, and every file as ``conftest.reference_write``,
the ``%``-format row writer, writes it.
"""
import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gridhmm as gh
from gridhmm.cli import _ROWS, _fmt, _fmt_index, _index_cells, _write_csv, main
from gridhmm import config
from gridhmm.config import _parse_chunk

from conftest import fed_pipe, reference_load, reference_write

# --- loader equivalence ---------------------------------------------------

# Headers with the position of their index column.
HEADERS = [
    ("k,z_hz", 0), ("timestamp,z_hz", 0), ("k,s,z_hz,x", 0), ("z_hz, timestamp ", 1), ('"k",z_hz', 0)
]

# Spellings ``float`` takes and numpy does not, spellings both take, and
# ones neither takes.
ODD_TOKENS = [
    "1_0", "1_0.5", "\uff11", "\u0663", "\u0663.\u0665", "\u20032", "nan", "-nan", "Infinity",
    "-inf", "1e500", "-0", "-0.0", "2**53", "9007199254740991", "9007199254740992",
    "-9007199254740993", "1e16", "+.5", "5.", " 7 ", "\t8", "0x10", "1d5", "", " ", "fifty",
    '"3"', '"4,5"', '"6\n"', "1\x00", "\x1c4", "5\x1f",
]


def _token(draw, base, noisy):
    """One cell near ``base``; the odd spellings only in a noisy body."""
    kind = draw(st.integers(0 if noisy else 1, 9))
    if kind == 0:
        return draw(st.sampled_from(ODD_TOKENS))
    if kind == 1:
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == 2:
        return repr(base + draw(st.sampled_from([0.5, 0.25, 1e-9, 0.0, -0.0])))
    if kind == 3:  # padding numpy strips; float rejects the separators
        return str(base) + draw(st.sampled_from([" ", "\t", "\x1c", "\x1f"]))
    return str(base)


@st.composite
def csv_bodies(draw):
    """CSV text: a header, then rows of mostly increasing indices.

    A noisy body also has odd spellings, blank and ragged rows, and
    quoted fields; a clean one only has rows that numpy can parse.
    Some bodies start next to 2**53, and in some every row has one
    field more or fewer than the header.
    """
    header, index_at = draw(st.sampled_from(HEADERS))
    width = len(header.split(","))
    noisy = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header]
    base = draw(st.integers(-5, 5) | st.sampled_from([2**53 - 4, -(2**53) - 1]))
    spare = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    for _ in range(draw(st.integers(0, 8))):
        # 0: blank line, 1: one field more, 2: one fewer, 3: quoted first field.
        shape = draw(st.integers(0, 19)) if noisy else 19
        if shape == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        base += draw(st.sampled_from([1, 1, 1, 1, 2, 7, 0, -1]))
        cells = [
            _token(draw, base, noisy) if draw(st.booleans()) else repr(50.0 + base / 8)
            for _ in range(width)
        ]
        cells[index_at] = _token(draw, base, noisy)
        cells = cells[: width + spare] if spare < 0 else cells + ["7"] * spare
        if shape == 1:
            cells.append(draw(st.sampled_from(["3", "", "x"])))
        elif shape == 2:
            cells.pop()
        elif shape == 3:
            cells[0] = f'"{cells[0]}"'
        lines.append(",".join(cells))
    end = draw(st.sampled_from([newline, "", "\r\n"]))
    return newline.join(lines) + end


def _outcome(load, path):
    try:
        series = load(path)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    return (
        series.index_name,
        series.index.dtype.str,
        series.index.tobytes(),
        series.z_hz.dtype.str,
        series.z_hz.tobytes(),
    )


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "m.csv"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_bodies())
def test_loader_matches_row_loop(csv_path, body):
    csv_path.write_bytes(body.encode())
    assert _outcome(gh.load_measurements, csv_path) == _outcome(reference_load, csv_path)


@pytest.mark.parametrize(
    "body",
    [
        "k,z_hz\n1,50.0\n2,49.5\n",
        "k,z_hz\r\n1,50.0\r\n\r\n2,49.5\r\n",
        "k,z_hz\r1,50.0\r2,49.5",
        "timestamp,z_hz\n-0.0,50.0\n0.5,49.5\n1e20,51.0\n",
        "k,s,z_hz,x\n-0,1,50.0,0\n9007199254740991,0,49.5,1\n",
    ],
)
def test_fast_reader_takes_plain_bodies(body):
    # The vectorised reader is the one that loads well-formed files.
    fh = io.StringIO(body, newline="")
    header = next(csv.reader(fh))
    name = "k" if "k" in header else "timestamp"
    columns = _parse_chunk(
        list(fh), len(header), header.index(name), header.index("z_hz"), name == "k", -math.inf
    )
    assert columns is not None
    assert all(c.flags.c_contiguous for c in columns)


# --- chunk seams ------------------------------------------------------------
# With two or three lines per np.loadtxt call, most rows of a body lie
# next to a chunk's end, and a quoted newline often crosses one.


@pytest.mark.parametrize("load_rows", [2, 3])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(body=csv_bodies())
def test_loader_matches_row_loop_in_small_chunks(csv_path, load_rows, body):
    csv_path.write_bytes(body.encode())
    with mock.patch.object(config, "_LOAD_ROWS", load_rows):
        assert _outcome(gh.load_measurements, csv_path) == _outcome(reference_load, csv_path)


def _body(ks, last_z=None):
    rows = [f"{k},{50.0 + k / 8!r}" for k in ks]
    if last_z is not None:
        rows[-1] = f"{ks[-1]},{last_z}"
    return "\n".join(["k,z_hz", *rows]) + "\n"


def _read_body(body):
    """The columns of a ``k,z_hz`` body, chunk by chunk; None if the chunk parser doubts one."""
    fh = io.StringIO(body, newline="")
    next(csv.reader(fh))
    index, z = np.empty(0), np.empty(0)
    while lines := list(itertools.islice(fh, config._LOAD_ROWS)):
        columns = _parse_chunk(lines, 2, 0, 1, True, index[-1] if index.size else -math.inf)
        if columns is None:
            return None
        index, z = np.concatenate([index, columns[0]]), np.concatenate([z, columns[1]])
    return index, z


@pytest.mark.parametrize(
    "ks, message",
    [
        ([1, 2, 2, 3], "row 4: index '2' does not increase (previous 2.0)"),
        ([1, 2, 3, 4, 0, 5], "row 6: index '0' does not increase (previous 4.0)"),
    ],
)
def test_index_must_increase_across_a_chunk_seam(tmp_path, monkeypatch, ks, message):
    # Each chunk increases on its own; the index falls back where a chunk starts.
    monkeypatch.setattr(config, "_LOAD_ROWS", 2)
    assert _read_body(_body(ks)) is None
    path = tmp_path / "m.csv"
    path.write_text(_body(ks))
    with pytest.raises(gh.MeasurementFormatError) as exc:
        gh.load_measurements(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("last_z", ["fifty", "5_0.5"])
def test_field_numpy_rejects_in_the_last_chunk(tmp_path, monkeypatch, last_z):
    # Two chunks are taken before numpy doubts the third; the row parser
    # reads that chunk: it rejects "fifty" by its row and takes "5_0.5".
    monkeypatch.setattr(config, "_LOAD_ROWS", 2)
    body = _body(range(1, 6), last_z=last_z)
    assert _read_body(body) is None
    path = tmp_path / "m.csv"
    path.write_text(body)
    assert _outcome(gh.load_measurements, path) == _outcome(reference_load, path)
    if last_z == "fifty":
        with pytest.raises(gh.MeasurementFormatError, match="row 6: fields must be numbers"):
            gh.load_measurements(path)
    else:
        assert gh.load_measurements(path).z_hz[-1] == 50.5


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("rows", [4, 5])
def test_fast_reader_reads_across_chunk_seams(monkeypatch, newline, rows):
    # Chunks count lines, blank ones too: one chunk starts with a blank line,
    # and with five rows the last chunk is a blank line alone.
    monkeypatch.setattr(config, "_LOAD_ROWS", 2)
    ks = list(range(1, rows + 1))
    lines = ["k,z_hz"]
    for k in ks:  # one blank line before row 2, two before row 3, one at the end
        lines += [""] * {2: 1, 3: 2}.get(k, 0) + [f"{k},{50.0 + k / 8!r}"]
    columns = _read_body(newline.join(lines) + newline * 2)
    assert columns is not None
    index, z = columns
    assert index.tolist() == ks
    assert z.tolist() == [50.0 + k / 8 for k in ks]
    assert index.flags.c_contiguous and z.flags.c_contiguous


# --- the row parser takes one chunk ----------------------------------------
# numpy doubts a chunk with a quoted field.  The row parser reads that chunk
# alone, plus the lines that a quoted field still open at its end takes,
# and numpy is asked first for the next chunk again.


def _records(ks, quoted=None, newline=False):
    """The lines of a ``k,z_hz`` body; step ``quoted``'s ``z_hz`` in quotes, a newline in them."""
    cells = {k: repr(50.0 + k / 8) for k in ks}
    if quoted is not None:
        cells[quoted] = f'"{cells[quoted]}\n"' if newline else f'"{cells[quoted]}"'
    return [f"{k},{cells[k]}\n" for k in ks]


@pytest.mark.parametrize("quoted", [1, 14, 30])  # the first, a middle and the last row
def test_row_parser_reads_only_the_chunk_numpy_doubts(tmp_path, monkeypatch, quoted):
    monkeypatch.setattr(config, "_LOAD_ROWS", 8)
    ks = range(1, 31)  # chunks of 8, 8, 8 and 6 rows
    plain, path = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("k,z_hz\n" + "".join(_records(ks)))
    lines = _records(ks, quoted)
    path.write_text("k,z_hz\n" + "".join(lines))
    want = _outcome(gh.load_measurements, plain)
    rows, chunks = mock.Mock(wraps=config._parse_rows), mock.Mock(wraps=config._parse_chunk)
    monkeypatch.setattr(config, "_parse_rows", rows)
    monkeypatch.setattr(config, "_parse_chunk", chunks)
    assert _outcome(gh.load_measurements, path) == want
    assert chunks.call_count == 4  # numpy is asked first for every chunk
    start = (quoted - 1) // 8 * 8
    assert rows.call_count == 1 and rows.call_args.args[0] == lines[start : start + 8]


def test_quoted_newline_across_a_chunk_end_keeps_the_row_numbers(tmp_path, monkeypatch):
    # Step 8, in row 9, ends the first chunk with a quote that closes on the
    # next line.  The row parser takes that line too, and numpy the next
    # chunk, which starts at step 9 in row 10 (on line 11 of the file).
    monkeypatch.setattr(config, "_LOAD_ROWS", 8)
    text = "".join(_records(range(1, 21), quoted=8, newline=True))
    path = tmp_path / "m.csv"
    path.write_text("k,z_hz\n" + text)
    spy = mock.Mock(wraps=config._parse_rows)
    monkeypatch.setattr(config, "_parse_rows", spy)
    series = gh.load_measurements(path)
    assert series.index.tolist() == list(range(1, 21))
    assert series.z_hz.tolist() == [50.0 + k / 8 for k in range(1, 21)]
    assert spy.call_count == 1 and spy.call_args.args[0] == text.splitlines(True)[:9]
    # A step repeated in that next chunk is named by its row, 13, not by its line, 14.
    path.write_text("k,z_hz\n" + text.replace("\n12,", "\n11,"))
    with pytest.raises(gh.MeasurementFormatError) as exc:
        gh.load_measurements(path)
    assert str(exc.value) == f"{path}: row 13: index '11' does not increase (previous 11.0)"
    assert _outcome(gh.load_measurements, path) == _outcome(reference_load, path)


def test_a_broken_rule_is_named_before_a_later_unreadable_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('k,z_hz\n1,50.0\n1,"50.0"\n2,fifty\n')
    with pytest.raises(gh.MeasurementFormatError) as exc:
        gh.load_measurements(path)
    assert str(exc.value) == f"{path}: row 3: index '1' does not increase (previous 1.0)"


@pytest.mark.parametrize(
    "data, message",
    [
        # numpy reads the long number as inf, so csv reads the chunk.
        (b"k,z_hz\n1,50.0\n2," + b"9" * 200_000 + b"\n", "row 3: field larger than field limit"),
        # numpy reads this one as 50.5; csv, which reads it if another row
        # of its chunk is quoted, must reject it in every chunk.
        (
            b"k,z_hz\n1,50.0\n2," + b"0" * 200_000 + b"50.5\n",
            "row 3: field larger than field limit",
        ),
        (b"k,z_hz," + b"x" * 200_000 + b"\n1,50.0\n", "row 1: field larger than field limit"),
        (b"k,z_hz\n1,50.0\n2,\xff\n", "codec can't decode byte 0xff"),
    ],
    ids=["long-field", "long-zero-padded-field", "long-header", "undecodable"],
)
def test_unreadable_input_fails_with_the_file_and_row(tmp_path, capsys, data, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG)
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    assert main(["detect", "--config", str(cfg_path), "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ") and message in err
    assert len(err.splitlines()) == 1  # no traceback
    assert _outcome(gh.load_measurements, path) == _outcome(reference_load, path)


# Characters of numbers, and any character but the ones that end a field.
FIELD_CHARS = st.sampled_from(list("0123456789.eE+-_ \tnaifINF\x00\x1c\x1f")) | st.characters(
    codec="utf-8", exclude_characters=',"\n\r'
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.sampled_from(ODD_TOKENS), st.text(FIELD_CHARS, max_size=8)))
def test_fast_reader_never_accepts_what_float_rejects(field):
    # A field the fast reader takes parses, under float, to the same bits.
    field = field.replace(",", "").replace('"', "")
    lines = io.StringIO(f"{field},{field}\n", newline="").readlines()
    columns = _parse_chunk(lines, 2, 0, 1, False, -math.inf)
    if columns is None:
        return
    want = float(field)
    for column in columns:
        assert struct.pack("<d", float(column[0])) == struct.pack("<d", want)


# --- pipes ----------------------------------------------------------------
# The loader reads every input once, front to back, so a pipe takes the
# path of a file.  The bodies are longer than one np.loadtxt chunk and
# than the pipe's buffer, so the writer thread runs while the loader reads.


def _long_body(rows):
    return "k,z_hz\n" + "".join(f"{k},{50.0 + k / 8!r}\n" for k in range(1, rows + 1))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("tail", ["", "1_0000000,50.0\n"])
def test_pipe_loads_through_the_chunked_reader(tmp_path, monkeypatch, tail):
    # A body the chunked reader takes, and one whose last row only the row parser takes.
    data = (_long_body(config._LOAD_ROWS + 5) + tail).encode()
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    want = _outcome(gh.load_measurements, path)
    spy = mock.Mock(wraps=config._parse_chunk)
    monkeypatch.setattr(config, "_parse_chunk", spy)
    with fed_pipe(data) as piped:
        got = _outcome(gh.load_measurements, piped)
    assert spy.call_count == 2  # one call a chunk of lines
    assert got == want


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("bad", ["{k},fifty", "{k},50.0,1", "1,50.0"])
def test_bad_row_after_a_chunk_of_a_pipe_fails_as_in_a_file(tmp_path, capsys, bad):
    rows = config._LOAD_ROWS + 3
    data = (_long_body(rows) + bad.format(k=rows + 1) + "\n").encode()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG)
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    code = main(["detect", "--config", str(cfg_path), "--input", str(path)])
    want = capsys.readouterr()
    assert code == 1 and want.out == ""
    assert f"{path}: row {rows + 2}: " in want.err
    with fed_pipe(data) as piped:
        assert main(["detect", "--config", str(cfg_path), "--input", piped]) == code
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.replace(piped, str(path)) == want.err


def _load_peak_per_row(path, rows):
    """Traced peak bytes a row of ``load_measurements`` on a body of ``rows`` rows."""
    tracemalloc.start()
    try:
        series = gh.load_measurements(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.z_hz.size == rows
    return peak / rows


def test_row_loop_from_a_late_chunk_holds_little_more_than_the_columns(tmp_path):
    # Only the row parser takes the last row ("200_001"); it reads that
    # row's chunk into the same float columns, 8 B a value.  Reading the body
    # again from the top into lists of Python floats held about 80 B a row.
    rows = 200_000
    path = tmp_path / "m.csv"
    path.write_text(_long_body(rows) + f"{rows + 1:_},50.0\n")
    assert _load_peak_per_row(path, rows + 1) < 26


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_loads_in_the_memory_of_a_file():
    # A pipe is read once, front to back, as a file is; holding its whole
    # text first cost about 25 B a row more.
    rows = 200_000
    with fed_pipe(_long_body(rows).encode()) as piped:
        assert _load_peak_per_row(piped, rows) < 26


# --- writer ---------------------------------------------------------------


@given(st.floats())
def test_percent_17g_matches_format(v):
    assert "%.17g" % v == format(v, ".17g") == _fmt(v)


def _written(header, *columns):
    """What the writer prints to stdout for ``columns``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _write_csv("-", header, [columns])
    return out.getvalue()


def _cells(values, dtype):
    """The cells the writer prints for a one-column array of ``values``."""
    return _written(["v"], np.array(values, dtype=dtype)).split("\n")[1:-1]


def _assert_float_cells(values):
    assert _cells(values, np.float64) == [format(v, ".17g") for v in values]


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_cells_match_format(values):
    _assert_float_cells(values)


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_cells_of_any_bit_pattern(patterns):
    _assert_float_cells(np.array(patterns, dtype=np.uint64).view(np.float64).tolist())


@given(st.integers(-4, 15), st.data())
def test_float_cells_round_ties_to_even(exponent, data):
    # odd / 2**(17 - X) with X its decimal exponent lies exactly halfway
    # between two 17-digit decimals; such a double exists for X <= 15.
    scale = 2 ** (17 - exponent)
    lo = math.ceil(Fraction(10) ** exponent * scale)
    hi = min(math.floor(Fraction(10) ** (exponent + 1) * scale), 2**53)
    odd = data.draw(st.lists(st.integers(lo // 2, (hi - 2) // 2), min_size=1, max_size=20))
    values = [(2 * k + 1) / scale for k in odd]
    assert all(lo <= Fraction(v) * scale < hi for v in values)
    assert all((Fraction(v) * Fraction(10) ** (16 - exponent)).denominator == 2 for v in values)
    _assert_float_cells(values + [-v for v in values])


def test_float_cells_at_powers_of_ten_and_range_ends():
    powers = [10.0**k for k in range(-25, 26)]
    near = [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    ends = [1e-4, 1e17, 9.9999999999999991e-05, 99999999999999984.0, 1.0000000000000001e-4]
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308]
    special += [2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 1.0, 2.0**53, 2.0**56]
    values = powers + near + ends + special
    _assert_float_cells(values + [-v for v in values])


@pytest.mark.parametrize("exponent", range(-4, 17))
def test_no_double_rounds_up_to_a_power_of_ten(exponent):
    # The float cells take X from log10, which can overshoot by one just
    # below a power of ten, and reject X when N = round(|v| * 10**(16 - X))
    # falls short of 17 digits.  That needs the largest double below
    # 10**X to lie over half a unit of N below it.
    power = Fraction(10) ** exponent
    below = float(power)
    if Fraction(below) >= power:
        below = math.nextafter(below, 0.0)
    assert (power - Fraction(below)) * Fraction(10) ** (16 - exponent) > Fraction(1, 2)


@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
def test_int_cells_match_percent_d(values):
    values += [0, -1, 2**63 - 1, -(2**63)]
    assert _cells(values, np.int64) == ["%d" % v for v in values]


# Chunks whose extremes are at most 99 in magnitude: every symbol and
# state column.  Their cells are one digit pair wide after the sign.
NARROW_INTS = st.lists(st.integers(0, 99), min_size=1, max_size=40).flatmap(
    lambda m: st.sampled_from([m, [-v - 1 for v in m], [v * (-1) ** i for i, v in enumerate(m)]])
)


@settings(max_examples=300)
@given(NARROW_INTS, st.sampled_from([np.int8, np.int64]))
def test_narrow_int_cells_match_percent_d(values, dtype):
    assert _cells(values, dtype) == ["%d" % v for v in values]


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("values", [[0], [99], [-99], [100], [-100], [0, 99, -99], [99, -100], [-99, 100]])
def test_int_cells_at_the_narrow_boundaries(values, dtype):
    assert _cells(values, dtype) == ["%d" % v for v in values]


@settings(max_examples=200)
@given(st.integers(1, 19), st.data())
def test_int_cells_of_one_digit_count(digits, data):
    # Every magnitude of the chunk has as many digits, an odd or even
    # count, so its leading places are NUL in every row alike.
    magnitudes = st.integers(10 ** (digits - 1), min(10**digits - 1, 2**63 - 1))
    values = data.draw(st.lists(st.builds(lambda m, s: m * s, magnitudes, st.sampled_from([1, -1])), min_size=1))
    assert _cells(values, np.int64) == ["%d" % v for v in values]


# Values whose 17th significant digit is 0, so their text ends before the
# slot does, and values of decimal exponent 16, which print with no point.
SHORT_FLOATS = st.one_of(
    st.builds(lambda k, m: k / 2**m, st.integers(1, 2**53), st.integers(0, 60)),
    st.integers(0, 10**16).map(float),
    st.integers(10**16, 10**17 - 1).map(float),
    st.floats(1e-4, 1.0, exclude_max=True),
    st.integers(1, 10**6).map(lambda k: k / 1000),
)


@settings(max_examples=300)
@given(st.lists(SHORT_FLOATS, min_size=1, max_size=40))
def test_float_cells_with_short_digits_or_no_point(values):
    _assert_float_cells(values + [-v for v in values])


def _ulps_from(base, steps):
    for _ in range(abs(steps)):
        base = math.nextafter(base, math.copysign(math.inf, steps))
    return base


INDEX_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.builds(_ulps_from, st.sampled_from([1e17, -1e17, 2.0**63, -(2.0**63)]), st.integers(-3, 3)),
    st.integers(-(10**6), 10**6).map(lambda k: k + 0.5),
)


@settings(max_examples=300)
@given(st.lists(INDEX_VALUES, min_size=1, max_size=40))
def test_index_cells_print_like_fmt_index(values):
    # A chunk's index cells are int64, float64 or text; each prints as
    # _fmt_index prints its value.
    assert _cells(_index_cells(np.array(values)), None) == [_fmt_index(v) for v in values]


TEXT = ["trials", "", "hist", "1.5", "-0", "nan", "1e+20", "0.10000000000000001", "x" * 30]


def _random_column(gen, kind, rows):
    if kind == "int":
        return gen.integers(-(10 ** gen.integers(1, 19)), 2**63, rows) // gen.integers(1, 10**6)
    if kind == "float":
        normal = 50.0 + gen.standard_normal(rows) * 10.0 ** gen.integers(-8, 20, rows)
        bits = gen.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        special = gen.choice([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-4, 1e17], rows)
        return np.choose(gen.integers(0, 3, rows), [normal, bits, special])
    return np.array(gen.choice(TEXT, rows).tolist(), dtype=object)


@pytest.mark.parametrize("rows", [1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 3])
def test_writer_matches_percent_format_rows(rows):
    gen = np.random.default_rng(rows)
    kinds = ["int", "float", "text", "float", "int"]
    columns = [_random_column(gen, kind, rows) for kind in kinds]
    columns.append(gen.integers(-1, 2, rows).astype(np.int8))
    header = [f"c{i}" for i in range(len(columns))]
    assert _written(header, *columns) == reference_write(header, *columns)


# Chunk plans of the writer: (rows, digits of the largest int, words of the text column).
WRITER_PLANS = {
    # The int column grows from 1 to 19 digits; the text column narrows
    # from 30 characters to 1, then widens to 40: every chunk has a
    # layout of its own.
    "changing": [
        (1, 1, ["x" * 30]),
        (_ROWS - 1, 7, ["y" * 12, "", "ab"]),
        (_ROWS + 1, 13, ["z", ""]),
        (2 * _ROWS + 3, 19, ["w" * 40, "q"]),
    ],
    # Two chunks of one layout, so the second is laid out in the first
    # one's matrix; then the int column crosses 9999 -> 10000 (the widths
    # change); then fewer rows of the same widths (the row count changes).
    "kept": [
        (_ROWS, 4, ["ab", "c"]),
        (_ROWS, 4, ["ab", "c"]),
        (_ROWS, 5, ["ab", "c"]),
        (100, 5, ["ab", "c"]),
    ],
}


@pytest.mark.parametrize("plan", sorted(WRITER_PLANS))
def test_writer_chunks_of_changing_widths_match_percent_format_rows(plan):
    # Each chunk prints in its own formats, and no byte of one chunk's
    # cells shows in a later chunk's lines.
    gen = np.random.default_rng(11)
    chunks = []
    for rows, digits, words in WRITER_PLANS[plan]:
        ints = gen.integers(-(10 ** (digits - 1)), 10 ** (digits - 1), rows)
        ints[-1] = 10 ** (digits - 1)
        text = np.array(gen.choice(words, rows).tolist(), dtype=object)
        text[0] = words[0]
        floats = 50.0 + gen.standard_normal(rows)
        floats[:3] = [math.nan, -0.0, 5e-324][:rows]
        chunks.append((ints, text, floats))
    header = ["i", "t", "f"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _write_csv("-", header, chunks)
    whole = [np.concatenate(column) for column in zip(*chunks)]
    assert out.getvalue() == reference_write(header, *whole)


class _Sha256Sink:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())


def _trace_chunks(rows, seed):
    """simulate-like chunks of ``k``, ``z_hz`` and two int8 symbol columns, in changing sizes."""
    gen = np.random.default_rng(seed)
    lo = 0
    while lo < rows:
        size = min(int(gen.choice([1, _ROWS - 1, _ROWS, 3 * _ROWS + 5, 50_000])), rows - lo)
        normal = gen.normal(50.0, 0.35, size)
        bits = gen.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
        scale = 2.0 ** gen.integers(0, 12, size)  # few binary places: trailing zero digits
        short = np.round(normal * scale) / scale * gen.choice([1.0, 2.0**-12, 1e5], size)
        z = np.choose(gen.choice(3, size, p=[0.8, 0.1, 0.1]), [normal, bits, short])
        x, s = gen.integers(-1, 2, (2, size)).astype(np.int8)
        yield np.arange(lo + 1, lo + size + 1), z, x, s
        lo += size


@pytest.mark.slow
def test_writer_matches_percent_format_rows_at_full_size():
    # 1e6 rows of a simulate-like trace, hashed as they are written: the
    # writer against the row-by-row '%' format, neither output held whole.
    rows, header = 1_000_000, ["k", "z_hz", "x", "s"]
    got = _Sha256Sink()
    with contextlib.redirect_stdout(got):
        _write_csv("-", header, _trace_chunks(rows, 29))
    want = hashlib.sha256((",".join(header) + "\n").encode())
    for chunk in _trace_chunks(rows, 29):
        lines = map("%d,%.17g,%d,%d\n".__mod__, zip(*(c.tolist() for c in chunk)))
        want.update("".join(lines).encode())
    assert got.hash.hexdigest() == want.hexdigest()


CFG = """\
means = 49 50 51
sigma = 0.35
priors = 0.1 0.8 0.1

[transitions]
0.9 0.1 0.0
0.05 0.9 0.05
0.0 0.1 0.9
"""

TIMESTAMPS = {
    "mixed": [-5.5, -0.0, 0.5, 1.0, 2.25, 3.0, 1e15 + 0.5, 1e17, 1e20, 3e20],
    "integral": [-7.0, -0.0, 1.0, 2.0, 5.0, 1e17, 1e18],
    # Three chunks of the writer: the first whole (int64 cells), the second
    # with one fraction and the third with a whole value past 2**63 (text).
    "chunked": [
        -7.0, -0.0, *range(1, _ROWS + 7), _ROWS + 7.5, *range(_ROWS + 8, 2 * _ROWS + 48), 1e19
    ],
}


def _reference_rows(command, series, model, thresholds):
    """Stdout as the csv.writer path wrote it: ``_fmt_index`` and ``_fmt`` per cell."""
    symbols = gh.classify(series.z_hz, thresholds)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if command == "detect":
        writer.writerow([series.index_name, "z_hz", "x"])
        writer.writerows(
            [_fmt_index(float(i)), _fmt(float(z)), int(x)]
            for i, z, x in zip(series.index, series.z_hz, symbols)
        )
    else:
        states = gh.viterbi_decode(symbols, model)
        writer.writerow([series.index_name, "z_hz", "x", "s_star"])
        writer.writerows(
            [_fmt_index(float(i)), _fmt(float(z)), int(x), int(s)]
            for i, z, x, s in zip(series.index, series.z_hz, symbols, states)
        )
    return out.getvalue()


@pytest.mark.parametrize("command", ["detect", "decode"])
@pytest.mark.parametrize("kind", sorted(TIMESTAMPS))
def test_timestamp_index_prints_like_fmt_index(tmp_path, capsys, command, kind):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG)
    data = tmp_path / "m.csv"
    stamps = TIMESTAMPS[kind]
    z = np.random.default_rng(7).normal(50.0, 0.6, len(stamps)).tolist()
    data.write_text("timestamp,z_hz\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(stamps, z)))
    code = main([command, "--config", str(cfg_path), "--input", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    cfg = gh.parse_config(cfg_path)
    want = _reference_rows(
        command, gh.load_measurements(data), cfg.model(), gh.compute_thresholds(cfg.params)
    )
    assert out == want
    assert out.splitlines()[2].startswith("0,")  # -0.0 prints as 0
