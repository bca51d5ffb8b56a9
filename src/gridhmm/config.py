"""Run configuration files and measurement CSV ingestion.

Configuration files are plain text: ``key = value`` assignments plus
optional ``[transitions]`` / ``[emission_matrix]`` blocks of three
whitespace-separated matrix rows.  ``#`` starts a comment anywhere on a
line.  Parsing is exhaustive: every violation is collected and reported
in one error rather than stopping at the first.
"""
from __future__ import annotations

import csv
import functools
import itertools
import logging
import math
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import DetectorParams
from .gaussian import _matrix_violation
from .model import HmmModel, build_emission_matrix

__all__ = [
    "ConfigError",
    "MeasurementFormatError",
    "RunConfig",
    "parse_config",
    "MeasurementSeries",
    "load_measurements",
]

logger = logging.getLogger(__name__)

# The matrix sections: the RunConfig field each sets, and the axis along which it sums to 1.
_SECTIONS = {"transitions": ("transitions", 1), "emission_matrix": ("emissions_override", 0)}

# Step indices are read as floats, which hold every integer of magnitude
# below 2**53 exactly; larger ones would be rounded onto a neighbour.
_K_LIMIT = 2.0**53

# Information separators: numpy strips them from a field as whitespace,
# ``float`` rejects them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Lines per ``np.loadtxt`` call of the body reader.  A chunk's lines are
# held as ``str``, about 75 B a line, and that shows in a ``decode``
# process's peak RSS: 2**11 lines peak about 0.15 MB below 2**12 and load
# 2e5 rows as fast; 2**10 saves 0.23 MB but loads 3-9 % slower.
_LOAD_ROWS = 2**11

# The message of each rule of :func:`_first_bad`, worded from the row.
_RULES = (
    "values must be finite, got {row!r}",
    "step index must be an integer, got {field!r}",
    "step index {field!r} is out of range: its magnitude must be below 2**53",
    "index {field!r} does not increase (previous {previous!r})",
)

# The keys of ``key = value`` lines.  An integer key maps to the RunConfig
# field it sets, its range [low, high) and how a violation words that range.
_SCALAR_KEYS = {
    "means": None,
    "f0": None,
    "delta_f_min": None,
    "delta_f_max": None,
    "sigma": None,
    "priors": None,
    "k": ("length", 1, math.inf, "be >= 1"),
    "trials": ("trials", 1, math.inf, "be >= 1"),
    "seed": ("seed", 0, 2**64, "fit in an unsigned 64-bit integer"),
    "horizon": ("horizon", 0, math.inf, "be >= 0"),
    "snr_db": None,
    "sigma_grid": None,
}


class ConfigError(ValueError):
    """Invalid run configuration; ``violations`` lists every problem found."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"invalid configuration:\n{lines}")


class MeasurementFormatError(ValueError):
    """Malformed measurement CSV."""


@dataclass
class RunConfig:
    """Everything a pipeline stage needs, already validated.

    ``transitions`` and ``horizon`` stay None when the file does not
    provide them; stages that need them raise a
    :class:`ConfigError`-style message through :meth:`model`.  The
    detector priors double as the chain's initial distribution.
    """

    params: DetectorParams
    transitions: np.ndarray | None = None
    emissions_override: np.ndarray | None = None
    length: int = 100
    trials: int = 10000
    seed: int = 0
    horizon: int | None = None
    snr_db_grid: list[float] | None = None
    sigma_grid: list[float] | None = None

    def emission_matrix(self) -> np.ndarray:
        """The explicit override when given, else the matrix implied by
        the detector parameters."""
        if self.emissions_override is not None:
            return self.emissions_override
        return build_emission_matrix(self.params)

    def model(self) -> HmmModel:
        if self.transitions is None:
            raise ConfigError(["a [transitions] block is required for this command"])
        return HmmModel(
            transitions=self.transitions,
            emissions=self.emission_matrix(),
            initial=np.array(self.params.priors),
        )


def _parse_floats(raw: str, key: str, lineno: int, violations: list[str]) -> list[float] | None:
    out = []
    for tok in raw.split():
        try:
            v = float(tok)
        except ValueError:
            violations.append(f"line {lineno}: {key}: {tok!r} is not a number")
            return None
        if not math.isfinite(v):
            violations.append(f"line {lineno}: {key}: values must be finite, got {tok!r}")
            return None
        out.append(v)
    if not out:
        violations.append(f"line {lineno}: {key}: no value given")
        return None
    return out


def _parse_int(raw: str, key: str, lineno: int, violations: list[str]) -> int | None:
    try:
        return int(raw.strip())
    except ValueError:
        violations.append(f"line {lineno}: {key}: {raw.strip()!r} is not an integer")
        return None


def parse_config(path) -> RunConfig:
    """Parse and validate a configuration file.

    Raises :class:`ConfigError` listing all violations, or propagates
    OSError when the file cannot be read.
    """
    text = Path(path).read_text()
    violations: list[str] = []
    assigned: dict[str, tuple[str, int]] = {}
    matrices: dict[str, list[list[float]]] = {}
    section: str | None = None
    section_line = 0

    def close_section() -> None:
        if section is not None and len(matrices[section]) != 3:
            violations.append(
                f"line {section_line}: [{section}] must have 3 rows, got {len(matrices[section])}"
            )

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        rows = matrices.get(section, [])  # the open section's rows
        if line.startswith("[") and line.endswith("]"):
            close_section()
            name = line[1:-1].strip()
            section = name if name in _SECTIONS and name not in matrices else None
            if section is None:
                kind = "duplicate" if name in matrices else "unknown"
                violations.append(f"line {lineno}: {kind} section [{name}]")
            else:
                matrices[name] = []
                section_line = lineno
        elif "=" in line:
            if section is not None and len(rows) < 3:
                violations.append(
                    f"line {lineno}: assignment inside incomplete section [{section}]"
                )
                continue
            section = None
            key, _, raw_val = line.partition("=")
            key = key.strip()
            if key not in _SCALAR_KEYS:
                violations.append(f"line {lineno}: unknown key {key!r}")
            elif key in assigned:
                violations.append(f"line {lineno}: duplicate key {key!r}")
            else:
                assigned[key] = (raw_val.strip(), lineno)
        elif section is None:
            violations.append(f"line {lineno}: expected 'key = value', a [section], or a matrix row")
        elif len(rows) >= 3:
            violations.append(f"line {lineno}: extra row in [{section}]")
        else:
            row = _parse_floats(line, f"[{section}] row {len(rows)}", lineno, violations)
            if row is not None and len(row) != 3:
                violations.append(f"line {lineno}: [{section}] rows need 3 entries, got {len(row)}")
                row = None
            rows.append(row or [math.nan] * 3)
    close_section()

    def value_of(key: str, parse=_parse_floats):
        if key not in assigned:
            return None
        raw_val, lineno = assigned[key]
        return parse(raw_val, key, lineno, violations)

    # Each detector key's values, or None when it is not given or breaks a rule.
    means, f0, dmin, dmax, sigma, priors = map(
        value_of, ("means", "f0", "delta_f_min", "delta_f_max", "sigma", "priors")
    )
    offset_keys = [k for k in ("f0", "delta_f_min", "delta_f_max") if k in assigned]
    if "means" in assigned and offset_keys:
        violations.append(
            "give either 'means' or 'f0'/'delta_f_min'/'delta_f_max', not both conventions"
        )
        means = None
    elif offset_keys:
        if len(offset_keys) != 3:
            violations.append(
                "'f0', 'delta_f_min', and 'delta_f_max' must be given together, "
                f"got only {', '.join(repr(k) for k in offset_keys)}"
            )
        elif f0 and dmin and dmax:
            if any(len(v) != 1 for v in (f0, dmin, dmax)):
                violations.append("'f0', 'delta_f_min', 'delta_f_max' each take a single value")
            elif dmin[0] <= 0 or dmax[0] <= 0:
                violations.append(
                    f"deviation offsets must be positive, got delta_f_min={dmin[0]}, "
                    f"delta_f_max={dmax[0]}"
                )
            else:
                means = [f0[0] - dmin[0], f0[0], f0[0] + dmax[0]]
    elif "means" not in assigned:
        violations.append("means are required: give 'means' or 'f0'/'delta_f_min'/'delta_f_max'")
    elif means and len(means) != 3:
        violations.append(f"'means' needs 3 values, got {len(means)}")
        means = None

    if "sigma" not in assigned:
        violations.append("'sigma' is required")
    elif sigma and len(sigma) != 1:
        violations.append("'sigma' takes a single value")
        sigma = None

    if "priors" not in assigned:
        logger.info("priors not given; assuming the uniform distribution")
    elif priors and len(priors) != 3:
        violations.append(f"'priors' needs 3 values, got {len(priors)}")
        priors = None

    params: DetectorParams | None = None
    if means and sigma:
        try:
            # Priors not given, or rejected, are uniform.
            params = DetectorParams(*means, sigma[0], priors or [1.0 / 3.0] * 3)
        except ValueError as exc:
            violations.append(str(exc))

    fields: dict = {}  # the RunConfig fields set so far; an unset one takes its default
    for key, rule in _SCALAR_KEYS.items():
        if rule is None or (value := value_of(key, _parse_int)) is None:
            continue
        field, low, high, wording = rule
        fields[field] = value
        if not low <= value < high:
            violations.append(f"{key!r} must {wording}, got {value}")

    snr_db_grid = value_of("snr_db")
    sigma_grid = value_of("sigma_grid")
    if snr_db_grid is not None and sigma_grid is not None:
        violations.append("give at most one of 'snr_db' and 'sigma_grid'")
    if sigma_grid is not None and any(v <= 0 for v in sigma_grid):
        violations.append("'sigma_grid' values must be positive")

    for name, (field, axis) in _SECTIONS.items():
        if len(matrices.get(name, ())) == 3:
            mat = np.array(matrices[name], dtype=float)
            problem = _matrix_violation(mat, f"[{name}]", axis)
            if problem is None:
                fields[field] = mat
            else:
                violations.append(problem)

    if violations:
        raise ConfigError(violations)
    assert params is not None
    return RunConfig(params, snr_db_grid=snr_db_grid, sigma_grid=sigma_grid, **fields)


@dataclass(frozen=True)
class MeasurementSeries:
    """Ordered frequency measurements with their index column.

    ``index_name`` is ``"k"`` (integer step) or ``"timestamp"``; the
    index is strictly increasing either way.
    """

    index_name: str
    index: np.ndarray
    z_hz: np.ndarray


def _first_bad(index: np.ndarray, z: np.ndarray, integer_index: bool, last: float):
    """The position of the first row that breaks a rule, and the rule's number in ``_RULES``.

    The rules: finite values; for a ``k`` index, an integer of magnitude
    below 2**53; an index above the one before it (``last``, for row 0).
    """
    kept = {0: np.isfinite(index) & np.isfinite(z), 3: index > np.append(last, index[:-1])}
    if integer_index:
        kept.update({1: np.trunc(index) == index, 2: np.abs(index) < _K_LIMIT})
    good = functools.reduce(np.logical_and, kept.values())
    if good.all():
        return None
    pos = int(good.argmin())
    return pos, min(rule for rule, ok in kept.items() if not ok[pos])


def _parse_chunk(lines, width: int, idx_col: int, z_col: int, integer_index: bool, last: float):
    """The index and ``z_hz`` columns of a chunk of body lines, as contiguous arrays; or None.

    None is doubt, and :func:`_parse_rows` must read the chunk: numpy
    rejected a field (it takes fewer spellings than ``float``: no
    ``1_0``, no non-ASCII digits, no quoted fields), the rows are ragged
    or of the wrong width (loadtxt, without ``usecols``, checks that), a
    row breaks a rule of :func:`_first_bad`, the chunk holds a character
    of ``_SEPARATORS``, or a line longer than ``csv.field_size_limit()``,
    which may hold a field that csv rejects.  Blank lines alone give
    empty columns.
    """
    text, limit = "".join(lines), csv.field_size_limit()
    if any(c in text for c in _SEPARATORS):
        return None
    if len(text) > limit and any(len(line) > limit for line in lines):
        return None
    del text  # not held while numpy parses the chunk
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blank lines only warn
        try:
            table = np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2, comments=None)
        except ValueError:  # a field numpy cannot parse, a ragged row
            return None
    if not len(table):
        table = table.reshape(0, width)
    if table.shape[1] != width:
        return None
    index, z = np.ascontiguousarray(table[:, idx_col]), np.ascontiguousarray(table[:, z_col])
    return None if _first_bad(index, z, integer_index, last) else (index, z)


def _kept(fh, lines: list[str]):
    """The lines of ``fh``, each appended to ``lines`` as it is read."""
    for line in fh:
        lines.append(line)
        yield line


def _parse_rows(lines, width, idx_col, z_col, integer_index, last, fh, path, first: int):
    """The checked columns of a chunk that numpy doubts, and its number of rows (csv records).

    ``csv.reader`` reads ``lines``, then the lines of ``fh`` that close a
    quoted field still open at their end, appending them to ``lines``.
    An error names its row, counted from ``first``; a row that breaks a
    rule of :func:`_first_bad` is named before a later unreadable one.
    """
    reader = csv.reader(itertools.chain(lines, _kept(fh, lines)))
    index, values = [], []
    rows, problem = 0, None
    try:
        for rows, row in enumerate(reader, start=1):
            if len(row) == width:
                try:
                    idx, z = float(row[idx_col]), float(row[z_col])
                except ValueError:
                    problem = f"fields must be numbers, got {row!r}"
                    break
                index.append(idx)
                values.append(z)
            elif row and (len(row) > 1 or row[0].strip()):  # a blank line is skipped
                problem = f"expected {width} fields, got {len(row)}"
                break
            if reader.line_num == len(lines):  # every line held is read
                break
    except csv.Error as exc:  # a field over csv.field_size_limit()
        rows, problem = rows + 1, str(exc)
    columns = np.array(index), np.array(values)
    bad = _first_bad(*columns, integer_index, last)
    if bad is not None:  # the fields of the row are read again for the message
        pos, rule = bad
        data = (item for item in enumerate(csv.reader(lines)) if len(item[1]) == width)
        number, row = next(itertools.islice(data, pos, None))
        previous = float(columns[0][pos - 1]) if pos else last
        message = _RULES[rule].format(row=row, field=row[idx_col], previous=previous)
        raise MeasurementFormatError(f"{path}: row {first + number}: {message}")
    if problem is not None:
        raise MeasurementFormatError(f"{path}: row {first + rows - 1}: {problem}")
    return columns, rows


@contextmanager
def _measurement_chunks(path):
    """The index name of the measurement CSV ``path`` and an iterator of its body's chunks.

    Reads and checks the header on entry; the iterator then reads the
    body once, front to back (:func:`_body_chunks`), so a pipe loads as a
    file does.  The file stays open until the ``with`` block ends.
    """
    try:
        with open(path, newline="") as fh:
            try:
                header = [cell.strip() for cell in next(csv.reader(fh))]
            except StopIteration:
                raise MeasurementFormatError(f"{path}: empty file") from None
            except csv.Error as exc:  # a field over csv.field_size_limit()
                raise MeasurementFormatError(f"{path}: row 1: {exc}") from None
            index_candidates = [name for name in ("k", "timestamp") if name in header]
            if len(index_candidates) != 1 or "z_hz" not in header:
                raise MeasurementFormatError(
                    f"{path}: header must name 'z_hz' and exactly one of 'k' or 'timestamp', "
                    f"got {','.join(header)!r}"
                )
            index_name = index_candidates[0]
            yield index_name, _body_chunks(fh, path, header, index_name)
    except UnicodeDecodeError as exc:  # bytes the file's encoding cannot decode
        raise MeasurementFormatError(f"{path}: {exc}") from None


def _body_chunks(fh, path, header: list[str], index_name: str):
    """The checked index and ``z_hz`` columns of the body of ``fh``, ``_LOAD_ROWS`` lines at a time.

    A chunk is parsed by numpy (:func:`_parse_chunk`), or if numpy
    doubts it by :func:`_parse_rows`, which also takes ``1_0``, full-width
    digits and quoted fields and words every error; both give the same
    values for any input both accept.  A body without rows is an error.
    """
    spec = len(header), header.index(index_name), header.index("z_hz"), index_name == "k"
    last = -math.inf  # the last index yielded
    first = 2  # the row number of the chunk's first line
    while lines := list(itertools.islice(fh, _LOAD_ROWS)):
        # A chunk that numpy takes has no quote, so each of its lines is one row.
        columns, rows = _parse_chunk(lines, *spec, last), len(lines)
        if columns is None:
            columns, rows = _parse_rows(lines, *spec, last, fh, path, first)
        first += rows
        del lines  # so that the next chunk is read without this one's text
        if columns[0].size:  # a chunk of blank lines has none
            last = float(columns[0][-1])
            yield columns
    if last == -math.inf:
        raise MeasurementFormatError(f"{path}: no data rows")


def load_measurements(path) -> MeasurementSeries:
    """Read a measurement CSV with header ``k,z_hz`` or ``timestamp,z_hz``.

    Columns are located by name, so files carrying extra columns (a
    simulated ``k,s,z_hz,x`` trace, say) load too.  Raises
    :class:`MeasurementFormatError` naming the offending row for
    malformed, non-finite, or non-increasing input, and for a ``k``
    index that is not an integer or of magnitude 2**53 or more;
    propagates OSError when the file cannot be read.  The checked chunks
    are appended to two growing ``array('d')`` columns, so loading holds
    little more than the 16 bytes a row of the result.
    """
    index, values = array("d"), array("d")
    with _measurement_chunks(path) as (index_name, chunks):
        for idx, z in chunks:
            index.frombytes(idx.view(np.uint8))  # frombytes takes bytes, not floats
            values.frombytes(z.view(np.uint8))
    return MeasurementSeries(
        index_name=index_name, index=np.frombuffer(index), z_hz=np.frombuffer(values)
    )
