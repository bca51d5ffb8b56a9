"""Run configuration files and measurement CSV ingestion.

Configuration files are plain text: ``key = value`` assignments plus
optional ``[transitions]`` / ``[emission_matrix]`` blocks of three
whitespace-separated matrix rows.  ``#`` starts a comment anywhere on a
line.  Parsing is exhaustive: every violation is collected and reported
in one error rather than stopping at the first.
"""
from __future__ import annotations

import csv
import logging
import math
import warnings
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

_SECTIONS = ("transitions", "emission_matrix")

# Step indices are read as floats, which hold every integer of magnitude
# below 2**53 exactly; larger ones would be rounded onto a neighbour.
_K_LIMIT = 2.0**53

# Information separators: numpy strips them from a field as whitespace,
# ``float`` rejects them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Rows per ``np.loadtxt`` call of the body reader.  A chunk of two columns
# holds 256 kB; 2e5 rows load as fast with 2**12 to 2**18 rows per call.
_LOAD_ROWS = 2**14

_SCALAR_KEYS = {
    "means",
    "f0",
    "delta_f_min",
    "delta_f_max",
    "sigma",
    "priors",
    "k",
    "trials",
    "seed",
    "horizon",
    "snr_db",
    "sigma_grid",
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
        if line.startswith("[") and line.endswith("]"):
            close_section()
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                violations.append(f"line {lineno}: unknown section [{name}]")
                section = None
                continue
            if name in matrices:
                violations.append(f"line {lineno}: duplicate section [{name}]")
                section = None
                continue
            matrices[name] = []
            section = name
            section_line = lineno
            continue
        if "=" in line:
            if section is not None and len(matrices[section]) < 3:
                violations.append(
                    f"line {lineno}: assignment inside incomplete section [{section}]"
                )
                continue
            section = None
            key, _, raw_val = line.partition("=")
            key = key.strip()
            raw_val = raw_val.strip()
            if key not in _SCALAR_KEYS:
                violations.append(f"line {lineno}: unknown key {key!r}")
                continue
            if key in assigned:
                violations.append(f"line {lineno}: duplicate key {key!r}")
                continue
            assigned[key] = (raw_val, lineno)
            continue
        if section is not None:
            rows = matrices[section]
            if len(rows) >= 3:
                violations.append(f"line {lineno}: extra row in [{section}]")
                continue
            row = _parse_floats(line, f"[{section}] row {len(rows)}", lineno, violations)
            if row is None:
                rows.append([math.nan, math.nan, math.nan])
            elif len(row) != 3:
                violations.append(
                    f"line {lineno}: [{section}] rows need 3 entries, got {len(row)}"
                )
                rows.append([math.nan, math.nan, math.nan])
            else:
                rows.append(row)
            continue
        violations.append(f"line {lineno}: expected 'key = value', a [section], or a matrix row")
    close_section()

    def floats_of(key: str) -> list[float] | None:
        if key not in assigned:
            return None
        raw_val, lineno = assigned[key]
        return _parse_floats(raw_val, key, lineno, violations)

    def int_of(key: str) -> int | None:
        if key not in assigned:
            return None
        raw_val, lineno = assigned[key]
        return _parse_int(raw_val, key, lineno, violations)

    means_val = floats_of("means")
    f0_val = floats_of("f0")
    dmin_val = floats_of("delta_f_min")
    dmax_val = floats_of("delta_f_max")
    sigma_val = floats_of("sigma")
    priors_val = floats_of("priors")

    offset_keys = [k for k in ("f0", "delta_f_min", "delta_f_max") if k in assigned]
    means: tuple[float, float, float] | None = None
    if "means" in assigned and offset_keys:
        violations.append(
            "give either 'means' or 'f0'/'delta_f_min'/'delta_f_max', not both conventions"
        )
    elif means_val is not None:
        if len(means_val) == 3:
            means = (means_val[0], means_val[1], means_val[2])
        else:
            violations.append(f"'means' needs 3 values, got {len(means_val)}")
    elif offset_keys:
        if len(offset_keys) != 3:
            violations.append(
                "'f0', 'delta_f_min', and 'delta_f_max' must be given together, "
                f"got only {', '.join(repr(k) for k in offset_keys)}"
            )
        elif f0_val is not None and dmin_val is not None and dmax_val is not None:
            if any(len(v) != 1 for v in (f0_val, dmin_val, dmax_val)):
                violations.append("'f0', 'delta_f_min', 'delta_f_max' each take a single value")
            elif dmin_val[0] <= 0 or dmax_val[0] <= 0:
                violations.append(
                    f"deviation offsets must be positive, got delta_f_min={dmin_val[0]}, "
                    f"delta_f_max={dmax_val[0]}"
                )
            else:
                f0 = f0_val[0]
                means = (f0 - dmin_val[0], f0, f0 + dmax_val[0])
    elif "means" not in assigned:
        violations.append("means are required: give 'means' or 'f0'/'delta_f_min'/'delta_f_max'")

    sigma: float | None = None
    if sigma_val is not None:
        if len(sigma_val) == 1:
            sigma = sigma_val[0]
        else:
            violations.append("'sigma' takes a single value")
    elif "sigma" not in assigned:
        violations.append("'sigma' is required")

    priors: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    if priors_val is not None:
        if len(priors_val) == 3:
            priors = (priors_val[0], priors_val[1], priors_val[2])
        else:
            violations.append(f"'priors' needs 3 values, got {len(priors_val)}")
    elif "priors" not in assigned:
        logger.info("priors not given; assuming the uniform distribution")

    params: DetectorParams | None = None
    if means is not None and sigma is not None:
        try:
            params = DetectorParams(
                m_neg=means[0], m_zero=means[1], m_pos=means[2], sigma=sigma, priors=priors
            )
        except ValueError as exc:
            violations.append(str(exc))

    length = int_of("k")
    if length is not None and length < 1:
        violations.append(f"'k' must be >= 1, got {length}")
    trials = int_of("trials")
    if trials is not None and trials < 1:
        violations.append(f"'trials' must be >= 1, got {trials}")
    seed = int_of("seed")
    if seed is not None and not (0 <= seed < 2**64):
        violations.append(f"'seed' must fit in an unsigned 64-bit integer, got {seed}")
    horizon = int_of("horizon")
    if horizon is not None and horizon < 0:
        violations.append(f"'horizon' must be >= 0, got {horizon}")

    snr_db_grid = floats_of("snr_db")
    sigma_grid = floats_of("sigma_grid")
    if snr_db_grid is not None and sigma_grid is not None:
        violations.append("give at most one of 'snr_db' and 'sigma_grid'")
    if sigma_grid is not None and any(v <= 0 for v in sigma_grid):
        violations.append("'sigma_grid' values must be positive")

    transitions: np.ndarray | None = None
    if "transitions" in matrices and len(matrices["transitions"]) == 3:
        t = np.array(matrices["transitions"], dtype=float)
        problem = _matrix_violation(t, "[transitions]", 1)
        if problem is None:
            transitions = t
        else:
            violations.append(problem)

    emissions_override: np.ndarray | None = None
    if "emission_matrix" in matrices and len(matrices["emission_matrix"]) == 3:
        r = np.array(matrices["emission_matrix"], dtype=float)
        problem = _matrix_violation(r, "[emission_matrix]", 0)
        if problem is None:
            emissions_override = r
        else:
            violations.append(problem)

    if violations:
        raise ConfigError(violations)
    assert params is not None
    counts = {"length": length, "trials": trials, "seed": seed}
    return RunConfig(
        params=params,
        transitions=transitions,
        emissions_override=emissions_override,
        horizon=horizon,
        snr_db_grid=snr_db_grid,
        sigma_grid=sigma_grid,
        # Unset counts take the dataclass defaults.
        **{name: value for name, value in counts.items() if value is not None},
    )


@dataclass(frozen=True)
class MeasurementSeries:
    """Ordered frequency measurements with their index column.

    ``index_name`` is ``"k"`` (integer step) or ``"timestamp"``; the
    index is strictly increasing either way.
    """

    index_name: str
    index: np.ndarray
    z_hz: np.ndarray


def _read_columns(fh, width: int, idx_col: int, z_col: int, integer_index: bool):
    """The index and ``z_hz`` columns of the body of ``fh``, read in chunks; or None.

    A pre-pass over the body returns None for a character of
    ``_SEPARATORS`` and counts the line ends, an upper bound on the rows.
    Two contiguous columns of that length are allocated, then filled by
    ``np.loadtxt(..., max_rows=_LOAD_ROWS)`` calls that go on where the
    last one stopped; each chunk is checked as it lands, and so is the
    seam with the chunk before.  So the columns are all that the body
    costs, beside one chunk.

    None means this reader cannot vouch for the body, and the row loop
    of :func:`load_measurements` must read it: numpy rejected a field
    (it takes fewer spellings than ``float``: no ``1_0``, no non-ASCII
    digits, no quoted fields), the rows are ragged or of the wrong
    width, there are none, a value fails a check, or the file holds a
    character of ``_SEPARATORS``.  Without ``usecols``, loadtxt rejects
    ragged rows instead of ignoring their extra fields.  ``fh`` must be
    seekable, and able to tell where it stands: the pre-pass reads the
    body before the chunks read it again.
    """
    body = fh.tell()
    lines = 1  # a last line without an end
    while block := fh.read(1 << 16):
        if any(c in block for c in _SEPARATORS):
            return None
        lines += block.count("\n")
        if "\r" in block:  # a bare CR ends a line too
            lines += block.count("\r") - block.count("\r\n")
    fh.seek(body)
    index, z = np.empty(lines), np.empty(lines)
    filled = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a read past the last row only warns
        while True:
            try:
                table = np.loadtxt(
                    fh, delimiter=",", dtype=float, ndmin=2, comments=None, max_rows=_LOAD_ROWS
                )
            except ValueError:  # a field numpy cannot parse, a ragged row
                return None
            if not len(table):
                break
            stop = filled + len(table)
            if table.shape[1] != width or stop > lines:
                return None
            index[filled:stop], z[filled:stop] = table[:, idx_col], table[:, z_col]
            idx = index[max(filled - 1, 0) : stop]  # and the last row of the chunk before
            ok = np.isfinite(idx).all() and np.isfinite(z[filled:stop]).all()
            ok = ok and (idx[1:] > idx[:-1]).all()
            if ok and integer_index:
                ok = (np.trunc(idx) == idx).all() and (np.abs(idx) < _K_LIMIT).all()
            if not ok:
                return None
            filled = stop
    return (index[:filled], z[:filled]) if filled else None


def load_measurements(path) -> MeasurementSeries:
    """Read a measurement CSV with header ``k,z_hz`` or ``timestamp,z_hz``.

    Columns are located by name, so files carrying extra columns (a
    simulated ``k,s,z_hz,x`` trace, say) load too; only the index and
    ``z_hz`` columns are read.  Raises
    :class:`MeasurementFormatError` naming the offending row for
    malformed, non-finite, or non-increasing input, and for a ``k``
    index that is not an integer or whose magnitude reaches 2**53 (from
    there on a float cannot hold every integer); propagates OSError
    when the file cannot be read.

    The body is read into two preallocated contiguous columns by
    ``np.loadtxt`` calls of ``_LOAD_ROWS`` rows, checked chunk by chunk
    as arrays, so loading holds little more than the 16 bytes a row of
    the result.  When that reader cannot vouch for the body, the file is
    read again row by row: that loop also takes what ``float`` takes and
    numpy does not (``1_0``, full-width digits, quoted fields), and it
    words every error.  Both give the same arrays for any input both
    accept.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(iter(fh.readline, ""))  # iterating fh would stop fh.tell()
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise MeasurementFormatError(f"{path}: empty file") from None
        index_candidates = [name for name in ("k", "timestamp") if name in header]
        if len(index_candidates) != 1 or "z_hz" not in header:
            raise MeasurementFormatError(
                f"{path}: header must name 'z_hz' and exactly one of 'k' or 'timestamp', "
                f"got {','.join(header)!r}"
            )
        index_name = index_candidates[0]
        idx_col = header.index(index_name)
        z_col = header.index("z_hz")
        if fh.seekable():  # a pipe is read once, by the row loop
            columns = _read_columns(fh, len(header), idx_col, z_col, index_name == "k")
            if columns is not None:
                return MeasurementSeries(index_name=index_name, index=columns[0], z_hz=columns[1])
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
        index: list[float] = []
        values: list[float] = []
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise MeasurementFormatError(
                    f"{path}: row {rownum}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                idx = float(row[idx_col])
                z = float(row[z_col])
            except ValueError:
                raise MeasurementFormatError(
                    f"{path}: row {rownum}: fields must be numbers, got {row!r}"
                ) from None
            if not (math.isfinite(idx) and math.isfinite(z)):
                raise MeasurementFormatError(
                    f"{path}: row {rownum}: values must be finite, got {row!r}"
                )
            if index_name == "k":
                if idx != int(idx):
                    raise MeasurementFormatError(
                        f"{path}: row {rownum}: step index must be an integer, "
                        f"got {row[idx_col]!r}"
                    )
                if not -_K_LIMIT < idx < _K_LIMIT:
                    raise MeasurementFormatError(
                        f"{path}: row {rownum}: step index {row[idx_col]!r} is out of range: "
                        "its magnitude must be below 2**53"
                    )
            if index and idx <= index[-1]:
                raise MeasurementFormatError(
                    f"{path}: row {rownum}: index {row[idx_col]!r} does not increase "
                    f"(previous {index[-1]!r})"
                )
            index.append(idx)
            values.append(z)
    if not index:
        raise MeasurementFormatError(f"{path}: no data rows")
    return MeasurementSeries(
        index_name=index_name,
        index=np.array(index),
        z_hz=np.array(values),
    )
