"""Shared fixtures: the reference configuration used across the suite."""
import contextlib
import csv
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import pytest

import gridhmm as gh
from gridhmm.config import _K_LIMIT, MeasurementFormatError, MeasurementSeries
from gridhmm.viterbi import TIE_EPS, _infeasible, _log_params, _symbol_indices

def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


# Reference detector configuration and the 4-decimal emission matrix it
# must reproduce.
REFERENCE_MEANS = (49.0, 50.0, 51.0)
REFERENCE_SIGMA = 0.2
REFERENCE_PRIORS = (0.1, 0.8, 0.1)
REFERENCE_EMISSION_4DP = np.array(
    [
        [0.9814, 0.0018, 0.0000],
        [0.0186, 0.9965, 0.0186],
        [0.0000, 0.0018, 0.9814],
    ]
)
REFERENCE_THRESHOLDS = (49.41682233833281, 50.58317766166719)

REFERENCE_P = np.array(
    [
        [0.2, 0.7, 0.1],
        [0.1, 0.8, 0.1],
        [0.1, 0.7, 0.2],
    ]
)
REFERENCE_STATIONARY = np.array([1.0 / 9.0, 7.0 / 9.0, 1.0 / 9.0])

# Asymmetric study configuration for the Monte Carlo comparisons.
STUDY_INITIAL = (0.25, 0.6, 0.15)
STUDY_MEANS = (49.4, 50.0, 50.7)


@pytest.fixture
def ref_params() -> gh.DetectorParams:
    return gh.DetectorParams(
        m_neg=REFERENCE_MEANS[0],
        m_zero=REFERENCE_MEANS[1],
        m_pos=REFERENCE_MEANS[2],
        sigma=REFERENCE_SIGMA,
        priors=REFERENCE_PRIORS,
    )


@pytest.fixture
def ref_model(ref_params) -> gh.HmmModel:
    return gh.HmmModel(
        transitions=REFERENCE_P,
        emissions=gh.build_emission_matrix(ref_params),
        initial=np.array(REFERENCE_PRIORS),
    )


def random_model(gen: np.random.Generator, allow_zeros: bool = True) -> gh.HmmModel:
    """Random valid model; optionally sparsified to exercise -inf factors."""
    p = gen.dirichlet(np.ones(3), size=3)
    r = gen.dirichlet(np.ones(3), size=3).T
    pi = gen.dirichlet(np.ones(3))
    if allow_zeros and gen.random() < 0.4:
        i, j = gen.integers(0, 3, size=2)
        if p[i].max() > p[i, j] + 0.05:  # keep the row renormalizable
            p[i, j] = 0.0
            p[i] /= p[i].sum()
    if allow_zeros and gen.random() < 0.4:
        i, j = gen.integers(0, 3, size=2)
        if r[:, j].max() > r[i, j] + 0.05:
            r[i, j] = 0.0
            r[:, j] /= r[:, j].sum()
    return gh.HmmModel(transitions=p, emissions=r, initial=pi)


def sparse_model(gen: np.random.Generator) -> gh.HmmModel:
    """Random model with about half of its entries zero: many distinct score-to-go rows."""

    def sparse(shape):
        w = gen.random(shape) * (gen.random(shape) < 0.5)
        w[..., gen.integers(0, 3)] += 0.1  # no row is all zero
        return w / w.sum(axis=-1, keepdims=True)

    return gh.HmmModel(transitions=sparse((3, 3)), emissions=sparse((3, 3)).T, initial=sparse(3))


def feasible_observation(model: gh.HmmModel, length: int, gen: np.random.Generator) -> np.ndarray:
    """Symbol sequence drawn from the model itself, so decoding is feasible."""
    stream = gh.RngStream(int(gen.integers(0, 2**63)), 0)
    hidden = gh.simulate_states(model, length, stream)
    return gh.emit_symbols(hidden, model.emissions, stream)


# Models of the long-record and batch-kernel cross-checks.
STICKY_P = np.array([[0.9, 0.1, 0.0], [0.05, 0.9, 0.05], [0.0, 0.1, 0.9]])
STICKY_PARAMS = gh.DetectorParams(
    m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.35, priors=(0.1, 0.8, 0.1)
)

MODELS = {
    "sticky": gh.HmmModel(
        transitions=STICKY_P,
        emissions=gh.build_emission_matrix(STICKY_PARAMS),
        initial=np.array([0.1, 0.8, 0.1]),
    ),
    "identity": gh.HmmModel(
        transitions=STICKY_P, emissions=np.eye(3), initial=np.array([0.1, 0.8, 0.1])
    ),
    # Records sampled from this model have steps where two successors
    # score equally (18 such steps in an 11 x 37 batch of trials), so the
    # TIE_EPS rule decides them.
    "tie": gh.HmmModel(
        transitions=np.array([[0.2, 0.5, 0.3], [0.05, 0.9, 0.05], [0.5, 0.5, 0.0]]),
        emissions=np.array([[0.5, 0.0, 0.5], [0.5, 0.9, 0.5], [0.0, 0.1, 0.0]]),
        initial=np.array([0.5, 0.2, 0.3]),
    ),
}


def reference_decode(symbols, model):
    """The decoder written the plain way: one array operation per step.

    One step per iteration of the backward pass, one per iteration of
    the reconstruction, with the same additions in the same order, the
    same normalisation (each score-to-go row minus its maximum, when
    that is finite) and the same ``TIE_EPS`` rule as ``viterbi_decode``.
    """
    x = _symbol_indices(symbols, "symbols")
    log_init, log_trans, log_emit = _log_params(model)
    n = x.size
    to_go = np.zeros((n, 3))
    for k in range(n - 2, -1, -1):
        cand = log_trans + (log_emit[x[k + 1]] + to_go[k + 1])[None, :]
        to_go[k] = cand.max(axis=1)
        top = to_go[k].max()
        if np.isfinite(top):
            to_go[k] -= top
    head = log_init + log_emit[x[0]] + to_go[0]
    best = float(head.max())
    if not np.isfinite(best):
        raise gh.InfeasibleObservationError("infeasible")
    out = np.empty(n, dtype=np.int64)
    out[0] = int(np.argmax(head >= best - TIE_EPS))
    for k in range(n - 1):
        cand = log_trans[out[k]] + log_emit[x[k + 1]] + to_go[k + 1]
        out[k + 1] = int(np.argmax(cand >= float(cand.max()) - TIE_EPS))
    return out - 1


@dataclass(frozen=True)
class Trellis:
    """Forward dynamic-programming lattice for one observation sequence.

    ``log_scores[k, j]`` is the best log joint score over state prefixes
    ending in state index j after observation k.  ``backpointers[k, j]``
    is the predecessor symbol (-1, 0, +1) achieving it, with the
    smallest symbol kept on exact score ties; row 0 has no predecessor
    and is left as 0.
    """

    log_scores: np.ndarray
    backpointers: np.ndarray


def compute_trellis(symbols, model):
    """Forward pass: best-prefix scores and predecessor choices per step."""
    x = _symbol_indices(symbols, "symbols")
    gh.require_valid(model)
    log_init, log_trans, log_emit = _log_params(model)
    n = x.size
    scores = np.empty((n, 3))
    back = np.zeros((n, 3), dtype=np.int8)
    scores[0] = log_init + log_emit[x[0]]
    for k in range(1, n):
        cand = scores[k - 1][:, None] + log_trans  # cand[i, j]: from i into j
        best = cand.argmax(axis=0)
        scores[k] = cand[best, np.arange(3)] + log_emit[x[k]]
        back[k] = best - 1
    return Trellis(scores, back)


# Enumeration guard: 3^12 sequences is the most brute_force_mlse will score.
BRUTE_FORCE_MAX_LEN = 12


def brute_force_mlse(symbols, model):
    """Reference decoder: score every one of the 3^K state sequences.

    An independent check on ``viterbi_decode``; refuses sequences longer
    than ``BRUTE_FORCE_MAX_LEN``.  Applies the same tie rule: first
    sequence in lexicographic order whose score is within ``TIE_EPS`` of
    the maximum.
    """
    x = _symbol_indices(symbols, "symbols")
    gh.require_valid(model)
    n = x.size
    if n > BRUTE_FORCE_MAX_LEN:
        raise ValueError(
            f"brute-force enumeration is limited to {BRUTE_FORCE_MAX_LEN} steps, got {n}"
        )
    log_init, log_trans, log_emit = _log_params(model)
    count = 3**n
    # seqs rows enumerate state-index sequences in lexicographic order.
    seqs = np.empty((count, n), dtype=np.int8)
    base = np.arange(count)
    for k in range(n):
        seqs[:, k] = (base // 3 ** (n - 1 - k)) % 3
    idx = seqs.astype(np.int64)
    scores = log_init[idx[:, 0]] + log_emit[x[0], idx[:, 0]]
    for k in range(1, n):
        scores = scores + log_trans[idx[:, k - 1], idx[:, k]] + log_emit[x[k], idx[:, k]]
    top = float(scores.max())
    if not np.isfinite(top):
        raise _infeasible(x, log_init, log_trans, log_emit)
    winner = int(np.argmax(scores >= top - TIE_EPS))
    return idx[winner] - 1


def reference_choices(log_trans, log_emit, x, to_go):
    """The successor table built the plain way: one argmax over a stacked axis.

    ``cand[k, j, t] = (log_trans[i, j] + log_emit[x[k, t], j]) + to_go[k, j, t]``
    for each predecessor i, whole records at once; the first j within
    ``TIE_EPS`` of the best wins.  Row 0 stays 0.
    """
    n, records = x.shape
    choice = np.zeros((n, 3, records), dtype=np.int8)
    le = log_emit.T[:, x[1:]].transpose(1, 0, 2)  # le[k, j, t] = log_emit[x[k + 1, t], j]
    for i in range(3):
        cand = log_trans[i][:, None] + le + to_go[1:]
        tied = cand >= cand.max(axis=1, keepdims=True) - TIE_EPS
        choice[1:, i] = np.argmax(tied, axis=1)
    return choice


def _code(table):
    """Codes (..., T) int8 of the successor maps ``i -> table[..., i, t]`` of a table."""
    return table[..., 0, :] + 3 * table[..., 1, :] + 9 * table[..., 2, :]


def reference_follow(table, first):
    """The successor walk written the plain way: one step at a time per record.

    Each record walks a ``bytes`` copy of its own (K, 3) slice of the
    (K, 3, T) table from its first state; returns paths (T, K) int8.
    """
    n, _, records = table.shape
    out = bytearray()
    for t, j in enumerate(np.asarray(first).tolist()):
        steps = table[:, :, t].tobytes()
        path = bytearray((j,))
        for k in range(3, 3 * n, 3):
            j = steps[k + j]
            path.append(j)
        out += path
    return np.frombuffer(out, dtype=np.int8).reshape(records, n)


def reference_load(path):
    """The measurement loader written the plain way: one ``float`` call per field.

    One row loop over the whole body, where ``load_measurements`` reads
    with ``csv`` only the chunks numpy doubts: same header rule, same
    checks in the same order, same messages.
    """
    try:
        with open(path, newline="") as fh:
            return _reference_rows(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise MeasurementFormatError(f"{path}: {exc}") from None


def _reference_rows(path, reader):
    """The series that the csv ``reader`` of the file ``path`` holds, checked row by row."""
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise MeasurementFormatError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise MeasurementFormatError(f"{path}: row 1: {exc}") from None
    index_candidates = [name for name in ("k", "timestamp") if name in header]
    if len(index_candidates) != 1 or "z_hz" not in header:
        raise MeasurementFormatError(
            f"{path}: header must name 'z_hz' and exactly one of 'k' or 'timestamp', "
            f"got {','.join(header)!r}"
        )
    index_name = index_candidates[0]
    idx_col = header.index(index_name)
    z_col = header.index("z_hz")
    index: list[float] = []
    values: list[float] = []
    rownum = 1  # the header's
    try:
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
    except csv.Error as exc:  # a field over csv.field_size_limit(), in the row after rownum
        raise MeasurementFormatError(f"{path}: row {rownum + 1}: {exc}") from None
    if not index:
        raise MeasurementFormatError(f"{path}: no data rows")
    return MeasurementSeries(index_name=index_name, index=np.array(index), z_hz=np.array(values))


def reference_joint_log_prob(symbols, states, model):
    """``joint_log_prob`` written the plain way: whole-array gathers, one ``np.sum`` each."""
    x = _symbol_indices(symbols, "symbols")
    s = _symbol_indices(states, "states")
    log_init, log_trans, log_emit = _log_params(model)
    return float(log_init[s[0]] + np.sum(log_emit[x, s]) + np.sum(log_trans[s[:-1], s[1:]]))


def reference_write(header, *columns):
    """The CSV text of the writer written the plain way: one %-format line per row.

    Float columns print through ``%.17g``, integer columns through
    ``%d`` and any other column through ``%s``, row by row over the
    columns' ``tolist()`` values.
    """
    cell = {"f": "%.17g", "i": "%d", "u": "%d"}
    line = ",".join(cell.get(np.asarray(c).dtype.kind, "%s") for c in columns) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(map(line.__mod__, rows))


@contextlib.contextmanager
def fed_pipe(data: bytes):
    """The path ``/dev/fd/N`` of the read end of a real pipe that a thread feeds ``data``."""
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with open(write_fd, "wb") as sink:
                sink.write(data)
        except BrokenPipeError:  # the reader closed its end before the last byte
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join(timeout=30)
    assert not writer.is_alive()
