"""Gaussian toolkit: Q-function accuracy and stream reproducibility."""
import itertools
import math
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridhmm as gh
from gridhmm import gaussian
from gridhmm.gaussian import _cumulative, _normals, _spawn_states, _stream_draws, _stream_words
from gridhmm.gaussian import probability

from conftest import oracle_generator

# --- independent oracle: trapezoidal integration of the normal density ---

_LO, _HI, _STEP = -6.0, 10.0, 2e-5


def _trapezoid_q_table():
    """Cumulative trapezoid of the standard normal pdf over [-6, 10].

    Composite-trapezoid truncation plus cumsum rounding stays below
    ~3e-10, comfortably inside the 1e-9 comparison budget; the tail mass
    beyond 10 (~7.6e-24) is negligible.
    """
    n = int(round((_HI - _LO) / _STEP))
    nodes = np.linspace(_LO, _HI, n + 1)
    pdf = np.exp(-0.5 * nodes * nodes) / math.sqrt(2.0 * math.pi)
    steps = np.diff(nodes)
    cum = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * (steps / 2.0))])
    return cum


_CUM = _trapezoid_q_table()


def q_oracle(x: float) -> float:
    i = int(round((x - _LO) / _STEP))
    return float(_CUM[-1] - _CUM[i])


def test_q_oracle_grid():
    # x in {-6.0, -5.9, ..., 6.0}
    for k in range(121):
        x = -6.0 + 0.1 * k
        assert abs(gh.q_function(x) - q_oracle(x)) <= 1e-9, f"x={x}"


def test_q_known_points():
    assert gh.q_function(0.0) == 0.5
    assert 0.0 <= gh.q_function(8.0) <= 1e-15
    assert abs(gh.q_function(2.0840) - 0.0186) <= 5e-5


def test_q_rejects_nan():
    with pytest.raises(ValueError):
        gh.q_function(float("nan"))


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_q_symmetry(x):
    assert abs(gh.q_function(-x) + gh.q_function(x) - 1.0) <= 1e-12


@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_q_monotone(x, y):
    lo, hi = min(x, y), max(x, y)
    assert gh.q_function(lo) >= gh.q_function(hi)


def test_probability_bounds():
    assert probability(0.0) == 0.0
    assert probability(1.0) == 1.0
    for bad in (-1e-12, 1.0 + 1e-12, float("nan")):
        with pytest.raises(ValueError):
            probability(bad)


# --- streams ---


def test_stream_determinism_bitwise():
    a = gh.RngStream(42, 3)
    b = gh.RngStream(42, 3)
    assert np.array_equal(a.random(1000), b.random(1000))
    a2 = gh.RngStream(42, 3)
    b2 = gh.RngStream(42, 3)
    assert np.array_equal(
        gh.sample_gaussian(0.0, 1.0, a2, 1000), gh.sample_gaussian(0.0, 1.0, b2, 1000)
    )


def test_stream_pinned_values():
    # Frozen draws; a change here means reproducibility across versions broke.
    assert gh.RngStream(0, 0).random() == 0.9429375528828794
    assert gh.sample_gaussian(0.0, 1.0, gh.RngStream(0, 0)) == 1.4436909546981256
    assert gh.RngStream(12345, 6).random() == 0.25344637142828963
    # So does the tests' oracle, numpy's Generator.
    assert oracle_generator(0, 0).random() == 0.9429375528828794
    assert oracle_generator(0, 0).normal(0.0, 1.0) == 1.4436909546981256
    assert oracle_generator(12345, 6).random() == 0.25344637142828963


def test_stream_independence_across_indices():
    draws = [gh.RngStream(7, t).random(4).tolist() for t in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert draws[i] != draws[j]
    # Creating stream t must not depend on whether other streams exist.
    fresh = gh.RngStream(7, 3).random(4).tolist()
    assert fresh == draws[3]


def test_stream_validation():
    with pytest.raises(ValueError):
        gh.RngStream(-1, 0)
    with pytest.raises(ValueError):
        gh.RngStream(2**64, 0)
    with pytest.raises(ValueError, match="non-negative"):
        gh.RngStream(1, -1)
    # The seed hash takes at most two 32-bit words of a stream index.
    with pytest.raises(ValueError, match=r"stream_index must fit in an unsigned 64-bit integer, got 18446744073709551616"):
        gh.RngStream(1, 2**64)


# PCG64's default multiplier (O'Neill 2014, HMC-CS-2014-0905).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_vectorised_streams_equal_rng_stream(seed, monkeypatch):
    # A seed takes one 32-bit word below 2**32 and two from there; so
    # does a stream index, which the third range crosses.  The last range
    # ends at the largest index, 2**64 - 1.
    ranges = [(0, 4), (2**31, 2**31 + 1), (2**32 - 2, 2**32 + 2), (2**64 - 3, 2**64)]
    for first, last in ranges:
        words = _spawn_states(seed, first, last)
        assert len(words) == 4
        assert all(w.dtype == np.uint64 and w.shape == (last - first,) for w in words)
        for t, (s_hi, s_lo, i_hi, i_lo) in zip(range(first, last), zip(*(w.tolist() for w in words))):
            want = oracle_generator(seed, t).bit_generator.state["state"]
            inc = (i_hi << 65 | i_lo << 1 | 1) % 2**128
            assert want["inc"] == inc
            assert want["state"] == (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) % 2**128
    # One draw; draws within one piece; and with pieces of 5 elements, so
    # pieces of 5 steps for one stream and of 1 step for four, draws that
    # cross piece seams.
    for piece, count in [(gaussian._PIECE, 1), (gaussian._PIECE, 9), (5, 1), (5, 13)]:
        monkeypatch.setattr(gaussian, "_PIECE", piece)
        for first, last in ranges + [(2**64 - 1, 2**64)]:
            draws = _stream_draws(seed, first, last, count)
            assert draws.shape == (count, last - first)
            for t, column in zip(range(first, last), draws.T):
                assert np.array_equal(column, oracle_generator(seed, t).random(count))


# --- raw words and the ziggurat ---

_SEEDS = [0, 1, 2**32 - 1, 2**64 - 1]
_OFFSETS = [0, 7, 2**14, 2**40]


def _pcg64(seed, start=0):
    """The numpy bit generator of ``RngStream(seed)``, advanced by ``start`` words."""
    return oracle_generator(seed, start=start).bit_generator


@pytest.mark.parametrize("seed", _SEEDS)
def test_stream_words_equal_random_raw(seed, monkeypatch):
    # Pieces of 5 words make every count but the first cross piece seams.
    for piece, count in [(gaussian._PIECE, 1), (gaussian._PIECE, 9), (5, 1), (5, 13)]:
        monkeypatch.setattr(gaussian, "_PIECE", piece)
        for start in _OFFSETS:
            pieces = list(_stream_words(seed, 0, 1, count, start))
            assert all(p.dtype == np.uint64 and p.shape[1] == 1 for p in pieces)
            assert np.array_equal(np.concatenate(pieces)[:, 0], _pcg64(seed, start).random_raw(count))


@pytest.mark.parametrize("seed", _SEEDS)
def test_normals_equal_standard_normal(seed, monkeypatch):
    # The normals, and the stream state after them, are numpy's; pieces of
    # 5 words cut wedge and tail attempts at the seams, often.
    for piece, count in [(gaussian._PIECE, 3000), (5, 400)]:
        monkeypatch.setattr(gaussian, "_PIECE", piece)
        for start in _OFFSETS:
            want = np.random.Generator(_pcg64(seed, start))
            stream = gh.RngStream(seed)
            stream._skip(start)
            assert np.array_equal(stream.standard_normal(count), want.standard_normal(count))
            assert want.bit_generator.state == _pcg64(seed, stream._offset).state
            words = _pcg64(seed, start).random_raw(count)
            normals, ends = _normals(words)
            want = np.random.Generator(_pcg64(seed, start))
            assert np.array_equal(normals, want.standard_normal(normals.size))
            assert want.bit_generator.state == _pcg64(seed, start + int(ends[-1])).state


def test_normal_is_mean_plus_sigma_times_standard_normal():
    means = np.array([49.0, 50.0, 51.0] * 700)
    normals = gh.RngStream(3).standard_normal(means.size)
    want = oracle_generator(3).normal(means, 0.35)
    assert np.array_equal(means + 0.35 * normals, want)


_MULT_INV = pow(_PCG_MULT, -1, 2**128)


def _next_word_is(word, inc):
    """A PCG64 bit generator whose next raw word is ``word``.

    The state it steps to has a high word of 0, so XSL-RR neither mixes
    nor rotates: its output is the low word.
    """
    bit_generator = oracle_generator(0).bit_generator
    state = (word - inc) * _MULT_INV % 2**128
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def test_normals_at_every_layer_boundary():
    # A word below its layer's ki returns ±rabs·wi at once, exactly; a
    # word at ki or above is a wedge (layers 1..255) or the tail (layer
    # 0), and numpy decides it from the words that follow.  A wedge at
    # ki sits by the curve and is accepted; at the largest rabs it sits
    # far from it and is mostly rejected.  The tail's sign is bit 8 of
    # rabs, not the word's sign bit, so both bits take both values.
    ki = gaussian._KI[:256].tolist()
    wi = gaussian._WI[:256].tolist()
    inc = 2 * 0x5851F42D4C957F2D + 1
    outcomes = set()
    for layer in range(256):
        for rabs in {ki[layer] - 1, ki[layer], ki[layer] + 256, 2**52 - 1} - {-1}:
            for sign in (0, 1):
                word = layer | sign << 8 | rabs << 9
                normals, ends = _normals(_next_word_is(word, inc).random_raw(64))
                want = np.random.Generator(_next_word_is(word, inc))
                assert np.array_equal(normals, want.standard_normal(normals.size))
                assert want.bit_generator.state == _next_word_is(word, inc).advance(int(ends[-1])).state
                if rabs < ki[layer]:
                    assert normals[0] == (-rabs if sign else rabs) * wi[layer]
                    outcomes.add("fast")
                elif layer == 0:
                    assert math.copysign(1.0, normals[0]) == (-1.0 if rabs >> 8 & 1 else 1.0)
                    assert abs(normals[0]) >= gaussian._R
                    outcomes.add("tail")
                else:
                    x = (-rabs if sign else rabs) * wi[layer]
                    outcomes.add("wedge accepted" if normals[0] == x else "wedge rejected")
    assert outcomes == {"fast", "tail", "wedge accepted", "wedge rejected"}


def _seam_words(word, inc):
    """A PCG64 bit generator whose raw word 4 is ``word``."""
    bit_generator = _next_word_is(word, inc)
    bit_generator.advance(-4)
    return bit_generator


@pytest.mark.parametrize("layer, rabs", [(0, 2**52 - 1), (200, None), (200, 2**52 - 1)])
def test_stream_normal_whose_words_cross_a_piece_seam(layer, rabs):
    # The stream reads its words in pieces of 5, and word 4, the last of
    # the first piece, starts a tail or wedge attempt (at ki, or far from
    # the curve) that reads on into the next piece.
    rabs = int(gaussian._KI[layer]) if rabs is None else rabs
    word = layer | rabs << 9
    inc = 2 * 0x5851F42D4C957F2D + 1
    assert _seam_words(word, inc).random_raw(5)[4] == word
    source = _seam_words(word, inc)
    stream = gh.RngStream(0)
    stream._pieces = (source.random_raw(5)[:, None] for _ in itertools.count())
    want = np.random.Generator(_seam_words(word, inc))
    assert np.array_equal(stream.random(4), want.random(4))
    assert np.array_equal(stream.standard_normal(3), want.standard_normal(3))
    assert stream.standard_normal() == want.standard_normal()
    assert want.bit_generator.state == _seam_words(word, inc).advance(stream._offset).state


_WEIGHTS = np.array([0.2, 0.0, 0.5, 0.3])
_SIZES = st.none() | st.integers(0, 40)
_DRAWS = st.lists(
    st.tuples(st.just("random"), _SIZES | st.tuples(st.integers(0, 4), st.integers(0, 4)))
    | st.tuples(st.just("standard_normal"), st.integers(0, 300))
    | st.tuples(st.sampled_from(["sample_gaussian", "sample_categorical"]), _SIZES),
    max_size=10,
)


def _means(size):
    return 50.0 if size is None else 49.0 + np.arange(size) % 3


def _draw(stream, kind, size):
    """One draw of the library from ``stream``."""
    if kind == "sample_gaussian":
        return gh.sample_gaussian(_means(size), 0.35, stream)
    if kind == "sample_categorical":
        return gh.sample_categorical(_WEIGHTS, stream, size)
    return getattr(stream, kind)(size)


def _oracle_draw(oracle, kind, size):
    """The same draw as numpy's Generator ``oracle`` makes it."""
    if kind == "sample_gaussian":
        return oracle.normal(_means(size), 0.35)
    if kind == "sample_categorical":
        u = np.asarray(oracle.random(size))
        return (np.cumsum(_WEIGHTS) <= u[..., None]).sum(axis=-1)
    return getattr(oracle, kind)(size)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.sampled_from([5, gaussian._PIECE]), _DRAWS)
@example(seed=1, index=2, piece=5, draws=[
    ("random", 0), ("standard_normal", 0), ("sample_gaussian", 0), ("sample_categorical", 0), ("random", (0, 3)),
])
def test_interleaved_draws_equal_the_oracle(seed, index, piece, draws):
    # Every draw equals numpy's, bit for bit, and the stream hands out
    # exactly the words numpy's bit generator steps through.
    with mock.patch.object(gaussian, "_PIECE", piece):
        stream = gh.RngStream(seed, index)
        oracle = oracle_generator(seed, index)
        for kind, size in draws:
            got, want = _draw(stream, kind, size), _oracle_draw(oracle, kind, size)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), (kind, size)
    assert oracle.bit_generator.state == oracle_generator(seed, index, stream._offset).bit_generator.state


def test_library_draws_leave_numpy_random_unloaded(tmp_path):
    # One engine: no draw of the library or the CLI builds numpy's Generator.
    config = tmp_path / "run.cfg"
    config.write_text("means = 49 50 51\nsigma = 0.2\npriors = 0.1 0.8 0.1\nk = 30\ntrials = 7\nseed = 3\n"
                      "[transitions]\n0.2 0.7 0.1\n0.1 0.8 0.1\n0.1 0.7 0.2\n")
    probe = (
        "import sys, numpy as np\n"
        "import gridhmm as gh\n"
        "from gridhmm.cli import main\n"
        "params = gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.2, priors=(0.1, 0.8, 0.1))\n"
        "p = np.array([[0.2, 0.7, 0.1], [0.1, 0.8, 0.1], [0.1, 0.7, 0.2]])\n"
        "model = gh.HmmModel(transitions=p, emissions=gh.build_emission_matrix(params), initial=np.array(params.priors))\n"
        "rng = gh.RngStream(5, 1)\n"
        "gh.sample_gaussian(50.0, 0.2, rng, size=3), gh.sample_categorical([0.5, 0.5], rng, size=3)\n"
        "hidden = gh.simulate_states(model, 50, rng)\n"
        "gh.emit_symbols(hidden, model.emissions, rng), gh.synthesize_measurements(hidden, params, rng)\n"
        "gh.run_monte_carlo(model, 20, 5, 9)\n"
        "for command in ('simulate', 'montecarlo'):\n"
        "    assert main([command, '--config', sys.argv[1]]) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(config)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "\nfield,bin,ht,va\ntrials,,7,7\n" in proc.stdout


def test_sample_gaussian_moments():
    rng = gh.RngStream(2024, 0)
    draws = gh.sample_gaussian(50.0, 0.2, rng, size=100_000)
    # 4 sigma/sqrt(n) bound on the sample mean
    assert abs(float(draws.mean()) - 50.0) <= 4.0 * 0.2 / math.sqrt(100_000)
    assert 0.196 <= float(draws.std()) <= 0.204


def test_sample_gaussian_determinism_and_validation():
    a = gh.sample_gaussian(0.0, 1.0, gh.RngStream(42, 0), size=64)
    b = gh.sample_gaussian(0.0, 1.0, gh.RngStream(42, 0), size=64)
    assert np.array_equal(a, b)
    assert isinstance(gh.sample_gaussian(1.0, 2.0, gh.RngStream(0, 0)), float)
    with pytest.raises(ValueError):
        gh.sample_gaussian(0.0, 0.0, gh.RngStream(0, 0))
    with pytest.raises(ValueError):
        gh.sample_gaussian(0.0, -1.0, gh.RngStream(0, 0))
    with pytest.raises(ValueError):
        gh.sample_gaussian(float("inf"), 1.0, gh.RngStream(0, 0))


def test_sample_categorical_degenerate():
    rng = gh.RngStream(5, 0)
    assert all(gh.sample_categorical([0.0, 1.0, 0.0], rng) == 1 for _ in range(200))


def test_sample_categorical_rejects_tiny_negative_weight():
    # The weights sum to 1 within tolerance, but no negative entry is a
    # probability; the message is the shared probability-vector check's.
    with pytest.raises(ValueError, match=r"weights\[1\] = -5e-10 is negative"):
        gh.sample_categorical([1 + 5e-10, -5e-10, 0.0], gh.RngStream(0, 0))


def test_sample_categorical_zero_weight_never_drawn():
    rng = gh.RngStream(9, 0)
    draws = gh.sample_categorical([0.5, 0.0, 0.5], rng, size=20_000)
    assert not np.any(draws == 1)


def test_sample_categorical_frequencies():
    weights = np.array([0.1, 0.8, 0.1])
    draws = gh.sample_categorical(weights, gh.RngStream(11, 0), size=1_000_000)
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.all(np.abs(freq - weights) <= 0.002)


def test_sample_categorical_uniform_chi_square():
    n = 1_000_000
    draws = gh.sample_categorical([1 / 3, 1 / 3, 1 / 3], gh.RngStream(13, 0), size=n)
    counts = np.bincount(draws, minlength=3)
    expected = n / 3.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    # 99.9% critical value for 2 degrees of freedom: -2 ln(0.001)
    assert stat < 13.815510557964274


def test_sample_categorical_validation():
    rng = gh.RngStream(0, 0)
    with pytest.raises(ValueError):
        gh.sample_categorical([0.5, 0.5, 0.1], rng)
    with pytest.raises(ValueError):
        gh.sample_categorical([-0.1, 0.6, 0.5], rng)
    with pytest.raises(ValueError):
        gh.sample_categorical([], rng)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6), st.integers(0, 2**32))
def test_sample_categorical_in_range(raw, seed):
    weights = np.array(raw) / np.sum(raw)
    # renormalized weights satisfy the 1e-9 sum contract
    idx = gh.sample_categorical(weights, gh.RngStream(seed, 0), size=32)
    assert idx.min() >= 0 and idx.max() < len(weights)


@settings(max_examples=50, deadline=None)
@given(st.integers(129, 400), st.integers(0, 2**32 - 1), st.data())
def test_sample_categorical_many_categories_counts_like_the_comparison(n, seed, data):
    # With many categories the count comes from a search; on boundary
    # draws and zero-width categories it must equal the comparison count.
    weights = np.random.default_rng(seed).random(n)
    weights[weights < 0.3] = 0.0
    weights[-1] += 1.0
    weights /= weights.sum()
    cum = _cumulative(weights)
    boundaries = [0.0, *cum[:-1].tolist()]
    u = np.array(data.draw(st.lists(st.sampled_from(boundaries), min_size=1, max_size=16)))
    want = (cum[:, None] <= u).sum(axis=0)
    # A stream stand-in whose draws are the boundaries.
    rng = SimpleNamespace(random=lambda size: u[0] if size is None else u)
    assert np.array_equal(gh.sample_categorical(weights, rng, size=u.size), want)
    assert gh.sample_categorical(weights, rng) == want[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_cumulative_along_an_axis_equals_one_vector_at_a_time(rows, cols, seed, zeros):
    # A matrix is summed in the same order as each of its vectors on its own.
    m = np.random.default_rng(seed).random((rows, cols))
    if zeros:
        m[m < 0.4] = 0.0
        m[:, -1] += 1.0
        m[-1, :] += 1.0
    by_row = m / m.sum(axis=1, keepdims=True)
    by_col = m / m.sum(axis=0, keepdims=True)
    rows_cum = _cumulative(by_row, axis=1)
    cols_cum = _cumulative(by_col, axis=0)
    assert np.array_equal(rows_cum, [_cumulative(r) for r in by_row])
    assert np.array_equal(cols_cum.T, [_cumulative(c) for c in by_col.T])
    assert np.all(rows_cum[:, -1] == 1.0) and np.all(cols_cum[-1] == 1.0)


def test_sample_categorical_many_categories():
    # Past 127 categories the index no longer fits the int8 count.
    weights = np.zeros(300)
    weights[[5, 150, 299]] = 0.25, 0.25, 0.5
    draws = gh.sample_categorical(weights, gh.RngStream(3, 0), size=1000)
    assert set(np.unique(draws).tolist()) == {5, 150, 299}
