"""Gaussian toolkit: Q-function accuracy and stream reproducibility."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridhmm as gh
from gridhmm.gaussian import _cumulative, _invert, probability

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
    assert np.array_equal(a.generator.random(1000), b.generator.random(1000))
    a2 = gh.RngStream(42, 3)
    b2 = gh.RngStream(42, 3)
    assert np.array_equal(
        a2.generator.normal(0.0, 1.0, 1000), b2.generator.normal(0.0, 1.0, 1000)
    )


def test_stream_pinned_values():
    # Frozen draws; a change here means reproducibility across versions broke.
    assert gh.RngStream(0, 0).generator.random() == 0.9429375528828794
    assert gh.RngStream(0, 0).generator.normal(0.0, 1.0) == 1.4436909546981256
    assert gh.RngStream(12345, 6).generator.random() == 0.25344637142828963


def test_stream_independence_across_indices():
    draws = [gh.RngStream(7, t).generator.random(4).tolist() for t in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert draws[i] != draws[j]
    # Creating stream t must not depend on whether other streams exist.
    fresh = gh.RngStream(7, 3).generator.random(4).tolist()
    assert fresh == draws[3]


def test_stream_validation():
    with pytest.raises(ValueError):
        gh.RngStream(-1, 0)
    with pytest.raises(ValueError):
        gh.RngStream(2**64, 0)
    with pytest.raises(ValueError):
        gh.RngStream(1, -1)


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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=2, max_size=8).filter(
        lambda w: 0.0 in w and sum(w) > 0.0
    ),
    st.data(),
)
def test_invert_counts_boundaries_like_searchsorted_right(raw, data):
    # Every u sits on a cumulative boundary, where "<= u" and "< u" part:
    # a zero-width category must be skipped, never drawn.
    cum = _cumulative(np.array(raw) / sum(raw))
    boundaries = [0.0, *cum[:-1].tolist()]
    u = np.array(data.draw(st.lists(st.sampled_from(boundaries), min_size=1, max_size=16)))
    want = np.searchsorted(cum, u, side="right")
    assert np.array_equal(_invert(cum[:, None], u), want)
    assert _invert(cum, u[0]) == want[0]


@settings(max_examples=50, deadline=None)
@given(st.integers(129, 400), st.integers(0, 2**32 - 1), st.data())
def test_invert_many_categories_counts_like_the_comparison(n, seed, data):
    # Past 128 categories the count comes from a search; on boundary
    # draws and zero-width categories it must equal the comparison count.
    weights = np.random.default_rng(seed).random(n)
    weights[weights < 0.3] = 0.0
    weights[-1] += 1.0
    cum = _cumulative(weights / weights.sum())
    boundaries = [0.0, *cum[:-1].tolist()]
    u = np.array(data.draw(st.lists(st.sampled_from(boundaries), min_size=1, max_size=16)))
    want = (cum[:, None] <= u).sum(axis=0)
    assert np.array_equal(_invert(cum[:, None], u), want)
    assert _invert(cum, u[0]) == want[0]


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
