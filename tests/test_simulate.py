"""Simulation and study harness: generation laws, Monte Carlo, prediction."""
import math

import numpy as np
import pytest

import gridhmm as gh
from gridhmm.simulate import HIST_BINS
from tests.conftest import (
    MODELS,
    REFERENCE_P,
    REFERENCE_STATIONARY,
    STUDY_INITIAL,
    STUDY_MEANS,
)


def test_simulate_states_deterministic(ref_model):
    a = gh.simulate_states(ref_model, 500, gh.RngStream(3, 0))
    b = gh.simulate_states(ref_model, 500, gh.RngStream(3, 0))
    assert np.array_equal(a, b)
    c = gh.simulate_states(ref_model, 500, gh.RngStream(3, 1))
    assert not np.array_equal(a, c)


def test_simulate_states_validation(ref_model):
    with pytest.raises(ValueError):
        gh.simulate_states(ref_model, 0, gh.RngStream(0, 0))


def test_simulate_states_long_run_frequencies(ref_model):
    n = 1_000_000
    path = gh.simulate_states(ref_model, n, gh.RngStream(100, 0)) + 1
    occupancy = np.bincount(path, minlength=3) / n
    assert np.max(np.abs(occupancy - REFERENCE_STATIONARY)) <= 0.005
    # empirical transition frequencies against the rows of P
    counts = np.zeros((3, 3))
    np.add.at(counts, (path[:-1], path[1:]), 1)
    freq = counts / counts.sum(axis=1, keepdims=True)
    assert np.max(np.abs(freq - REFERENCE_P)) <= 0.005


@pytest.mark.parametrize("name", ["reference", *sorted(MODELS)])
@pytest.mark.parametrize("length", [1, 2, 200, 2**14 + 1])
def test_simulate_states_matches_per_step_categorical(ref_model, name, length):
    # the vectorized path consumes the stream exactly like per-step draws
    model = ref_model if name == "reference" else MODELS[name]
    fast = gh.simulate_states(model, length, gh.RngStream(8, 4))
    rng = gh.RngStream(8, 4)
    state = gh.sample_categorical(model.initial, rng)
    slow = [state]
    for _ in range(length - 1):
        state = gh.sample_categorical(model.transitions[state], rng)
        slow.append(state)
    assert np.array_equal(fast, np.array(slow) - 1)
    assert fast.dtype == np.int64


def test_emit_symbols_reference_frequencies(ref_model):
    # hidden path pinned at the zero state; symbol law is emission column 1
    hidden = np.zeros(1_000_000, dtype=np.int64)
    symbols = gh.emit_symbols(hidden, ref_model.emissions, gh.RngStream(55, 0))
    freq = np.bincount(symbols + 1, minlength=3) / symbols.size
    want = np.array([0.0018, 0.9965, 0.0018])
    assert np.max(np.abs(freq - want)) <= 0.0005


def test_emit_symbols_matches_sample_categorical(ref_model):
    hidden = gh.simulate_states(ref_model, 300, gh.RngStream(1, 0))
    fast = gh.emit_symbols(hidden, ref_model.emissions, gh.RngStream(2, 0))
    rng = gh.RngStream(2, 0)
    slow = [gh.sample_categorical(ref_model.emissions[:, s + 1], rng) - 1 for s in hidden]
    assert np.array_equal(fast, np.array(slow))


def test_emit_symbols_validation(ref_model):
    with pytest.raises(ValueError):
        gh.emit_symbols(np.array([0, 5]), ref_model.emissions, gh.RngStream(0, 0))
    with pytest.raises(ValueError):
        gh.emit_symbols(np.array([0, 1]), REFERENCE_P, gh.RngStream(0, 0))  # wrong orientation


def test_synthesize_and_classify_reproduce_emission_columns(ref_params):
    r = gh.build_emission_matrix(ref_params)
    thresholds = gh.compute_thresholds(ref_params)
    n = 1_000_000
    for j in range(3):
        hidden = np.full(n, j - 1, dtype=np.int64)
        z = gh.synthesize_measurements(hidden, ref_params, gh.RngStream(200 + j, 0))
        freq = np.bincount(gh.classify(z, thresholds) + 1, minlength=3) / n
        assert np.max(np.abs(freq - r[:, j])) <= 0.002


def test_path_equivalence_direct_vs_measurement(ref_params):
    # the two symbol-generation routes agree column by column
    r = gh.build_emission_matrix(ref_params)
    thresholds = gh.compute_thresholds(ref_params)
    n = 100_000
    for j in range(3):
        hidden = np.full(n, j - 1, dtype=np.int64)
        direct = gh.emit_symbols(hidden, r, gh.RngStream(300 + j, 0))
        via_z = gh.classify(
            gh.synthesize_measurements(hidden, ref_params, gh.RngStream(400 + j, 0)), thresholds
        )
        f_direct = np.bincount(direct + 1, minlength=3) / n
        f_via = np.bincount(via_z + 1, minlength=3) / n
        bound = 4.0 * np.sqrt(2.0 * np.maximum(r[:, j] * (1.0 - r[:, j]), 1e-12) / n)
        assert np.all(np.abs(f_direct - f_via) <= bound)


def test_accuracy_examples():
    assert gh.accuracy([0, 1, -1], [0, 1, -1]) == 1.0
    assert gh.accuracy([0, 0], [1, 1]) == 0.0
    assert gh.accuracy([-1, 0, 0, 1], [-1, 0, 1, 1]) == 0.75
    with pytest.raises(ValueError):
        gh.accuracy([0, 1], [0])
    with pytest.raises(ValueError, match="sequences must be non-empty"):
        gh.accuracy([], [])


def _summary(**changes):
    hist = np.zeros(HIST_BINS, dtype=np.int64)
    hist[90] = 2
    fields = dict(
        trials=2, ht_mean=90.0, ht_std=0.0, va_mean=90.0, va_std=0.0, histogram_ht=hist, histogram_va=hist
    )
    return gh.MonteCarloSummary(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"va_mean": 100.5}, "va_mean must lie in [0, 100], got 100.5"),
        ({"ht_mean": float("nan")}, "ht_mean must lie in [0, 100], got nan"),
        ({"ht_std": -1.0}, "ht_std must be non-negative"),
        ({"va_std": float("nan")}, "va_std must be non-negative"),
        ({"histogram_ht": np.zeros(100)}, "histogram_ht must have 101 bins, got shape (100,)"),
        ({"histogram_va": np.zeros(HIST_BINS)}, "histogram_va counts 0 trials, expected 2"),
    ],
)
def test_monte_carlo_summary_checks_each_field(changes, message):
    _summary()  # the fields that every case but one keeps are valid
    with pytest.raises(ValueError) as err:
        _summary(**changes)
    assert str(err.value) == message


def test_monte_carlo_noiseless_channel_is_perfect():
    p = np.array([[0.2, 0.7, 0.1], [0.1, 0.8, 0.1], [0.1, 0.7, 0.2]])
    model = gh.HmmModel(transitions=p, emissions=np.eye(3), initial=np.array([0.1, 0.8, 0.1]))
    summary = gh.run_monte_carlo(model, 50, 200, base_seed=1)
    assert summary.ht_mean == 100.0 and summary.va_mean == 100.0
    assert summary.ht_std == 0.0 and summary.va_std == 0.0
    assert summary.histogram_ht[100] == 200 and summary.histogram_va[100] == 200


def test_monte_carlo_deterministic_per_seed(ref_model):
    one = gh.run_monte_carlo(ref_model, 60, 120, base_seed=9)
    again = gh.run_monte_carlo(ref_model, 60, 120, base_seed=9)
    assert one.ht_mean == again.ht_mean and one.va_mean == again.va_mean
    assert one.ht_std == again.ht_std and one.va_std == again.va_std
    assert np.array_equal(one.histogram_ht, again.histogram_ht)
    assert np.array_equal(one.histogram_va, again.histogram_va)
    other_seed = gh.run_monte_carlo(ref_model, 60, 120, base_seed=10)
    assert other_seed.ht_mean != one.ht_mean or other_seed.va_mean != one.va_mean


def test_monte_carlo_histogram_shape(ref_model):
    summary = gh.run_monte_carlo(ref_model, 30, 75, base_seed=3)
    assert summary.histogram_ht.shape == (HIST_BINS,)
    assert int(summary.histogram_ht.sum()) == 75
    assert int(summary.histogram_va.sum()) == 75
    assert 0.0 <= summary.va_mean <= 100.0
    assert summary.ht_std >= 0.0


def test_monte_carlo_histogram_binning_is_left_closed():
    # with K=2, per-trial accuracy is 0%, 50%, or 100%; exact 50% must land
    # in bin 50, not 49
    third = np.full((3, 3), 1.0 / 3.0)
    model = gh.HmmModel(transitions=third, emissions=third, initial=np.full(3, 1.0 / 3.0))
    summary = gh.run_monte_carlo(model, 2, 60, base_seed=0)
    populated = set(np.flatnonzero(summary.histogram_ht).tolist())
    assert populated <= {0, 50, 100}
    assert 50 in populated


def test_study_configuration_decoder_beats_test():
    params = gh.DetectorParams(
        m_neg=STUDY_MEANS[0],
        m_zero=STUDY_MEANS[1],
        m_pos=STUDY_MEANS[2],
        sigma=0.4,
        priors=STUDY_INITIAL,
    )
    model = gh.HmmModel(
        transitions=REFERENCE_P,
        emissions=gh.build_emission_matrix(params),
        initial=np.array(STUDY_INITIAL),
    )
    summary = gh.run_monte_carlo(model, 100, 1000, base_seed=0)
    assert summary.va_mean > summary.ht_mean


def test_expected_ht_accuracy_matches_monte_carlo(ref_model):
    trials, length = 2000, 100
    summary = gh.run_monte_carlo(ref_model, length, trials, base_seed=4)
    want = 100.0 * gh.expected_ht_accuracy(ref_model, length)
    sem = summary.ht_std / math.sqrt(trials)
    assert abs(summary.ht_mean - want) <= 4.0 * max(sem, 1e-6)


def _expected_ht_accuracy_by_steps(model, length):
    """The occupancy averaged one ``v <- v P`` step at a time."""
    occupancy, v = np.zeros(3), model.initial
    for _ in range(length):
        occupancy += v
        v = v @ model.transitions
    occupancy /= length
    return float(min(max(occupancy @ np.diagonal(model.emissions), 0.0), 1.0))


@pytest.mark.parametrize("length", [1, 2, 3, 100, 100_000])
def test_expected_ht_accuracy_matches_step_loop(ref_model, length):
    sticky = gh.HmmModel(
        transitions=np.array([[0.9, 0.1, 0.0], [0.05, 0.9, 0.05], [0.0, 0.1, 0.9]]),
        emissions=ref_model.emissions,
        initial=ref_model.initial,
    )
    # Both forms round once per step or product, so they part by some
    # ulp per step: up to 2.5e-12 at K = 1e5, where the step loop itself
    # is 1.6e-12 away from the same loop in 80-bit arithmetic.
    tol = max(1e-12, length * np.finfo(float).eps)
    for model in (ref_model, sticky):
        got = gh.expected_ht_accuracy(model, length)
        assert abs(got - _expected_ht_accuracy_by_steps(model, length)) <= tol


def test_expected_ht_accuracy_identity_channel(ref_model):
    model = gh.HmmModel(
        transitions=ref_model.transitions, emissions=np.eye(3), initial=ref_model.initial
    )
    assert gh.expected_ht_accuracy(model, 10) == 1.0


def test_detection_sweep_grids_and_conversion(ref_params):
    points = gh.detection_sweep(ref_params, snr_db_grid=[0.0, 5.0, 10.0])
    assert [round(p.sigma, 12) for p in points] == [1.0, round(10 ** -0.5, 12), 0.1]
    by_sigma = gh.detection_sweep(ref_params, sigma_grid=[1.0, 10 ** -0.5, 0.1])
    for a, b in zip(points, by_sigma):
        assert abs(a.snr_db - b.snr_db) <= 1e-12
        assert all(abs(u - v) <= 1e-12 for u, v in zip(a.detection, b.detection))
    with pytest.raises(ValueError):
        gh.detection_sweep(ref_params)
    with pytest.raises(ValueError):
        gh.detection_sweep(ref_params, snr_db_grid=[1.0], sigma_grid=[0.5])
    with pytest.raises(ValueError):
        gh.detection_sweep(ref_params, sigma_grid=[-0.1])
    with pytest.raises(ValueError, match="snr_db_grid entries must be finite"):
        gh.detection_sweep(ref_params, snr_db_grid=[math.inf])
    with pytest.raises(ValueError, match="the grid must contain at least one point"):
        gh.detection_sweep(ref_params, snr_db_grid=[])


def test_detection_sweep_threshold_snr():
    params = gh.DetectorParams(m_neg=49.6, m_zero=50.0, m_pos=50.4, sigma=1.0)
    (point,) = gh.detection_sweep(params, snr_db_grid=[12.6])
    assert abs(point.sigma - 10.0 ** -1.26) <= 1e-15
    assert point.detection is not None
    assert all(pd >= 0.99 for pd in point.detection)


def test_detection_sweep_reports_degenerate_rows():
    params = gh.DetectorParams(
        m_neg=49.99, m_zero=50.0, m_pos=50.01, sigma=1.0, priors=(0.499, 0.002, 0.499)
    )
    points = gh.detection_sweep(params, sigma_grid=[5.0, 1e-4])
    assert points[0].detection is None and points[0].note
    assert points[1].detection is not None


def test_predict_horizon_zero_and_one():
    initial = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(gh.predict(REFERENCE_P, initial, 0).probs, initial)
    one = gh.predict(REFERENCE_P, initial, 1)
    assert np.array_equal(one.probs, REFERENCE_P[1])


def test_predict_convergence_to_stationary():
    for start in (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], np.full(3, 1.0 / 3.0)):
        probs = gh.predict(REFERENCE_P, start, 64).probs
        assert np.max(np.abs(probs - REFERENCE_STATIONARY)) <= 1e-6


def test_predict_semigroup():
    gen = np.random.default_rng(2)
    for _ in range(25):
        p = gen.dirichlet(np.ones(3), size=3)
        start = gen.dirichlet(np.ones(3))
        a, b = int(gen.integers(0, 30)), int(gen.integers(0, 30))
        direct = gh.predict(p, start, a + b).probs
        chained = gh.predict(p, gh.predict(p, start, a).probs, b).probs
        assert np.max(np.abs(direct - chained)) <= 1e-12


def test_predict_validation():
    with pytest.raises(ValueError):
        gh.predict(REFERENCE_P, np.array([0.5, 0.6, 0.1]), 1)
    with pytest.raises(ValueError):
        gh.predict(REFERENCE_P, np.array([0.1, 0.8, 0.1]), -1)
    bad = REFERENCE_P.copy()
    bad[2, 2] = 0.5
    with pytest.raises(ValueError):
        gh.predict(bad, np.array([0.1, 0.8, 0.1]), 1)


def test_monte_carlo_rejects_invalid_arguments(ref_model):
    with pytest.raises(ValueError):
        gh.run_monte_carlo(ref_model, 10, 0, base_seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_monte_carlo_rejects_a_seed_as_rng_stream_does(ref_model, seed):
    with pytest.raises(ValueError) as stream:
        gh.RngStream(seed, 0)
    with pytest.raises(ValueError) as run:
        gh.run_monte_carlo(ref_model, 10, 3, base_seed=seed)
    message = f"seed must fit in an unsigned 64-bit integer, got {seed}"
    assert str(run.value) == str(stream.value) == message
