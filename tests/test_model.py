"""Model objects: emission construction, validation, stationary analysis."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridhmm as gh
from gridhmm.model import stationary_distribution
from tests.conftest import REFERENCE_EMISSION_4DP, REFERENCE_P, REFERENCE_STATIONARY

# --- independent oracle: stationary law from the eigenproblem ---


def _eig_stationary(p: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(p.T)
    i = int(np.argmin(np.abs(values - 1.0)))
    v = np.real(vectors[:, i])
    return v / v.sum()


def test_emission_matrix_reference(ref_params):
    r = gh.build_emission_matrix(ref_params)
    assert np.max(np.abs(r - REFERENCE_EMISSION_4DP)) <= 5e-5


def test_emission_matrix_identity_limit():
    params = gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=1e-3)
    r = gh.build_emission_matrix(params)
    assert np.allclose(r, np.eye(3), atol=1e-12)


def test_emission_columns_sum_to_one_randomized():
    gen = np.random.default_rng(31)
    checked = 0
    while checked < 1000:
        means = np.sort(gen.uniform(45.0, 55.0, size=3))
        if means[1] - means[0] < 1e-3 or means[2] - means[1] < 1e-3:
            continue
        priors = gen.dirichlet(np.ones(3))
        if priors.min() < 1e-3:
            continue
        params = gh.DetectorParams(
            m_neg=float(means[0]),
            m_zero=float(means[1]),
            m_pos=float(means[2]),
            sigma=float(gen.uniform(1e-3, 2.0)),
            priors=tuple(priors),
        )
        try:
            r = gh.build_emission_matrix(params)
        except gh.DegenerateThresholdsError:
            continue
        assert np.max(np.abs(r.sum(axis=0) - 1.0)) <= 1e-12
        assert r.min() >= 0.0 and r.max() <= 1.0
        checked += 1


def test_emission_diagonal_dominance_high_snr():
    gen = np.random.default_rng(8)
    for _ in range(100):
        means = np.sort(gen.uniform(48.0, 52.0, size=3))
        gaps = (means[1] - means[0], means[2] - means[1])
        if min(gaps) < 0.05:
            continue
        sigma = float(gen.uniform(0.2, 1.0)) * min(gaps) / 6.0
        params = gh.DetectorParams(
            m_neg=float(means[0]), m_zero=float(means[1]), m_pos=float(means[2]), sigma=sigma
        )
        r = gh.build_emission_matrix(params)
        for j in range(3):
            others = [r[i, j] for i in range(3) if i != j]
            assert r[j, j] > max(others)


def test_emission_propagates_degenerate_thresholds():
    params = gh.DetectorParams(
        m_neg=49.99, m_zero=50.0, m_pos=50.01, sigma=5.0, priors=(0.499, 0.002, 0.499)
    )
    with pytest.raises(gh.DegenerateThresholdsError):
        gh.build_emission_matrix(params)


def test_validate_reference_model(ref_model):
    assert gh.validate_model(ref_model) is None
    assert gh.require_valid(ref_model) is ref_model


def test_validate_reports_first_violation(ref_params):
    r = gh.build_emission_matrix(ref_params)
    bad_p = REFERENCE_P.copy()
    bad_p[1] = [0.1, 0.7, 0.1]  # sums to 0.9
    model = gh.HmmModel(transitions=bad_p, emissions=r, initial=np.array([0.1, 0.8, 0.1]))
    report = gh.validate_model(model)
    assert report is not None
    assert "row 1" in report and "0.9" in report
    with pytest.raises(gh.InvalidModelError):
        gh.require_valid(model)


@pytest.mark.parametrize("slot", ["transitions", "emissions", "initial"])
def test_validate_rejects_tiny_negative_entry(ref_params, slot):
    # -5e-10 is inside the sum tolerance, but its log is NaN rather than -inf.
    p = REFERENCE_P.copy()
    r = gh.build_emission_matrix(ref_params)
    pi = np.array([0.1, 0.8, 0.1])
    {"transitions": p[0], "emissions": r[:, 0], "initial": pi}[slot][:] = [1 + 5e-10, -5e-10, 0]
    model = gh.HmmModel(transitions=p, emissions=r, initial=pi)
    report = gh.validate_model(model)
    assert report is not None and slot in report and "-5e-10" in report
    with pytest.raises(gh.InvalidModelError):
        gh.require_valid(model)


def test_validate_catches_emission_orientation_mixup(ref_params):
    # a row-stochastic matrix in the emission slot must be rejected
    r = gh.build_emission_matrix(ref_params)
    model = gh.HmmModel(
        transitions=REFERENCE_P, emissions=REFERENCE_P, initial=np.array([0.1, 0.8, 0.1])
    )
    report = gh.validate_model(model)
    assert report is not None and "column" in report
    ok = gh.HmmModel(transitions=REFERENCE_P, emissions=r, initial=np.array([0.1, 0.8, 0.1]))
    assert gh.validate_model(ok) is None


def test_validate_initial_vector(ref_params):
    r = gh.build_emission_matrix(ref_params)
    model = gh.HmmModel(transitions=REFERENCE_P, emissions=r, initial=np.array([0.3, 0.8, 0.1]))
    report = gh.validate_model(model)
    assert report is not None and "initial" in report


def test_model_shape_errors(ref_params):
    r = gh.build_emission_matrix(ref_params)
    with pytest.raises(gh.InvalidModelError):
        gh.HmmModel(transitions=np.eye(2), emissions=r, initial=np.array([0.1, 0.8, 0.1]))
    with pytest.raises(gh.InvalidModelError):
        gh.HmmModel(transitions=REFERENCE_P, emissions=r, initial=np.array([1.0]))


def test_model_arrays_are_frozen(ref_model):
    with pytest.raises(ValueError):
        ref_model.transitions[0, 0] = 0.5


def test_stationary_reference():
    pi = stationary_distribution(REFERENCE_P)
    assert np.max(np.abs(pi - REFERENCE_STATIONARY)) <= 1e-9


def test_stationary_doubly_stochastic_uniform():
    p = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    pi = stationary_distribution(p)
    assert np.max(np.abs(pi - 1.0 / 3.0)) <= 1e-10


def test_stationary_fixed_point_residual():
    gen = np.random.default_rng(17)
    for _ in range(50):
        p = gen.dirichlet(np.ones(3), size=3)
        pi = stationary_distribution(p)
        assert np.max(np.abs(pi @ p - pi)) <= 1e-10
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(pi - _eig_stationary(p))) <= 1e-9


def test_stationary_periodic_chain_raises():
    # period-2 chain: uniform start oscillates and never settles
    p = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(gh.NonConvergenceError):
        stationary_distribution(p, max_iter=20_000)


def test_stationary_rejects_invalid_matrix():
    with pytest.raises(gh.InvalidModelError):
        stationary_distribution(np.array([[0.5, 0.5, 0.1], [0.1, 0.8, 0.1], [0.1, 0.7, 0.2]]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stationary_random_positive_chains(seed):
    gen = np.random.default_rng(seed)
    p = gen.dirichlet(np.ones(3) * 1.5, size=3)
    if p.min() < 1e-6:
        return
    pi = stationary_distribution(p)
    assert np.max(np.abs(pi @ p - pi)) <= 1e-10
