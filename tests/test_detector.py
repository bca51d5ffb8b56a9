"""Three-hypothesis detector: thresholds, classification, error rates."""
import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gridhmm as gh
from tests.conftest import REFERENCE_THRESHOLDS

# --- independent oracle: symbolic threshold evaluation ---


def _exact(v: float) -> sp.Rational:
    return sp.Rational(*float(v).as_integer_ratio())


def _symbolic_threshold(m_left, m_right, sigma, p_left, p_right) -> float:
    m_l, m_r, s, p_l, p_r = (_exact(v) for v in (m_left, m_right, sigma, p_left, p_right))
    expr = (m_l + m_r) / 2 + sp.log(p_l / p_r) * s**2 / (m_r - m_l)
    return float(expr.evalf(40))


def _oracle_thresholds(params: gh.DetectorParams) -> tuple[float, float]:
    p_n, p_z, p_p = params.priors
    return (
        _symbolic_threshold(params.m_neg, params.m_zero, params.sigma, p_n, p_z),
        _symbolic_threshold(params.m_zero, params.m_pos, params.sigma, p_z, p_p),
    )


def test_thresholds_equal_priors_exact_midpoints():
    params = gh.DetectorParams(m_neg=49.6, m_zero=50.0, m_pos=50.4, sigma=0.1)
    thr = gh.compute_thresholds(params)
    assert thr.delta_neg_zero == 49.8
    assert thr.delta_zero_pos == 50.2


def test_thresholds_reference_config(ref_params):
    thr = gh.compute_thresholds(ref_params)
    assert abs(thr.delta_neg_zero - 49.4168) <= 1e-4
    assert abs(thr.delta_zero_pos - 50.5832) <= 1e-4
    assert abs(thr.delta_neg_zero - REFERENCE_THRESHOLDS[0]) <= 1e-12
    assert abs(thr.delta_zero_pos - REFERENCE_THRESHOLDS[1]) <= 1e-12


def test_thresholds_match_symbolic_oracle(ref_params):
    gen = np.random.default_rng(77)
    cases = [ref_params]
    for _ in range(25):
        means = np.sort(gen.uniform(48.0, 52.0, size=3))
        if means[1] - means[0] < 0.05 or means[2] - means[1] < 0.05:
            continue
        priors = gen.dirichlet(np.ones(3) * 2.0)
        if priors.min() < 0.02:
            continue
        cases.append(
            gh.DetectorParams(
                m_neg=means[0],
                m_zero=means[1],
                m_pos=means[2],
                sigma=float(gen.uniform(0.02, 0.3)),
                priors=tuple(priors),
            )
        )
    assert len(cases) > 10
    for params in cases:
        try:
            thr = gh.compute_thresholds(params)
        except gh.DegenerateThresholdsError:
            continue
        ref = _oracle_thresholds(params)
        assert abs(thr.delta_neg_zero - ref[0]) <= 1e-9
        assert abs(thr.delta_zero_pos - ref[1]) <= 1e-9


def test_thresholds_sigma_to_zero_approach_midpoints():
    for sigma in (1e-2, 1e-3, 1e-4):
        params = gh.DetectorParams(
            m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=sigma, priors=(0.05, 0.9, 0.05)
        )
        thr = gh.compute_thresholds(params)
        # Threshold arithmetic rounds at the ULP of values near 50 (~7e-15),
        # so allow a few dozen ULPs of absolute slack on top of the exact bound.
        bound = abs(math.log(0.05 / 0.9)) * sigma * sigma / 1.0 + 64 * math.ulp(50.0)
        assert abs(thr.delta_neg_zero - 49.5) <= bound
        assert abs(thr.delta_zero_pos - 50.5) <= bound


def test_degenerate_thresholds_raise_naming_both_values():
    # Extreme prior imbalance at high noise swallows the middle region.
    params = gh.DetectorParams(
        m_neg=49.99, m_zero=50.0, m_pos=50.01, sigma=5.0, priors=(0.499, 0.002, 0.499)
    )
    with pytest.raises(gh.DegenerateThresholdsError) as err:
        gh.compute_thresholds(params)
    message = str(err.value)
    assert "delta_neg_zero" in message and "delta_zero_pos" in message


def test_detector_params_validation():
    with pytest.raises(ValueError):
        gh.DetectorParams(m_neg=50.0, m_zero=50.0, m_pos=51.0, sigma=0.1)
    with pytest.raises(ValueError):
        gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.0)
    with pytest.raises(ValueError):
        gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.1, priors=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.1, priors=(0.0, 0.9, 0.1))
    with pytest.raises(ValueError, match="m_neg must be finite, got nan"):
        gh.DetectorParams(m_neg=float("nan"), m_zero=50.0, m_pos=51.0, sigma=0.1)
    with pytest.raises(ValueError, match="priors must have three entries, got 2"):
        gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.1, priors=(0.5, 0.5))


def test_detector_priors_share_the_sum_tolerance():
    from gridhmm.gaussian import SUM_TOL

    with pytest.raises(ValueError, match=f"within {SUM_TOL}"):
        gh.DetectorParams(
            m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.1, priors=(0.1, 0.8, 0.1 + 2e-9)
        )
    near = (0.1, 0.8, 0.1 + SUM_TOL / 4)
    params = gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=0.1, priors=near)
    assert params.priors == near


def test_classify_regions_and_boundaries():
    thr = gh.Thresholds(49.8, 50.2)
    assert gh.classify(50.0, thr) == 0
    assert gh.classify(49.0, gh.Thresholds(*REFERENCE_THRESHOLDS)) == -1
    # boundary goes to the region on its right
    assert gh.classify(49.8, thr) == 0
    assert gh.classify(50.2, thr) == 1
    assert gh.classify(np.nextafter(49.8, -np.inf), thr) == -1
    arr = gh.classify(np.array([49.0, 50.0, 51.0]), thr)
    assert arr.tolist() == [-1, 0, 1]
    with pytest.raises(ValueError):
        gh.classify(float("nan"), thr)
    with pytest.raises(ValueError):
        gh.classify(np.array([50.0, float("inf")]), thr)


def test_classify_makes_no_extra_copies():
    # Beside its int64 result, classify holds at most a bool mask a row.
    z = np.linspace(48.0, 52.0, 1_000_000)
    tracemalloc.start()
    try:
        symbols = gh.classify(z, gh.Thresholds(49.5, 50.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert symbols.dtype == np.int64
    assert np.array_equal(symbols, np.where(z < 49.5, -1, np.where(z < 50.5, 0, 1)))
    assert peak < 1.1 * symbols.nbytes


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=45.0, max_value=55.0, allow_nan=False))
def test_classify_equal_priors_is_nearest_mean(z):
    means = (49.0, 50.0, 51.0)
    params = gh.DetectorParams(m_neg=means[0], m_zero=means[1], m_pos=means[2], sigma=0.3)
    thr = gh.compute_thresholds(params)
    if z in (thr.delta_neg_zero, thr.delta_zero_pos):
        return  # boundary handled by the tie-break rule, not nearest-mean
    nearest = int(np.argmin([abs(z - m) for m in means])) - 1
    assert gh.classify(z, thr) == nearest


def test_error_probabilities_reference_values(ref_params):
    thr = gh.compute_thresholds(ref_params)
    pe = gh.error_probabilities(ref_params, thr)
    assert abs(pe[0] - 0.0186) <= 5e-5
    assert abs(pe[1] - 0.0035) <= 1e-4
    pd = gh.detection_probabilities(ref_params, thr)
    assert abs(pd[1] - 0.9965) <= 1e-4


def test_error_probabilities_vanish_at_high_snr():
    params = gh.DetectorParams(m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=1e-3)
    pe = gh.error_probabilities(params, gh.compute_thresholds(params))
    assert np.all(pe >= 0.0) and np.all(pe <= 1e-12)


def test_detection_plus_error_is_one_exactly(ref_params):
    thr = gh.compute_thresholds(ref_params)
    pe = gh.error_probabilities(ref_params, thr)
    pd = gh.detection_probabilities(ref_params, thr)
    assert np.all(pe + pd == 1.0)


def test_mirror_symmetry_of_detection():
    params = gh.DetectorParams(m_neg=49.5, m_zero=50.0, m_pos=50.5, sigma=0.25)
    pd = gh.detection_probabilities(params, gh.compute_thresholds(params))
    assert abs(pd[0] - pd[2]) <= 1e-12
    params = gh.DetectorParams(m_neg=49.6, m_zero=50.0, m_pos=50.4, sigma=0.25)
    pd = gh.detection_probabilities(params, gh.compute_thresholds(params))
    assert abs(pd[0] - pd[2]) <= 1e-9


def test_error_matches_offdiagonal_emission_column(ref_params):
    # cross-module identity: misclassification mass = off-diagonal column mass
    thr = gh.compute_thresholds(ref_params)
    pe = gh.error_probabilities(ref_params, thr)
    r = gh.build_emission_matrix(ref_params)
    for j in range(3):
        off_diag = float(r[:, j].sum() - r[j, j])
        assert abs(pe[j] - off_diag) <= 1e-12


def test_prior_monotonicity_middle_region():
    gen = np.random.default_rng(5)
    for _ in range(50):
        priors = gen.dirichlet(np.ones(3))
        if priors.min() < 0.02:
            continue
        sigma = float(gen.uniform(0.05, 0.4))

        def build(p):
            return gh.DetectorParams(
                m_neg=49.0, m_zero=50.0, m_pos=51.0, sigma=sigma, priors=tuple(p)
            )

        # grow the middle prior, shrinking the others proportionally
        boost = float(gen.uniform(0.05, 0.5))
        p_mid = priors[1] + boost * (1.0 - priors[1])
        scale = (1.0 - p_mid) / (priors[0] + priors[2])
        boosted = (priors[0] * scale, p_mid, priors[2] * scale)
        try:
            before = gh.compute_thresholds(build(priors))
            after = gh.compute_thresholds(build(boosted))
        except gh.DegenerateThresholdsError:
            continue
        assert after.delta_neg_zero <= before.delta_neg_zero + 1e-12
        assert after.delta_zero_pos >= before.delta_zero_pos - 1e-12


def test_empirical_misclassification_matches_error_probabilities(ref_params):
    thr = gh.compute_thresholds(ref_params)
    pe = gh.error_probabilities(ref_params, thr)
    n = 100_000
    for i, mean in enumerate(ref_params.means):
        draws = gh.sample_gaussian(mean, ref_params.sigma, gh.RngStream(100 + i, 0), size=n)
        symbols = gh.classify(draws, thr)
        wrong = float(np.mean(symbols != i - 1))
        bound = 4.0 * math.sqrt(max(pe[i] * (1.0 - pe[i]), 1e-12) / n)
        assert abs(wrong - pe[i]) <= bound
