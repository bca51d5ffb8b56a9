"""Sequence decoder against the exhaustive oracle and scoring identities."""
import itertools
import math

import numpy as np
import pytest

import gridhmm as gh
from gridhmm.viterbi import TIE_EPS
from tests.conftest import (
    BRUTE_FORCE_MAX_LEN,
    MODELS,
    REFERENCE_P,
    brute_force_mlse,
    compute_trellis,
    feasible_observation,
    random_model,
    reference_joint_log_prob,
)

# --- independent oracle: scalar-product joint probability ---


def _joint_oracle(x, s, model: gh.HmmModel) -> float:
    def lg(v: float) -> float:
        return math.log(v) if v > 0.0 else -math.inf

    xi = [int(v) + 1 for v in x]
    si = [int(v) + 1 for v in s]
    total = lg(float(model.initial[si[0]]))
    for k in range(len(xi)):
        total += lg(float(model.emissions[xi[k], si[k]]))
    for k in range(1, len(si)):
        total += lg(float(model.transitions[si[k - 1], si[k]]))
    return total


def _uniform_model() -> gh.HmmModel:
    third = np.full((3, 3), 1.0 / 3.0)
    return gh.HmmModel(transitions=third, emissions=third, initial=np.full(3, 1.0 / 3.0))


def test_joint_log_prob_single_step(ref_model):
    got = gh.joint_log_prob([0], [0], ref_model)
    assert abs(got - math.log(0.8 * float(ref_model.emissions[1, 1]))) <= 1e-9
    assert abs(got - math.log(0.7972)) <= 1e-3  # 4-decimal reference product


def test_joint_log_prob_matches_oracle_randomized():
    gen = np.random.default_rng(303)
    for _ in range(200):
        model = random_model(gen)
        k = int(gen.integers(1, 9))
        x = gen.integers(-1, 2, size=k)
        s = gen.integers(-1, 2, size=k)
        got = gh.joint_log_prob(x, s, model)
        want = _joint_oracle(x, s, model)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("model_name", ["dense", "sticky"])
@pytest.mark.parametrize(
    "length", [1, 7, 8, 129, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5, 10**6]
)
def test_joint_log_prob_sums_as_the_whole_arrays_do(length, model_name):
    # joint_log_prob makes at most _CHUNK = 2**14 terms at a time and
    # splits its sums as numpy's pairwise sum splits a whole array, so it
    # equals the whole-array formula bit for bit; chunk sums added left to
    # right would not.  The sticky records cross a zero transition.
    gen = np.random.default_rng(length)
    model = random_model(gen, allow_zeros=False) if model_name == "dense" else MODELS["sticky"]
    x, s = gen.integers(-1, 2, size=(2, length))
    if model_name == "sticky" and length > 1:
        s[length // 2 - 1 : length // 2 + 1] = (-1, 1)
    want = reference_joint_log_prob(x, s, model)
    assert math.isinf(want) == (model_name == "sticky" and length > 1)
    assert gh.joint_log_prob(x, s, model) == want


def test_joint_log_prob_zero_initial_is_minus_inf(ref_params):
    r = gh.build_emission_matrix(ref_params)
    model = gh.HmmModel(
        transitions=REFERENCE_P, emissions=r, initial=np.array([0.0, 0.9, 0.1])
    )
    assert gh.joint_log_prob([0, 0], [-1, 0], model) == -math.inf


def test_joint_log_prob_length_mismatch(ref_model):
    with pytest.raises(ValueError):
        gh.joint_log_prob([0, 1], [0], ref_model)


def test_joint_probabilities_are_a_distribution():
    # summing exp(joint) over all s gives P(x); summing P(x) over all x gives 1
    gen = np.random.default_rng(44)
    model = random_model(gen, allow_zeros=False)
    k = 4
    states = list(itertools.product((-1, 0, 1), repeat=k))
    total = 0.0
    for x in itertools.product((-1, 0, 1), repeat=k):
        total += sum(math.exp(_joint_oracle(x, s, model)) for s in states)
        # spot-check the implementation against the oracle on this x
        s0 = states[17]
        assert abs(gh.joint_log_prob(x, s0, model) - _joint_oracle(x, s0, model)) <= 1e-9
    assert abs(total - 1.0) <= 1e-9


def test_trellis_first_row_and_nonpositive_scores(ref_model):
    x = [0, 0, 1, -1, 0]
    trellis = compute_trellis(x, ref_model)
    with np.errstate(divide="ignore"):
        want = np.log(ref_model.initial) + np.log(ref_model.emissions[x[0] + 1])
    assert np.array_equal(trellis.log_scores[0], want)
    finite = trellis.log_scores[np.isfinite(trellis.log_scores)]
    assert np.all(finite <= 0.0)
    assert trellis.backpointers.shape == (5, 3)
    assert np.all(np.isin(trellis.backpointers, (-1, 0, 1)))


def test_trellis_recurrence():
    gen = np.random.default_rng(123)
    for _ in range(50):
        model = random_model(gen)
        x = feasible_observation(model, int(gen.integers(2, 10)), gen)
        trellis = compute_trellis(x, model)
        with np.errstate(divide="ignore"):
            log_p = np.log(model.transitions)
            log_r = np.log(model.emissions)
        for k in range(1, len(x)):
            for j in range(3):
                want = np.max(trellis.log_scores[k - 1] + log_p[:, j]) + log_r[x[k] + 1, j]
                got = trellis.log_scores[k, j]
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert abs(got - want) <= 1e-12


def test_decode_identity_emissions_returns_observations():
    gen = np.random.default_rng(9)
    p = gen.dirichlet(np.ones(3), size=3)
    model = gh.HmmModel(transitions=p, emissions=np.eye(3), initial=np.full(3, 1.0 / 3.0))
    x = gen.integers(-1, 2, size=40)
    assert np.array_equal(gh.viterbi_decode(x, model), x)


def test_decode_single_symbol_reference(ref_model):
    # prior-weighted emission column: 0.1*0.9814 > 0.8*0.0018 > 0.1*~0
    assert gh.viterbi_decode([1], ref_model).tolist() == [1]


def test_decode_reference_five_step(ref_model):
    x = [0, 0, 1, 0, 0]
    assert np.array_equal(gh.viterbi_decode(x, ref_model), brute_force_mlse(x, ref_model))


def test_brute_force_single_symbol_map():
    gen = np.random.default_rng(21)
    for _ in range(20):
        model = random_model(gen, allow_zeros=False)
        for x in (-1, 0, 1):
            want = int(np.argmax(model.initial * model.emissions[x + 1])) - 1
            assert brute_force_mlse([x], model).tolist() == [want]


def test_brute_force_size_guard(ref_model):
    with pytest.raises(ValueError):
        brute_force_mlse([0] * (BRUTE_FORCE_MAX_LEN + 1), ref_model)


def test_oracle_equivalence_randomized():
    gen = np.random.default_rng(2718)
    for trial in range(300):
        model = random_model(gen)
        k = int(gen.integers(1, 9))
        x = feasible_observation(model, k, gen)
        got = gh.viterbi_decode(x, model)
        want = brute_force_mlse(x, model)
        assert np.array_equal(got, want), f"trial {trial}: {got} != {want} for x={x}"


def test_tie_determinism_uniform_model():
    model = _uniform_model()
    for k in (1, 2, 5, 9):
        assert gh.viterbi_decode([0] * k, model).tolist() == [-1] * k
    assert brute_force_mlse([1, -1, 0], model).tolist() == [-1, -1, -1]


def test_coupled_tie_prefers_lexicographic_minimum():
    # Two optimal sequences exist and the lexicographic winner requires a
    # non-greedy first step; naive backtracking fails this case.
    p = np.array([[0.1, 0.1, 0.8], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]])
    third = np.full((3, 3), 1.0 / 3.0)
    model = gh.HmmModel(transitions=p, emissions=third, initial=np.full(3, 1.0 / 3.0))
    x = [0, 0]
    got = gh.viterbi_decode(x, model)
    want = brute_force_mlse(x, model)
    assert got.tolist() == want.tolist() == [-1, 1]


def test_optimality_certificate():
    gen = np.random.default_rng(515)
    for _ in range(20):
        model = random_model(gen)
        k = int(gen.integers(2, 9))
        x = feasible_observation(model, k, gen)
        best = gh.joint_log_prob(x, gh.viterbi_decode(x, model), model)
        for _ in range(100):
            s = gen.integers(-1, 2, size=k)
            assert best >= gh.joint_log_prob(x, s, model) - TIE_EPS


def test_decode_matches_brute_on_engineered_score_ties():
    # mirrored transition weights create equal-score optima across a swap
    p = np.array([[0.4, 0.4, 0.2], [0.4, 0.4, 0.2], [0.2, 0.2, 0.6]])
    r = np.array([[0.7, 0.7, 0.2], [0.2, 0.2, 0.2], [0.1, 0.1, 0.6]])
    model = gh.HmmModel(transitions=p, emissions=r, initial=np.array([0.5, 0.5, 0.0]))
    for x in itertools.product((-1, 0, 1), repeat=4):
        seq = list(x)
        assert np.array_equal(gh.viterbi_decode(seq, model), brute_force_mlse(seq, model))


def test_infeasible_observation_raises():
    # symbol +1 is never emitted by any state
    r = np.array([[0.6, 0.3, 0.5], [0.4, 0.7, 0.5], [0.0, 0.0, 0.0]])
    p = np.full((3, 3), 1.0 / 3.0)
    model = gh.HmmModel(transitions=p, emissions=r, initial=np.full(3, 1.0 / 3.0))
    with pytest.raises(gh.InfeasibleObservationError) as err:
        gh.viterbi_decode([0, 1, 0], model)
    assert "step 1" in str(err.value)
    with pytest.raises(gh.InfeasibleObservationError):
        brute_force_mlse([0, 1, 0], model)


def test_decode_input_validation(ref_model):
    with pytest.raises(ValueError):
        gh.viterbi_decode([], ref_model)
    with pytest.raises(ValueError):
        gh.viterbi_decode([0, 2], ref_model)
    with pytest.raises(ValueError):
        gh.viterbi_decode([0.5], ref_model)


def test_decode_accepts_integral_floats(ref_model):
    symbols = [0, 1, -1]
    want = gh.viterbi_decode(symbols, ref_model)
    assert np.array_equal(gh.viterbi_decode([0.0, 1.0, -1.0], ref_model), want)


def test_decode_rejects_invalid_model(ref_params):
    r = gh.build_emission_matrix(ref_params)
    bad_p = REFERENCE_P.copy()
    bad_p[0, 0] += 0.2
    model = gh.HmmModel(transitions=bad_p, emissions=r, initial=np.array([0.1, 0.8, 0.1]))
    with pytest.raises(gh.InvalidModelError):
        gh.viterbi_decode([0, 0], model)


def test_decode_long_sequence_scores_match_trellis(ref_model):
    x = feasible_observation(ref_model, 200, np.random.default_rng(1))
    decoded = gh.viterbi_decode(x, ref_model)
    trellis = compute_trellis(x, ref_model)
    # the decoded path achieves the best final trellis score
    assert abs(gh.joint_log_prob(x, decoded, ref_model) - trellis.log_scores[-1].max()) <= 1e-9
