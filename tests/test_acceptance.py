"""Acceptance gate: one test per release criterion.

Each test prints an ``ACCEPTANCE n (label): PASS/FAIL`` line with the
measured quantities, visible even while pytest captures output, so a
full run doubles as the acceptance report.
"""
import csv
import io
import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
import sympy as sp

import gridhmm as gh

from conftest import (
    REFERENCE_EMISSION_4DP,
    REFERENCE_P,
    REFERENCE_STATIONARY,
    STUDY_INITIAL,
    STUDY_MEANS,
    brute_force_mlse,
    feasible_observation,
    random_model,
)


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(number: int, label: str):
        info = {"detail": ""}
        try:
            yield info
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {number} ({label}): FAIL {info['detail']}".rstrip())
            raise
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({label}): PASS {info['detail']}".rstrip())

    return _report


def run_cli(tmp_path, config_text: str, *argv: str) -> subprocess.CompletedProcess:
    cfg = tmp_path / "acceptance.cfg"
    cfg.write_text(config_text)
    return subprocess.run(
        [sys.executable, "-m", "gridhmm", *argv, "--config", str(cfg)],
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# 1. Emission-matrix reproduction through the CLI


def test_criterion_1_emission_matrix(report, tmp_path):
    with report(1, "emission matrix reproduction") as info:
        proc = run_cli(
            tmp_path, "means = 49 50 51\nsigma = 0.2\npriors = 0.1 0.8 0.1\n", "emission"
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == ["emitted", "given_neg", "given_zero", "given_pos"]
        got = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
        dev = float(np.max(np.abs(got - REFERENCE_EMISSION_4DP)))
        info["detail"] = f"max entry deviation {dev:.2e} (tolerance 5e-5)"
        assert dev <= 5e-5


# ---------------------------------------------------------------------------
# 2. Threshold formulas: exact equal-prior midpoints, symbolic oracle otherwise


def _symbolic_thresholds(params: gh.DetectorParams) -> tuple[float, float]:
    def exact(v: float) -> sp.Rational:
        return sp.Rational(*float(v).as_integer_ratio())

    m = [exact(v) for v in params.means]
    pri = [exact(v) for v in params.priors]
    s2 = exact(params.sigma) ** 2

    def delta(lo: int, hi: int) -> float:
        expr = (m[lo] + m[hi]) / 2 + s2 * sp.log(pri[lo] / pri[hi]) / (m[hi] - m[lo])
        return float(expr.evalf(40))

    return delta(0, 1), delta(1, 2)


def test_criterion_2_threshold_formulas(report):
    with report(2, "threshold formulas") as info:
        equal = gh.compute_thresholds(
            gh.DetectorParams(m_neg=49.6, m_zero=50.0, m_pos=50.4, sigma=0.2)
        )
        assert (equal.delta_neg_zero, equal.delta_zero_pos) == (49.8, 50.2)

        gen = np.random.default_rng(20260817)
        worst = 0.0
        checked = 0
        while checked < 40:
            pri = gen.dirichlet(np.ones(3))
            if pri.min() < 0.02:
                continue
            gaps = 0.2 + gen.random(2)
            m0 = 49.0 + gen.random()
            params = gh.DetectorParams(
                m_neg=m0,
                m_zero=m0 + gaps[0],
                m_pos=m0 + gaps[0] + gaps[1],
                sigma=0.05 + gen.random(),
                priors=tuple(pri),
            )
            try:
                thr = gh.compute_thresholds(params)
            except gh.DegenerateThresholdsError:
                continue
            ref = _symbolic_thresholds(params)
            worst = max(
                worst,
                abs(thr.delta_neg_zero - ref[0]),
                abs(thr.delta_zero_pos - ref[1]),
            )
            checked += 1
        info["detail"] = (
            f"equal priors give (49.8, 50.2) exactly; "
            f"{checked} unequal-prior configs within {worst:.2e} of symbolic values "
            f"(tolerance 1e-9)"
        )
        assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 3. Decoder equals exhaustive search on >= 1000 randomized cases plus ties


def test_criterion_3_oracle_equivalence(report):
    with report(3, "decoder vs exhaustive search") as info:
        gen = np.random.default_rng(971)
        random_cases = 0
        for _ in range(1000):
            model = random_model(gen)
            length = int(gen.integers(1, 9))
            x = feasible_observation(model, length, gen)
            np.testing.assert_array_equal(
                gh.viterbi_decode(x, model), brute_force_mlse(x, model)
            )
            random_cases += 1

        tie_cases = 0
        # Fully uniform model: every sequence ties; the lexicographically
        # smallest must win in both implementations.
        uniform = gh.HmmModel(
            transitions=np.full((3, 3), 1 / 3),
            emissions=np.full((3, 3), 1 / 3),
            initial=np.full(3, 1 / 3),
        )
        for length in (1, 2, 5, 8):
            x = np.zeros(length, dtype=int)
            np.testing.assert_array_equal(gh.viterbi_decode(x, uniform), -np.ones(length))
            np.testing.assert_array_equal(brute_force_mlse(x, uniform), -np.ones(length))
            tie_cases += 1
        # Mirrored transition rows create systematic two-way ties at every step.
        tied = gh.HmmModel(
            transitions=np.array([[0.4, 0.4, 0.2], [0.4, 0.4, 0.2], [0.2, 0.2, 0.6]]),
            emissions=np.array([[0.7, 0.7, 0.2], [0.2, 0.2, 0.2], [0.1, 0.1, 0.6]]),
            initial=np.array([0.5, 0.5, 0.0]),
        )
        for code in range(81):
            digits = [(code // 27) % 3, (code // 9) % 3, (code // 3) % 3, code % 3]
            x = np.array(digits) - 1
            np.testing.assert_array_equal(
                gh.viterbi_decode(x, tied), brute_force_mlse(x, tied)
            )
            tie_cases += 1
        info["detail"] = (
            f"{random_cases} randomized cases and {tie_cases} engineered tie cases, "
            "0 mismatches"
        )
        assert random_cases >= 1000


# ---------------------------------------------------------------------------
# 4. Synthesized measurements reproduce the emission columns (4 sigma)


def test_criterion_4_detector_empirical_agreement(report, ref_params):
    with report(4, "detector empirical agreement") as info:
        r = gh.build_emission_matrix(ref_params)
        thresholds = gh.compute_thresholds(ref_params)
        n = 10**5
        worst_mult = 0.0
        for j, state in enumerate((-1, 0, 1)):
            rng = gh.RngStream(1000 + j, stream_index=0)
            hidden = np.full(n, state)
            z = gh.synthesize_measurements(hidden, ref_params, rng)
            x = gh.classify(z, thresholds)
            for i, symbol in enumerate((-1, 0, 1)):
                p = r[i, j]
                freq = float(np.mean(x == symbol))
                bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
                assert abs(freq - p) <= bound, (state, symbol, freq, p)
                if bound > 0:
                    worst_mult = max(worst_mult, abs(freq - p) / (bound / 4.0))
        info["detail"] = (
            f"9 column entries at n={n}; worst deviation {worst_mult:.2f} sigma "
            "(limit 4 sigma)"
        )


# ---------------------------------------------------------------------------
# 5. Direct emission sampling equals measurement-plus-test sampling (4 sigma)


def test_criterion_5_path_equivalence(report, ref_params):
    with report(5, "symbol path equivalence") as info:
        r = gh.build_emission_matrix(ref_params)
        thresholds = gh.compute_thresholds(ref_params)
        n = 10**5
        worst_mult = 0.0
        for j, state in enumerate((-1, 0, 1)):
            hidden = np.full(n, state)
            direct = gh.emit_symbols(hidden, r, gh.RngStream(2000 + j, stream_index=0))
            rng = gh.RngStream(3000 + j, stream_index=0)
            z = gh.synthesize_measurements(hidden, ref_params, rng)
            routed = gh.classify(z, thresholds)
            for i, symbol in enumerate((-1, 0, 1)):
                p = r[i, j]
                fa = float(np.mean(direct == symbol))
                fb = float(np.mean(routed == symbol))
                # Difference of two independent binomial frequencies.
                sd = math.sqrt(2.0 * p * (1.0 - p) / n)
                assert abs(fa - fb) <= 4.0 * sd, (state, symbol, fa, fb)
                if sd > 0:
                    worst_mult = max(worst_mult, abs(fa - fb) / sd)
        info["detail"] = (
            f"per-state symbol frequencies at n={n} agree; "
            f"worst gap {worst_mult:.2f} sigma (limit 4 sigma)"
        )


# ---------------------------------------------------------------------------
# 6. Monte Carlo ordering under the study configuration


def test_criterion_6_monte_carlo_ordering(report):
    with report(6, "Monte Carlo accuracy ordering") as info:
        length, trials = 100, 10**4
        details = []
        for run_index, sigma in enumerate((0.4, 0.8)):
            params = gh.DetectorParams(
                m_neg=STUDY_MEANS[0],
                m_zero=STUDY_MEANS[1],
                m_pos=STUDY_MEANS[2],
                sigma=sigma,
                priors=STUDY_INITIAL,
            )
            model = gh.HmmModel(
                transitions=REFERENCE_P,
                emissions=gh.build_emission_matrix(params),
                initial=np.array(STUDY_INITIAL),
            )
            summary = gh.run_monte_carlo(model, length, trials, base_seed=run_index)
            gap = summary.va_mean - summary.ht_mean
            analytic = 100.0 * gh.expected_ht_accuracy(model, length)
            sem = summary.ht_std / math.sqrt(trials)
            mult = abs(summary.ht_mean - analytic) / sem
            details.append(
                f"sigma={sigma}: HT {summary.ht_mean:.2f}%, VA {summary.va_mean:.2f}%, "
                f"gap {gap:+.2f} points; analytic HT {analytic:.2f}% "
                f"({mult:.2f} sigma off, limit 4)"
            )
            assert summary.va_mean > summary.ht_mean, details[-1]
            assert mult <= 4.0, details[-1]
        info["detail"] = " | ".join(details)


# ---------------------------------------------------------------------------
# 7. Detection sweep: monotone curves that clear 0.99 at 12.6 dB


def test_criterion_7_detection_sweep(report):
    with report(7, "detection sweep") as info:
        template = gh.DetectorParams(m_neg=49.6, m_zero=50.0, m_pos=50.4, sigma=1.0)
        grid = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 12.6, 14.0, 16.0]
        points = gh.detection_sweep(template, snr_db_grid=grid)
        assert all(pt.detection is not None for pt in points)
        curves = np.array([pt.detection for pt in points])
        rises = np.diff(curves, axis=0)
        assert np.all(rises > -1e-12), rises.min()
        at_threshold = curves[grid.index(12.6)]
        info["detail"] = (
            f"all three curves monotone over {grid[0]}..{grid[-1]} dB; "
            f"at 12.6 dB detection = ({at_threshold[0]:.4f}, {at_threshold[1]:.4f}, "
            f"{at_threshold[2]:.4f}), all >= 0.99"
        )
        assert np.all(at_threshold >= 0.99)


# ---------------------------------------------------------------------------
# 8. Prediction: exact one-step row, stationary limit, semigroup property


def test_criterion_8_prediction(report):
    with report(8, "occupancy prediction") as info:
        one = gh.predict(REFERENCE_P, np.array([0.0, 1.0, 0.0]), horizon=1)
        np.testing.assert_array_equal(one.probs, REFERENCE_P[1])

        gen = np.random.default_rng(88)
        worst_stat = 0.0
        starts = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.full(3, 1 / 3)]
        starts += [gen.dirichlet(np.ones(3)) for _ in range(5)]
        for start in starts:
            far = gh.predict(REFERENCE_P, start, horizon=64)
            worst_stat = max(worst_stat, float(np.max(np.abs(far.probs - REFERENCE_STATIONARY))))
        assert worst_stat <= 1e-6

        worst_semi = 0.0
        for _ in range(25):
            start = gen.dirichlet(np.ones(3))
            a, b = (int(v) for v in gen.integers(0, 20, size=2))
            direct = gh.predict(REFERENCE_P, start, horizon=a + b).probs
            staged = gh.predict(REFERENCE_P, gh.predict(REFERENCE_P, start, horizon=a).probs, horizon=b).probs
            worst_semi = max(worst_semi, float(np.max(np.abs(direct - staged))))
        assert worst_semi <= 1e-12
        info["detail"] = (
            "one-step row exact; horizon-64 within "
            f"{worst_stat:.2e} of stationary (tolerance 1e-6); "
            f"semigroup residual {worst_semi:.2e} (tolerance 1e-12)"
        )


# ---------------------------------------------------------------------------
# 9. Determinism of the Monte Carlo CLI across thread counts


def test_criterion_9_thread_determinism(report, tmp_path):
    with report(9, "Monte Carlo thread determinism") as info:
        config = (
            "means = 49.4 50 50.7\n"
            "sigma = 0.4\n"
            "priors = 0.25 0.6 0.15\n"
            "k = 100\n"
            "trials = 1000\n"
            "seed = 42\n"
            "[transitions]\n"
            "0.2 0.7 0.1\n"
            "0.1 0.8 0.1\n"
            "0.1 0.7 0.2\n"
        )
        single = run_cli(tmp_path, config, "montecarlo", "--threads", "1")
        multi = run_cli(tmp_path, config, "montecarlo", "--threads", "4")
        assert single.returncode == 0, single.stderr
        assert multi.returncode == 0, multi.stderr
        identical = single.stdout == multi.stdout
        info["detail"] = (
            "1-thread and 4-thread runs (1000 trials, K=100, seed 42) produced "
            f"{'byte-identical' if identical else 'DIFFERING'} output"
        )
        assert identical
