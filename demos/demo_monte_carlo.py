"""
Monte Carlo comparison of the two estimators
============================================

Repeated independent trials measure how often each estimator matches
the hidden state path: the memoryless per-symbol test (HT) against the
Viterbi sequence decoder (VA).  Trials draw from per-trial random
streams, so the summary is reproducible and independent of the order in
which trials run.
"""
import numpy as np

from gridhmm import (
    DetectorParams,
    HmmModel,
    build_emission_matrix,
    expected_ht_accuracy,
    run_monte_carlo,
)

params = DetectorParams(
    m_neg=49.4, m_zero=50.0, m_pos=50.7, sigma=0.4, priors=(0.25, 0.6, 0.15)
)
model = HmmModel(
    transitions=np.array([[0.2, 0.7, 0.1], [0.1, 0.8, 0.1], [0.1, 0.7, 0.2]]),
    emissions=build_emission_matrix(params),
    initial=np.array(params.priors),
)

summary = run_monte_carlo(model, length=100, trials=2000, base_seed=0)

print(f"trials: {summary.trials}, path length: 100")
print(f"per-symbol test: mean {summary.ht_mean:.2f}%  std {summary.ht_std:.2f}")
print(f"sequence decode: mean {summary.va_mean:.2f}%  std {summary.va_std:.2f}")
print(f"decoder advantage: {summary.va_mean - summary.ht_mean:+.2f} points")

# The per-symbol mean has a closed form: the occupancy-weighted diagonal
# of the emission matrix.  Monte Carlo should land on it.
analytic = 100.0 * expected_ht_accuracy(model, length=100)
print(f"\nanalytic per-symbol mean: {analytic:.2f}%")

# Accuracy histograms over 0..100%, sketched as text.  Each trial lands
# in one integer percent bin.
print("\naccuracy histogram (% of trials per 2-point band)")
print(f"{'band':>9} {'test':>22} {'decode':>22}")
for lo in range(60, 100, 2):
    ht = summary.histogram_ht[lo : lo + 2].sum()
    va = summary.histogram_va[lo : lo + 2].sum()
    bar_ht = "#" * round(100.0 * ht / summary.trials)
    bar_va = "#" * round(100.0 * va / summary.trials)
    print(f"{lo:>4}-{lo + 1:>3}% {bar_ht:>22} {bar_va:>22}")
