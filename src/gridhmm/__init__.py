"""Hidden-Markov estimation of grid frequency deviation states.

The measurement chain: a three-state deviation process evolves under a
Markov transition matrix; each step yields a noisy Gaussian frequency
measurement; a maximum-likelihood threshold test turns measurements
into symbols; a Viterbi decoder recovers the most likely hidden state
sequence from the symbol stream.  The package also provides the Monte
Carlo harness comparing the memoryless test against the sequence
decoder, detection-probability sweeps over noise levels, and occupancy
forecasting.
"""
from .detector import (
    STATES,
    DegenerateThresholdsError,
    DetectorParams,
    Thresholds,
    classify,
    compute_thresholds,
    detection_probabilities,
    error_probabilities,
)
from .gaussian import RngStream, q_function, sample_categorical, sample_gaussian
from .model import (
    HmmModel,
    InvalidModelError,
    NonConvergenceError,
    build_emission_matrix,
    require_valid,
    stationary_distribution,
)
from .model import validate as validate_model
from .simulate import (
    MonteCarloSummary,
    PredictionVector,
    SweepPoint,
    accuracy,
    detection_sweep,
    emit_symbols,
    expected_ht_accuracy,
    predict,
    run_monte_carlo,
    simulate_states,
    synthesize_measurements,
)
from .viterbi import (
    TIE_EPS,
    InfeasibleObservationError,
    joint_log_prob,
    viterbi_decode,
)
from .config import (
    ConfigError,
    MeasurementFormatError,
    MeasurementSeries,
    RunConfig,
    load_measurements,
    parse_config,
)

__version__ = "0.1.0"

__all__ = [
    "STATES",
    "TIE_EPS",
    "DetectorParams",
    "Thresholds",
    "DegenerateThresholdsError",
    "compute_thresholds",
    "classify",
    "error_probabilities",
    "detection_probabilities",
    "q_function",
    "RngStream",
    "sample_gaussian",
    "sample_categorical",
    "HmmModel",
    "InvalidModelError",
    "NonConvergenceError",
    "build_emission_matrix",
    "validate_model",
    "require_valid",
    "stationary_distribution",
    "InfeasibleObservationError",
    "joint_log_prob",
    "viterbi_decode",
    "simulate_states",
    "emit_symbols",
    "synthesize_measurements",
    "accuracy",
    "MonteCarloSummary",
    "run_monte_carlo",
    "SweepPoint",
    "detection_sweep",
    "PredictionVector",
    "predict",
    "expected_ht_accuracy",
    "ConfigError",
    "MeasurementFormatError",
    "MeasurementSeries",
    "RunConfig",
    "parse_config",
    "load_measurements",
]
