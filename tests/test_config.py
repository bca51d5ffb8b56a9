"""Configuration file parsing and measurement CSV ingestion."""
import logging

import numpy as np
import pytest

import gridhmm as gh

from conftest import REFERENCE_P


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = "means = 49 50 51\nsigma = 0.2\n"

FULL = """\
# study setup
means = 49 50 51      # Hz
sigma = 0.2
priors = 0.1 0.8 0.1
k = 25
trials = 500
seed = 7
horizon = 4

[transitions]
0.2 0.7 0.1
0.1 0.8 0.1
0.1 0.7 0.2

[emission_matrix]
0.9 0.1 0.0
0.1 0.8 0.1
0.0 0.1 0.9
"""


def test_parse_minimal_config_defaults(tmp_path):
    cfg = gh.parse_config(write(tmp_path, MINIMAL))
    assert cfg.params.means == (49.0, 50.0, 51.0)
    assert cfg.params.sigma == 0.2
    assert cfg.params.priors == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=0)
    assert cfg.length == 100
    assert cfg.trials == 10000
    assert cfg.seed == 0
    assert cfg.horizon is None
    assert cfg.transitions is None
    assert cfg.emissions_override is None
    assert cfg.snr_db_grid is None and cfg.sigma_grid is None


def test_parse_full_config(tmp_path):
    cfg = gh.parse_config(write(tmp_path, FULL))
    assert cfg.params.priors == (0.1, 0.8, 0.1)
    assert (cfg.length, cfg.trials, cfg.seed, cfg.horizon) == (25, 500, 7, 4)
    np.testing.assert_array_equal(cfg.transitions, REFERENCE_P)
    expected_r = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])
    np.testing.assert_array_equal(cfg.emissions_override, expected_r)
    # The explicit block wins over the analytic matrix.
    np.testing.assert_array_equal(cfg.emission_matrix(), expected_r)
    model = cfg.model()
    np.testing.assert_array_equal(model.initial, [0.1, 0.8, 0.1])


def test_analytic_emission_when_no_override(tmp_path, ref_params):
    cfg = gh.parse_config(write(tmp_path, "means = 49 50 51\nsigma = 0.2\npriors = 0.1 0.8 0.1\n"))
    np.testing.assert_array_equal(cfg.emission_matrix(), gh.build_emission_matrix(ref_params))


def test_offset_mean_convention(tmp_path):
    cfg = gh.parse_config(
        write(tmp_path, "f0 = 50\ndelta_f_min = 0.6\ndelta_f_max = 0.7\nsigma = 0.4\n")
    )
    assert cfg.params.means == pytest.approx((49.4, 50.0, 50.7), abs=1e-12)


def test_offset_convention_symmetric(tmp_path):
    cfg = gh.parse_config(
        write(tmp_path, "f0 = 50\ndelta_f_min = 1\ndelta_f_max = 1\nsigma = 0.2\n")
    )
    assert cfg.params.means == (49.0, 50.0, 51.0)


def test_mean_convention_conflict(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, "means = 49 50 51\nf0 = 50\nsigma = 0.2\n"))
    assert any("not both conventions" in v for v in info.value.violations)


def test_offset_convention_incomplete(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, "f0 = 50\nsigma = 0.2\n"))
    assert any("must be given together" in v for v in info.value.violations)


def test_offset_convention_rejects_nonpositive_deltas(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(
            write(tmp_path, "f0 = 50\ndelta_f_min = -0.1\ndelta_f_max = 0.4\nsigma = 0.2\n")
        )
    assert any("must be positive" in v for v in info.value.violations)


def test_bad_priors_reported(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, MINIMAL + "priors = 0.5 0.5 0.5\n"))
    assert any("priors" in v for v in info.value.violations)


def test_default_priors_logged(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="gridhmm.config"):
        gh.parse_config(write(tmp_path, MINIMAL))
    assert any("priors" in rec.message for rec in caplog.records)


def test_all_violations_collected(tmp_path):
    text = """\
means = 49 50
bogus = 1
k = 0
trials = -3
seed = -1
horizon = -2

[mystery]
"""
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, text))
    vio = info.value.violations
    assert any("'means' needs 3 values" in v for v in vio)
    assert any("unknown key 'bogus'" in v and "line 2" in v for v in vio)
    assert any("'k' must be >= 1" in v for v in vio)
    assert any("'trials' must be >= 1" in v for v in vio)
    assert any("'seed'" in v for v in vio)
    assert any("'horizon' must be >= 0" in v for v in vio)
    assert any("unknown section [mystery]" in v and "line 8" in v for v in vio)
    assert any("'sigma' is required" in v for v in vio)
    assert len(vio) >= 8
    # Every violation appears in the rendered message too.
    for v in vio:
        assert v in str(info.value)


def test_duplicate_key_cited_with_line(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, "means = 49 50 51\nsigma = 0.2\nsigma = 0.3\n"))
    assert any("duplicate key 'sigma'" in v and "line 3" in v for v in info.value.violations)


def test_non_numeric_value_cited(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, "means = 49 fifty 51\nsigma = 0.2\n"))
    assert any("'fifty' is not a number" in v for v in info.value.violations)


def test_non_finite_value_rejected(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, "means = 49 50 inf\nsigma = 0.2\n"))
    assert any("must be finite" in v for v in info.value.violations)


def test_matrix_block_needs_three_rows(tmp_path):
    text = MINIMAL + "[transitions]\n0.2 0.7 0.1\n0.1 0.8 0.1\n"
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, text))
    assert any("must have 3 rows, got 2" in v for v in info.value.violations)


def test_matrix_row_needs_three_entries(tmp_path):
    text = MINIMAL + "[transitions]\n0.2 0.8\n0.1 0.8 0.1\n0.1 0.7 0.2\n"
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, text))
    assert any("rows need 3 entries, got 2" in v for v in info.value.violations)


def test_transitions_must_be_row_stochastic(tmp_path):
    text = MINIMAL + "[transitions]\n0.2 0.7 0.2\n0.1 0.8 0.1\n0.1 0.7 0.2\n"
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, text))
    assert any("[transitions] row 0 sums to" in v for v in info.value.violations)


def test_emission_block_checked_column_wise(tmp_path):
    # Row-stochastic but not column-stochastic: wrong orientation must be caught.
    text = MINIMAL + "[emission_matrix]\n0.2 0.7 0.1\n0.1 0.8 0.1\n0.1 0.7 0.2\n"
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, text))
    assert any("[emission_matrix] column" in v for v in info.value.violations)


def test_duplicate_section_rejected(tmp_path):
    block = "[transitions]\n0.2 0.7 0.1\n0.1 0.8 0.1\n0.1 0.7 0.2\n"
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, MINIMAL + block + block))
    assert any("duplicate section [transitions]" in v for v in info.value.violations)


def test_assignment_inside_incomplete_section(tmp_path):
    text = MINIMAL + "[transitions]\n0.2 0.7 0.1\nseed = 4\n"
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, text))
    assert any("incomplete section [transitions]" in v for v in info.value.violations)


def test_stray_matrix_row_outside_section(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, MINIMAL + "0.1 0.8 0.1\n"))
    assert any("expected 'key = value'" in v for v in info.value.violations)


def test_grid_conventions_exclusive(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, MINIMAL + "snr_db = 1 2\nsigma_grid = 0.5 0.25\n"))
    assert any("at most one of 'snr_db' and 'sigma_grid'" in v for v in info.value.violations)


def test_sigma_grid_must_be_positive(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, MINIMAL + "sigma_grid = 0.5 0\n"))
    assert any("'sigma_grid' values must be positive" in v for v in info.value.violations)


def test_snr_grid_parsed(tmp_path):
    cfg = gh.parse_config(write(tmp_path, MINIMAL + "snr_db = 0 4 8 12.6\n"))
    assert cfg.snr_db_grid == [0.0, 4.0, 8.0, 12.6]


def test_seed_must_fit_u64(tmp_path):
    with pytest.raises(gh.ConfigError) as info:
        gh.parse_config(write(tmp_path, MINIMAL + f"seed = {2 ** 64}\n"))
    assert any("unsigned 64-bit" in v for v in info.value.violations)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        gh.parse_config(tmp_path / "nope.cfg")


def test_model_requires_transitions(tmp_path):
    cfg = gh.parse_config(write(tmp_path, MINIMAL))
    with pytest.raises(gh.ConfigError, match="transitions"):
        cfg.model()


# ---------------------------------------------------------------------------
# Measurement CSV ingestion


def test_load_step_indexed_measurements(tmp_path):
    path = write(tmp_path, "k,z_hz\n1,49.97\n2,50.4\n3,49.1\n", "m.csv")
    series = gh.load_measurements(path)
    assert series.index_name == "k"
    np.testing.assert_array_equal(series.index, [1, 2, 3])
    np.testing.assert_array_equal(series.z_hz, [49.97, 50.4, 49.1])


def test_load_timestamp_indexed_measurements(tmp_path):
    path = write(tmp_path, "timestamp,z_hz\n0.0,50.1\n0.5,49.9\n1.25,50.0\n", "m.csv")
    series = gh.load_measurements(path)
    assert series.index_name == "timestamp"
    np.testing.assert_array_equal(series.index, [0.0, 0.5, 1.25])


def test_load_ignores_extra_columns(tmp_path):
    # A simulated trace has extra columns; the loader reads only k and z_hz.
    path = write(tmp_path, "k,s,z_hz,x\n1,0,50.02,0\n2,1,50.61,1\n", "trace.csv")
    series = gh.load_measurements(path)
    np.testing.assert_array_equal(series.z_hz, [50.02, 50.61])


def test_load_skips_blank_lines(tmp_path):
    path = write(tmp_path, "k,z_hz\n1,50.0\n\n2,49.5\n", "m.csv")
    series = gh.load_measurements(path)
    assert series.z_hz.shape == (2,)


def test_load_rejects_non_monotone_index(tmp_path):
    path = write(tmp_path, "k,z_hz\n1,50.0\n3,49.5\n2,50.1\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="row 4"):
        gh.load_measurements(path)


def test_load_rejects_repeated_index(tmp_path):
    path = write(tmp_path, "timestamp,z_hz\n1.5,50.0\n1.5,49.5\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="does not increase"):
        gh.load_measurements(path)


def test_load_rejects_fractional_step_index(tmp_path):
    path = write(tmp_path, "k,z_hz\n1.5,50.0\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="integer"):
        gh.load_measurements(path)


@pytest.mark.parametrize("k", ["9007199254740992", "9007199254740993", "-9007199254740993", "1e300"])
def test_load_rejects_step_index_at_or_beyond_2_53(tmp_path, k):
    path = write(tmp_path, f"k,z_hz\n1,50.0\n{k},49.5\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match=r"row 3: step index .* below 2\*\*53"):
        gh.load_measurements(path)


def test_load_keeps_largest_exact_step_index(tmp_path):
    path = write(tmp_path, "k,z_hz\n-9007199254740991,50.0\n9007199254740991,49.5\n", "m.csv")
    series = gh.load_measurements(path)
    assert series.index.tolist() == [-(2**53 - 1), 2**53 - 1]


def test_load_rejects_non_finite_measurement(tmp_path):
    path = write(tmp_path, "k,z_hz\n1,nan\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="finite"):
        gh.load_measurements(path)


def test_load_rejects_text_measurement(tmp_path):
    path = write(tmp_path, "k,z_hz\n1,fifty\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="row 2"):
        gh.load_measurements(path)


def test_load_rejects_short_row(tmp_path):
    path = write(tmp_path, "k,z_hz\n1,50.0\n2\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="expected 2 fields, got 1"):
        gh.load_measurements(path)


@pytest.mark.parametrize("body", ["1,50.0,7\n2,49.5,8\n", "1,50.0\n2,49.5,8\n3,50.1\n"])
def test_load_rejects_long_row(tmp_path, body):
    # Every row long, or one: the error names the first long row either way.
    path = write(tmp_path, "k,z_hz\n" + body, "m.csv")
    row = 2 if body.startswith("1,50.0,") else 3
    with pytest.raises(gh.MeasurementFormatError, match=f"row {row}: expected 2 fields, got 3"):
        gh.load_measurements(path)


def test_load_accepts_what_float_accepts(tmp_path):
    # numpy's reader refuses these spellings; the row loop reads them as float does.
    path = write(tmp_path, "k,z_hz\r1_0,5_0.5\r\uff11\uff11,\"49.5\"\r\u0663\u0669,50\r", "m.csv")
    series = gh.load_measurements(path)
    assert series.index.tolist() == [10.0, 11.0, 39.0]
    assert series.z_hz.tolist() == [50.5, 49.5, 50.0]


def test_load_rejects_separator_padding(tmp_path):
    # numpy would strip the \x1f as whitespace; float, and so the loader, does not.
    path = write(tmp_path, "k,z_hz\n1,50.0\n2,49.5\x1f\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="row 3: fields must be numbers"):
        gh.load_measurements(path)


def test_load_rejects_bad_header(tmp_path):
    path = write(tmp_path, "step,freq\n1,50.0\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="header"):
        gh.load_measurements(path)


def test_load_rejects_ambiguous_index(tmp_path):
    path = write(tmp_path, "k,timestamp,z_hz\n1,0.5,50.0\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="exactly one"):
        gh.load_measurements(path)


def test_load_rejects_empty_file(tmp_path):
    path = write(tmp_path, "", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="empty"):
        gh.load_measurements(path)


def test_load_rejects_header_only_file(tmp_path):
    path = write(tmp_path, "k,z_hz\n", "m.csv")
    with pytest.raises(gh.MeasurementFormatError, match="no data rows"):
        gh.load_measurements(path)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        gh.load_measurements(tmp_path / "nope.csv")
