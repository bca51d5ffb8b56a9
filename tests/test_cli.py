"""Command-line interface: schemas, determinism, exit codes, memory."""
import contextlib
import csv
import io
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridhmm as gh
from gridhmm.cli import main

from conftest import REFERENCE_EMISSION_4DP, REFERENCE_P, REFERENCE_THRESHOLDS

BASE_CFG = """\
means = 49 50 51
sigma = 0.2
priors = 0.1 0.8 0.1
k = 20
trials = 40
seed = 3
horizon = 3

[transitions]
0.2 0.7 0.1
0.1 0.8 0.1
0.1 0.7 0.2
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_emission_matches_reference(cfg, capsys):
    code, out, err = run_cli(capsys, "emission", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["emitted", "given_neg", "given_zero", "given_pos"]
    assert [r[0] for r in rows] == ["-1", "0", "1"]
    got = np.array([[float(c) for c in r[1:]] for r in rows])
    assert np.max(np.abs(got - REFERENCE_EMISSION_4DP)) <= 5e-5
    assert "status=ok command=emission" in err
    reported = {
        part.split("=")[0]: part.split("=")[1]
        for part in err.split()
        if part.startswith("delta_")
    }
    assert float(reported["delta_neg_zero"]) == REFERENCE_THRESHOLDS[0]
    assert float(reported["delta_zero_pos"]) == REFERENCE_THRESHOLDS[1]


def test_output_file_matches_stdout(cfg, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "emission", "--config", cfg)
    assert code == 0
    dest = tmp_path / "r.csv"
    code2 = main(["emission", "--config", cfg, "--output", str(dest)])
    capsys.readouterr()
    assert code2 == 0
    assert dest.read_text() == out
    # LF line endings only.
    assert b"\r" not in dest.read_bytes()


COMMANDS = ["emission", "detect", "decode", "simulate", "montecarlo", "sweep", "predict"]


def _argv(command, tmp_path):
    """Arguments that run ``command`` on a config every subcommand accepts."""
    path = tmp_path / "all.cfg"
    path.write_text(BASE_CFG + "snr_db = 4 12.6\n")
    argv = [command, "--config", str(path)]
    if command in ("detect", "decode"):
        m = tmp_path / "m.csv"
        m.write_text("k,z_hz\n1,48.9\n2,50.02\n3,50.61\n4,49.401\n")
        argv += ["--input", str(m)]
    return argv


@pytest.mark.parametrize("command", COMMANDS)
def test_every_output_file_matches_stdout(capsys, tmp_path, command):
    argv = _argv(command, tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    dest = tmp_path / "r.csv"
    code2, out2, _ = run_cli(capsys, *argv, "--output", str(dest))
    assert code2 == 0
    assert out2 == ""
    assert dest.read_bytes() == out.encode()


@pytest.mark.parametrize("command", COMMANDS)
def test_every_unwritable_output_exits_2(capsys, tmp_path, command):
    dest = tmp_path / "missing-dir" / "out.csv"
    code, out, err = run_cli(capsys, *_argv(command, tmp_path), "--output", str(dest))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "status=ok" not in err


def test_sweep_notes_wait_for_a_writable_output(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "means = 49.99 50 50.01\nsigma = 0.2\npriors = 0.499 0.002 0.499\nsigma_grid = 5 0.001\n"
    )
    dest = tmp_path / "missing-dir" / "out.csv"
    code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--output", str(dest))
    assert code == 2
    assert out == "" and "note:" not in err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("body", ["1,48.9\n2,50.02\n3,50.61\n", "1_0,48.9\n2_0,50.02\n"])
def test_decode_reads_measurements_from_a_pipe(cfg, tmp_path, capsys, body):
    # A pipe cannot be read twice, so it goes to the row loop; the output is the file's.
    m = tmp_path / "m.csv"
    m.write_text("k,z_hz\n" + body)
    code, want, _ = run_cli(capsys, "decode", "--config", cfg, "--input", str(m))
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "gridhmm", "decode", "--config", cfg, "--input", "/dev/stdin"],
        input="k,z_hz\n" + body,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_detect_schema_and_classification(cfg, capsys, tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("k,z_hz\n1,48.9\n2,50.02\n3,50.61\n4,49.401\n")
    code, out, err = run_cli(capsys, "detect", "--config", cfg, "--input", str(m))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "z_hz", "x"]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert [r[2] for r in rows] == ["-1", "0", "1", "-1"]
    # Measurements round-trip bit exactly through the 17-digit format.
    assert [float(r[1]) for r in rows] == [48.9, 50.02, 50.61, 49.401]
    assert "rows=4" in err


def test_detect_keeps_timestamp_index(cfg, capsys, tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("timestamp,z_hz\n0.5,49.0\n1.25,50.0\n")
    code, out, _ = run_cli(capsys, "detect", "--config", cfg, "--input", str(m))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["timestamp", "z_hz", "x"]
    assert [r[0] for r in rows] == ["0.5", "1.25"]


def test_simulate_schema_and_determinism(cfg, capsys):
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "s", "z_hz", "x"]
    assert len(rows) == 20
    assert [r[0] for r in rows] == [str(k) for k in range(1, 21)]
    assert all(r[1] in {"-1", "0", "1"} and r[3] in {"-1", "0", "1"} for r in rows)
    # Same config, same bytes.
    code2, out2, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert code2 == 0 and out2 == out
    # Explicit --seed equal to the config seed reproduces it too.
    code3, out3, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "3")
    assert code3 == 0 and out3 == out
    # A different seed changes the trace.
    code4, out4, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "4")
    assert code4 == 0 and out4 != out
    assert "seed=3" in err


def test_simulate_floats_reparse_bit_exactly(cfg, capsys):
    _, out, _ = run_cli(capsys, "simulate", "--config", cfg)
    _, rows = parse_csv(out)
    for r in rows:
        z = float(r[2])
        assert format(z, ".17g") == r[2]


def test_simulate_trace_feeds_decode(cfg, capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["simulate", "--config", cfg, "--output", str(trace)])
    capsys.readouterr()
    assert code == 0
    code, out, _ = run_cli(capsys, "decode", "--config", cfg, "--input", str(trace))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "z_hz", "x", "s_star"]
    assert len(rows) == 20
    # The decode must agree with the library pipeline on the same data.
    sim_rows = list(csv.reader(trace.open()))[1:]
    z = np.array([float(r[2]) for r in sim_rows])
    cfg_obj = gh.parse_config(cfg)
    x = gh.classify(z, gh.compute_thresholds(cfg_obj.params))
    expect = gh.viterbi_decode(x, cfg_obj.model())
    assert [int(r[2]) for r in rows] == [int(v) for v in x]
    assert [int(r[3]) for r in rows] == [int(v) for v in expect]


def test_decode_status_reports_decoder_diagnostics(tmp_path, capsys):
    # A sticky chain and a noisy record, so the decoder overrides some symbols.
    path = tmp_path / "sticky.cfg"
    path.write_text(
        BASE_CFG.replace("sigma = 0.2", "sigma = 0.35")
        .replace("k = 20", "k = 400")
        .split("[transitions]")[0]
        + "[transitions]\n0.9 0.1 0.0\n0.05 0.9 0.05\n0.0 0.1 0.9\n"
    )
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(path), "--output", str(trace)]) == 0
    capsys.readouterr()
    _, detected, _ = run_cli(capsys, "detect", "--config", str(path), "--input", str(trace))
    code, out, err = run_cli(capsys, "decode", "--config", str(path), "--input", str(trace))
    assert code == 0
    header, rows = parse_csv(out)
    # stdout is the detect output plus the s_star column, nothing more.
    assert out.splitlines() == [
        f"{line},{s}" for line, s in zip(detected.splitlines(), ["s_star"] + [r[3] for r in rows])
    ]
    status = [line for line in err.splitlines() if line.startswith("status=ok")][-1]
    fields = dict(part.split("=", 1) for part in status.split())
    conf = gh.parse_config(str(path))
    x = np.array([int(r[2]) for r in rows])
    s_star = gh.viterbi_decode(x, conf.model())
    assert fields["rows"] == "400"
    assert float(fields["log_prob"]) == gh.joint_log_prob(x, s_star, conf.model())
    assert int(fields["corrected"]) == np.count_nonzero(s_star != x) > 0


def test_decode_peak_memory_per_row(cfg, tmp_path):
    # Traced peak of a whole decode run, output included.  It holds the
    # two loaded float columns (16 B a row), the int8 symbols and path,
    # and classify's int64 result (8 B a row) while it is narrowed; the
    # rest is made one chunk at a time.  Each whole-column int64 or float
    # copy would add 8 B a row.
    rows = 200_000
    gen = np.random.default_rng(5)
    z = np.array([49.0, 50.0, 51.0])[np.repeat(gen.integers(0, 3, rows // 20), 20)]
    z += 0.35 * gen.standard_normal(rows)
    data = tmp_path / "m.csv"
    data.write_text("k,z_hz\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(z.tolist(), 1)))
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            code = main(["decode", "--config", cfg, "--input", str(data)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / rows < 32


def test_decode_rejects_step_index_beyond_float_precision(cfg, tmp_path):
    # 2**53 + 1 parses to the float 2**53; the loader must refuse it, not round it.
    m = tmp_path / "m.csv"
    m.write_text("k,z_hz\n9007199254740991,50.0\n9007199254740993,50.1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gridhmm", "decode", "--config", cfg, "--input", str(m)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "row 3" in proc.stderr and "2**53" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_montecarlo_csv_reparses(cfg, capsys):
    code, out, err = run_cli(capsys, "montecarlo", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["field", "bin", "ht", "va"]
    assert rows[0][:2] == ["trials", ""] and rows[0][2] == rows[0][3] == "40"
    assert rows[1][0] == "mean_pct" and rows[2][0] == "std_pct"
    assert 0.0 <= float(rows[1][2]) <= 100.0 and 0.0 <= float(rows[1][3]) <= 100.0
    hist = [r for r in rows if r[0] == "hist"]
    assert len(hist) == 101
    assert [int(r[1]) for r in hist] == list(range(101))
    assert sum(int(r[2]) for r in hist) == 40
    assert sum(int(r[3]) for r in hist) == 40
    assert "command=montecarlo" in err and "trials=40" in err


def test_montecarlo_status_reports_analytic_cross_check(cfg, capsys):
    code, out, err = run_cli(capsys, "montecarlo", "--config", cfg)
    assert code == 0
    status = [line for line in err.splitlines() if line.startswith("status=ok")][-1]
    fields = dict(part.split("=", 1) for part in status.split())
    conf = gh.parse_config(cfg)
    expected = 100.0 * gh.expected_ht_accuracy(conf.model(), conf.length)
    assert float(fields["ht_expected"]) == expected
    _, rows = parse_csv(out)
    ht_mean, ht_std = float(rows[1][2]), float(rows[2][2])
    assert float(fields["ht_z"]) == (ht_mean - expected) / (ht_std / math.sqrt(40))
    assert abs(float(fields["ht_z"])) < 5.0


def test_montecarlo_validates_the_model_once(cfg, capsys, monkeypatch):
    # The status line's analytic cross-check reuses the run's validation.
    calls = []

    def counting(model, *args, **kwargs):
        calls.append(model)
        return gh.require_valid(model, *args, **kwargs)

    for module in ("simulate", "viterbi"):
        monkeypatch.setattr(f"gridhmm.{module}.require_valid", counting)
    code, _, err = run_cli(capsys, "montecarlo", "--config", cfg)
    assert code == 0 and "ht_expected=" in err
    assert len(calls) == 1


def test_montecarlo_status_z_is_nan_without_spread(tmp_path, capsys):
    # At this noise level every symbol is right, so ht_std is 0 and no z-score exists.
    path = tmp_path / "exact.cfg"
    path.write_text(BASE_CFG.replace("sigma = 0.2", "sigma = 0.001"))
    code, out, err = run_cli(capsys, "montecarlo", "--config", str(path))
    assert code == 0
    assert parse_csv(out)[1][2][2] == "0"
    assert "ht_z=nan" in err.split()


def test_montecarlo_thread_count_invariant(cfg, capsys):
    _, out1, _ = run_cli(capsys, "montecarlo", "--config", cfg, "--threads", "1")
    _, out3, _ = run_cli(capsys, "montecarlo", "--config", cfg, "--threads", "3")
    assert out1 == out3


def test_montecarlo_trials_override(cfg, capsys):
    code, out, err = run_cli(capsys, "montecarlo", "--config", cfg, "--trials", "10")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2] == "10"
    assert "trials=10" in err


def test_predict_rows(cfg, capsys):
    code, out, _ = run_cli(capsys, "predict", "--config", cfg)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "p_neg", "p_zero", "p_pos"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert [float(c) for c in rows[0][1:]] == [0.1, 0.8, 0.1]
    v = np.array([0.1, 0.8, 0.1])
    for r in rows[1:]:
        v = v @ REFERENCE_P
        assert [float(c) for c in r[1:]] == [float(p) for p in v]


def test_predict_requires_horizon_and_transitions(tmp_path, capsys):
    path = tmp_path / "bare.cfg"
    path.write_text("means = 49 50 51\nsigma = 0.2\n")
    code, out, err = run_cli(capsys, "predict", "--config", str(path))
    assert code == 1
    assert out == ""
    assert "[transitions] block is required" in err
    assert "'horizon' is required" in err


def test_sweep_snr_grid(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("means = 49.6 50 50.4\nsigma = 0.2\nsnr_db = 4 12.6\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["snr_db", "sigma", "pd_neg", "pd_zero", "pd_pos"]
    assert len(rows) == 2
    assert float(rows[0][1]) == pytest.approx(10 ** (-0.4), abs=1e-15)
    # Less noise, better detection, for every state.
    for j in (2, 3, 4):
        assert float(rows[1][j]) > float(rows[0][j])
    assert all(float(rows[1][j]) >= 0.99 for j in (2, 3, 4))
    assert "degenerate=0" in err


def test_sweep_reports_degenerate_points(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "means = 49.99 50 50.01\nsigma = 0.2\npriors = 0.499 0.002 0.499\nsigma_grid = 5 0.001\n"
    )
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert rows[0][2:] == ["nan"] * 3
    assert all(c != "nan" for c in rows[1][2:])
    assert "note:" in err and "degenerate=1" in err


def test_sweep_requires_a_grid(cfg, capsys):
    code, _, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 1
    assert "'snr_db' or 'sigma_grid' is required" in err


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "emission", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    assert "error:" in err


def test_missing_input_file_exits_2(cfg, capsys, tmp_path):
    code, _, err = run_cli(capsys, "detect", "--config", cfg, "--input", str(tmp_path / "no.csv"))
    assert code == 2
    assert "error:" in err


def test_unwritable_output_exits_2(cfg, capsys, tmp_path):
    dest = tmp_path / "missing-dir" / "out.csv"
    code, _, err = run_cli(capsys, "emission", "--config", cfg, "--output", str(dest))
    assert code == 2
    assert "error:" in err


def test_invalid_config_exits_1_listing_everything(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("means = 49 50 51\nbogus = 1\n")
    code, _, err = run_cli(capsys, "emission", "--config", str(path))
    assert code == 1
    assert "'sigma' is required" in err
    assert "unknown key 'bogus'" in err


def test_bad_measurement_csv_exits_1(cfg, capsys, tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("k,z_hz\n2,50.0\n1,49.0\n")
    code, _, err = run_cli(capsys, "detect", "--config", cfg, "--input", str(m))
    assert code == 1
    assert "does not increase" in err


def test_infeasible_decode_exits_1(tmp_path, capsys):
    # The override never emits +1, so a +1 classification cannot be decoded.
    path = tmp_path / "run.cfg"
    path.write_text(
        BASE_CFG
        + "[emission_matrix]\n0.5 0.1 0.2\n0.5 0.9 0.8\n0 0 0\n"
    )
    m = tmp_path / "m.csv"
    m.write_text("k,z_hz\n1,51.0\n")
    code, _, err = run_cli(capsys, "decode", "--config", str(path), "--input", str(m))
    assert code == 1
    assert "step" in err


def test_tiny_negative_transition_exits_1_without_traceback(tmp_path):
    # -5e-10 is inside the sum tolerance; its log would be NaN in the decoder.
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG.replace("0.2 0.7 0.1", "1.0000000005 -0.0000000005 0"))
    m = tmp_path / "m.csv"
    m.write_text("k,z_hz\n1,50.0\n2,51.0\n")
    for command in (["decode", "--input", str(m)], ["simulate"], ["montecarlo"], ["predict"]):
        proc = subprocess.run(
            [sys.executable, "-m", "gridhmm", *command, "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, command
        assert "error:" in proc.stderr and "[transitions][0, 1]" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_usage_errors_exit_1(cfg, capsys):
    # Missing required option.
    code, _, err = run_cli(capsys, "detect", "--config", cfg)
    assert code == 1 and "error:" in err
    # Unknown subcommand.
    code, _, err = run_cli(capsys, "frobnicate", "--config", cfg)
    assert code == 1
    # No subcommand at all.
    code, _, err = run_cli(capsys, )
    assert code == 1
    # Bad option value.
    code, _, err = run_cli(capsys, "simulate", "--config", cfg, "--seed", "-1")
    assert code == 1
    code, _, err = run_cli(capsys, "montecarlo", "--config", cfg, "--threads", "0")
    assert code == 1


def test_module_entry_point(cfg):
    proc = subprocess.run(
        [sys.executable, "-m", "gridhmm", "emission", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    header = proc.stdout.splitlines()[0]
    assert header == "emitted,given_neg,given_zero,given_pos"


def test_console_script(cfg, tmp_path):
    # The `gridhmm` executable that an installer would generate from the
    # declared [project.scripts] entry, run from the source tree: the suite
    # runs with `src` on PYTHONPATH and installs nothing.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["gridhmm"]
    module, attr = entry.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "gridhmm"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = str(Path(gh.__file__).resolve().parent.parent)

    exe = shutil.which("gridhmm", path=env["PATH"])
    assert exe is not None
    proc = subprocess.run(
        [exe, "predict", "--config", cfg], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,p_neg,p_zero,p_pos"
