"""Tests of the benchmark's own checks: run with ``python -m pytest bench``.

Each output check must fail when it should: one flipped byte in any CLI
output, or a ``--threads 1`` output that differs from ``--threads 2``,
has to count as a failed run.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import checks
import inputs as inp
import run
import tracing


class FlippingRunner(run.Runner):
    """A runner that flips one byte of the stdout of the CLI calls ``corrupt`` selects."""

    def __init__(self, work: Path, corrupt, offset: int) -> None:
        super().__init__(work)
        self.corrupt = corrupt
        self.offset = offset
        self.calls = 0

    def run(self, argv, *, keep=False, sink=None, metrics=None):
        if argv[0] == "emission":
            return super().run(argv, keep=keep, sink=sink, metrics=metrics)
        self.calls += 1
        if not self.corrupt(self.calls, argv):
            return super().run(argv, keep=keep, sink=sink, metrics=metrics)
        sample = super().run(argv, keep=True, metrics=metrics)
        data = bytearray(sample.stdout)
        data[self.offset % len(data)] ^= 0x01
        if sink is not None:
            sink.write(bytes(data))
        sample.stdout = bytes(data)
        sample.digest = hashlib.sha256(data).hexdigest()
        return sample


def _measure(runner: run.Runner, workload: str, seed: int) -> None:
    given = runner.prepare(workload, seed)
    run.measure(runner, given, seed, seconds=0)


@pytest.mark.parametrize(
    "workload, seed, call, offset",
    [
        ("decode", 1, 1, 5_000_000),  # the checked run, golden seed
        ("decode", 7, 1, 123_457),  # the checked run, seed without a golden digest
        ("simulate", 7, 3, 2_000_001),  # a timed repeat
        ("montecarlo", 1, 4, 200),  # a timed repeat, after the --threads 1 run
    ],
)
def test_flipped_byte_counts_as_failed_run(tmp_path, workload, seed, call, offset):
    runner = FlippingRunner(tmp_path, lambda n, argv: n == call, offset)
    _measure(runner, workload, seed)
    assert runner.failed >= 1
    assert runner.failed / runner.attempted > 0


def test_clean_run_has_no_failures(tmp_path):
    runner = run.Runner(tmp_path)
    _measure(runner, "simulate", 1)
    assert (runner.failed, runner.attempted) == (0, run.SETUP_SAMPLES + 1 + run.MIN_SAMPLES)


def test_threads_mismatch_is_caught(tmp_path, capsys):
    runner = FlippingRunner(tmp_path, lambda n, argv: argv[-1] == "1", 300)
    _measure(runner, "montecarlo", 1)
    assert runner.failed == 1
    assert "--threads 1 and 2 outputs differ" in capsys.readouterr().err


def test_content_checks_catch_a_wrong_state(tmp_path):
    runner = run.Runner(tmp_path)
    given = runner.prepare("decode", 7)
    sample = runner.run(given.argv, keep=True)
    ref_sample = runner.run(["emission", "--config", given.config], keep=True)
    ref = checks.parse_emission(ref_sample.stdout, ref_sample.stderr)
    loaded = inp.load("decode", given.work, given.steps)
    assert checks.output_problems(loaded, sample.stdout, ref) == []
    lines = sample.stdout.decode().split("\n")
    row = lines[1000].rsplit(",", 1)
    lines[1000] = f"{row[0]},{1 if row[1] != '1' else 0}"
    problems = checks.output_problems(loaded, "\n".join(lines).encode(), ref)
    assert any("optimum" in p for p in problems)


def test_inputs_depend_on_the_seed_only(tmp_path):
    made = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        given = inp.prepare("decode", seed, tmp_path / name)
        made.append((Path(given.argv[-1]).read_bytes(), given.config.read_bytes()))
    assert made[0] == made[1]
    assert made[0][0] != made[2][0] and made[0][1] != made[2][1]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(inp.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_the_union_of_children():
    # id, parent, name, start, end, attrs: two overlapping pool-thread children.
    spans = [
        [0, None, "cli.handler", 0.0, 10.0, None],
        [1, 0, "simulate.run_monte_carlo", 1.0, 9.0, None],
        [2, 1, "simulate.run_trial", 2.0, 6.0, None],
        [3, 1, "simulate.run_trial", 4.0, 8.0, None],
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["simulate.run_monte_carlo_self_s"] == pytest.approx(2.0)
    assert m["simulate.mc_parallelism"] == pytest.approx(1.0)
    assert m["simulate.run_trial_self_s"] == pytest.approx(8.0)
