"""gridhmm benchmark: times the real CLI on seeded inputs and checks every output.

    python3 bench/run.py --workload {montecarlo,decode,simulate,all} \
        --seed N --seconds S --trace {0,1}

Each CLI call is ``python -m gridhmm ...`` with ``src`` on PYTHONPATH, in
its own process; its stdout goes through a pipe into a SHA-256 hash here,
never to a file.  A run first sets up: it writes the seeded inputs,
runs ``gridhmm emission`` several times (``setup_s``), and runs the
workload once untimed, streaming that output into ``checks.py`` for the
schema, row-count and statistical checks and comparing its digest with
the golden one (and, for montecarlo, with a ``--threads 1`` run).  Then
it repeats the workload for ``--seconds`` and requires every repeat to
hash the same as the checked run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with runs under ``tracing.py`` and reports the per-layer
metrics.  The last line of stdout is one JSON object; the exit code is 1
when any CLI run failed or any check did not pass.

This process imports only the standard library and leaves input
generation and checking to helper processes: Linux counts a parent's
peak RSS at fork time into its child's, so a large benchmark process
would hide the CLI's own ``peak_rss_mb``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = json.loads((BENCH / "golden.json").read_text())

WORKLOADS = ("montecarlo", "decode", "simulate")
SETUP_SAMPLES = 7  # emission runs per benchmark run; setup_s is their median
MIN_SAMPLES = 3  # timed repeats even when --seconds is short
CHUNK = 1 << 16

END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "viterbi.viterbi_decode_s": "s",
    "viterbi.decode_calls": "count",
    "viterbi.steps_per_s": "1/s",
    "viterbi.computed_bytes": "B",
    "viterbi.corrected_share": "ratio",
    "simulate.simulate_states_s": "s",
    "simulate.emit_symbols_s": "s",
    "simulate.run_trial_self_s": "s",
    "simulate.run_monte_carlo_self_s": "s",
    "simulate.mc_parallelism": "ratio",
    "model.require_valid_calls": "count",
    "model.require_valid_s": "s",
    "gaussian.rng_streams": "count",
    "gaussian.sample_gaussian_s": "s",
    "config.parse_config_s": "s",
    "config.load_measurements_s": "s",
    "config.load_rows_per_s": "1/s",
    "detector.classify_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_share": "ratio",
}


@dataclass
class Sample:
    """One finished CLI process."""

    wall: float
    rss_mb: float
    code: int
    digest: str
    nbytes: int
    stdout: bytes  # kept only when asked for
    stderr: str


@dataclass
class Prepared:
    """A workload's generated inputs, as ``inputs.py`` describes them."""

    workload: str
    work: Path
    argv: list[str]
    config: str
    steps: int


class Runner:
    """Starts CLI processes and counts the runs attempted and failed."""

    def __init__(self, work: Path) -> None:
        self.work = work
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        self.attempted = 0
        self.failed = 0

    def helper(self, script: str, *args: str, stdin=None) -> subprocess.Popen:
        """Start one of the benchmark's own scripts; its stdout is a pipe."""
        return subprocess.Popen(
            [sys.executable, str(BENCH / script), *args],
            stdin=stdin,
            stdout=subprocess.PIPE,
            env=self.env,
        )

    def run(self, argv: list[str], *, keep=False, sink=None, metrics: Path | None = None) -> Sample:
        """Run the CLI once, hashing its stdout; ``sink`` gets a copy of the stream."""
        if metrics is None:
            cmd = [sys.executable, "-m", "gridhmm", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(metrics), *argv]
        digest = hashlib.sha256()
        kept: list[bytes] = []
        nbytes = 0
        with open(self.work / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=self.env
            )
            try:
                while chunk := proc.stdout.read(CHUNK):
                    digest.update(chunk)
                    nbytes += len(chunk)
                    if keep:
                        kept.append(chunk)
                    if sink is not None:
                        try:
                            sink.write(chunk)
                        except BrokenPipeError:
                            sink = None
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return Sample(
            wall=wall,
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            code=proc.returncode,
            digest=digest.hexdigest(),
            nbytes=nbytes,
            stdout=b"".join(kept),
            stderr=stderr,
        )

    def record(self, sample: Sample, problems: list[str]) -> None:
        """Count one CLI run; it fails on a non-zero exit or any problem."""
        if sample.code != 0:
            tail = sample.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {sample.code}: {tail[0]}"] + problems
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)

    def prepare(self, workload: str, seed: int) -> Prepared:
        work = self.work / workload
        work.mkdir()
        helper = self.helper("inputs.py", workload, str(seed), str(work))
        out, _ = helper.communicate()
        if helper.returncode != 0:
            raise RuntimeError(f"inputs.py failed for {workload} (exit {helper.returncode})")
        made = json.loads(out)
        return Prepared(workload, work, made["argv"], made["config"], made["steps"])

    def check_output(self, given: Prepared) -> tuple[Sample, list[str]]:
        """Run the workload once, streaming its stdout into ``checks.py``."""
        checker = self.helper(
            "checks.py", given.workload, str(given.work), str(given.steps), stdin=subprocess.PIPE
        )
        try:
            sample = self.run(given.argv, sink=checker.stdin)
        finally:
            try:
                checker.stdin.close()
            except BrokenPipeError:
                pass
            out = checker.stdout.read()
            checker.stdout.close()
            checker.wait()
        if checker.returncode != 0:
            return sample, [f"checks.py exited with code {checker.returncode}"]
        return sample, json.loads(out)


def golden_problems(kind: str, seed: int, digest: str) -> list[str]:
    """Compare a digest with the one recorded for this output and seed, if any."""
    expected = GOLDEN["emission"] if kind == "emission" else GOLDEN["outputs"][kind].get(str(seed))
    if expected is None or expected == digest:
        return []
    return [f"{kind}: sha256 {digest[:16]}... differs from golden {expected[:16]}..."]


def machine() -> dict:
    """The hardware and software a result was measured on."""

    def read(path: str, prefix: str = "") -> str:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": read("/proc/cpuinfo", "model name"),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def with_threads(argv: list[str], threads: int) -> list[str]:
    i = argv.index("--threads")
    return argv[: i + 1] + [str(threads)] + argv[i + 2 :]


def prelude(runner: Runner, given: Prepared, seed: int) -> tuple[list[float], str]:
    """Set up and check; returns the emission walls and the checked output's digest."""
    setup_argv = ["emission", "--config", given.config]
    setup: list[Sample] = []
    for _ in range(SETUP_SAMPLES):
        s = runner.run(setup_argv, keep=not setup)
        problems = golden_problems("emission", seed, s.digest)
        if setup and s.digest != setup[0].digest:
            problems.append("emission output changed between runs")
        runner.record(s, problems)
        setup.append(s)
    (given.work / "emission.out").write_bytes(setup[0].stdout)
    (given.work / "emission.err").write_text(setup[0].stderr)

    checked, problems = runner.check_output(given)
    runner.record(checked, golden_problems(given.workload, seed, checked.digest) + problems)
    if given.workload == "montecarlo":
        single = runner.run(with_threads(given.argv, 1))
        same = single.digest == checked.digest
        runner.record(single, [] if same else ["montecarlo: --threads 1 and 2 outputs differ"])
    return [s.wall for s in setup], checked.digest


def repeat(runner: Runner, given: Prepared, digest: str, **kwargs) -> Sample:
    s = runner.run(given.argv, **kwargs)
    runner.record(s, [] if s.digest == digest else ["output differs from the checked run"])
    return s


def measure(runner: Runner, given: Prepared, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    setup, digest = prelude(runner, given, seed)
    samples: list[Sample] = []
    end = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < end:
        samples.append(repeat(runner, given, digest))
    wall = statistics.median(s.wall for s in samples)
    return {
        "wall_s": wall,
        "steps_per_s": given.steps / wall,
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setup),
        "samples": len(samples),
    }


def measure_layers(runner: Runner, given: Prepared, seed: int, seconds: float) -> dict:
    """Per-layer metrics of one workload from traced runs, alternating with untraced ones."""
    _, digest = prelude(runner, given, seed)
    metrics_file = given.work / "layers.json"
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    end = time.perf_counter() + seconds
    while len(traced) < MIN_SAMPLES or time.perf_counter() < end:
        plain.append(repeat(runner, given, digest).wall)
        metrics_file.unlink(missing_ok=True)
        t = repeat(runner, given, digest, metrics=metrics_file)
        traced.append(t.wall)
        if t.code == 0:
            layers.append({**json.loads(metrics_file.read_text()), "cli.output_bytes": t.nbytes})
    # median_low keeps counts whole: every value is one traced run's.
    names = layers[0] if layers else {}
    out = {name: statistics.median_low(m[name] for m in layers) for name in names}
    base = statistics.median(plain)
    out["trace.overhead_share"] = (statistics.median(traced) - base) / base
    out["samples"] = len(traced)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "gridhmm" / "cli.py").is_file():
        print(f"error: no gridhmm sources under {SRC}", file=sys.stderr)
        return 2

    units, measure_one = (PER_LAYER, measure_layers) if args.trace else (END_TO_END, measure)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"machine: {json.dumps(machine())}")
    values: dict[str, tuple[float, str]] = {}
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        for workload in workloads:
            given = runner.prepare(workload, args.seed)
            result = measure_one(runner, given, args.seed, args.seconds)
            print(f"{workload:10s} {'samples':32s} {result.pop('samples')} timed runs")
            for name, unit in units.items():
                if name in result:
                    print(f"{workload:10s} {name:32s} {result[name]:.6g} {unit}")
                    key = name if len(workloads) == 1 else f"{workload}.{name}"
                    values[key] = (result[name], unit)
    error_rate = runner.failed / runner.attempted
    print(f"{'all':10s} {'error_rate':32s} {error_rate:.6g} ({runner.failed} of {runner.attempted} runs)")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
            }
        )
    )
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
