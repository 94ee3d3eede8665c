"""medwit benchmark: run one workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy.

``--trace 0`` starts the medwit CLI as a subprocess, one invocation at a
time, for at least ``--seconds`` seconds of whole rounds, and reports the
end-to-end metrics.  Their times are in units of reference_job.py, which
runs before and after every round: the speed of a shared host drifts by
more than any useful bound, and the ratio cancels most of that drift.
``setup_s``, the median time of ``import medwit`` (one before every round),
is measured the same way and converted back to seconds at the speed of the
host where the baseline was taken.  The plain wall-clock timings are
printed on the line before the result.

``--trace 1`` runs the same argument vectors in-process through
``medwit.cli.main``, alternating untraced and traced repetitions, and
reports the per-layer metrics from the tracer.  Every invocation's output
is checked; a failed check counts like a nonzero exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from tracer import COUNT_NAMES, Tracer
from workloads import CLI_MIX, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_JOB = Path(__file__).resolve().parent / "reference_job.py"
#: prefix of the line that repeats the end-to-end timings in plain seconds
SECONDS_PREFIX = "seconds: "

#: the reference job's median wall time on the 2-core shared Xeon where
#: perfbench/baseline.json was taken; setup_s is import time in units of the
#: reference job, converted to seconds at that host's speed
REFERENCE_NOMINAL_S = 0.6
#: no run may outlast this, whatever --seconds asks for
RUN_LIMIT_S = 170.0
#: tail percentiles tried for the summary line, highest first
TAIL_PERCENTILES = (99, 95, 90, 75)


class Checker:
    """Applies each command's check and the same-argv byte-identity rule."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[tuple[str, ...], str] = {}

    def record(self, command, argv: list[str], code: int, stdout: str) -> None:
        self.attempted += 1
        reason = None
        if code != 0:
            reason = f"exit code {code}"
        else:
            try:
                reason = command.check(stdout, self.seed)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                reason = f"malformed output: {exc!r}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self._digests.setdefault(tuple(argv), digest)
        if reason is None and first != digest:
            reason = "stdout differs from an earlier invocation of the same argv"
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)


class Child(NamedTuple):
    code: int
    stdout: str
    wall: float
    cpu: float
    rss_mb: float


def _child(argv: list[str], deadline: float) -> Child:
    """Run one child to completion, killing it at the deadline.

    CPU time and peak RSS come from the child's own rusage, so they count
    that child alone.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    killer = threading.Timer(max(1.0, deadline - started), proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, stdout.decode(errors="replace"), wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
    )


def _reference(deadline: float) -> tuple[float, float]:
    """Run the reference job once; return its wall time and CPU time."""
    done = _child([str(REFERENCE_JOB)], deadline)
    if done.code != 0:
        raise SystemExit(f"perfbench: {REFERENCE_JOB.name} exited with {done.code}")
    return done.wall, done.cpu


def _tail(samples: list[float]) -> str:
    """The highest tail percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(len(ordered) * pct / 100)
        if len(ordered) - rank >= 10:
            return f" p{pct}={ordered[rank - 1]:.4f}s"
    return " (too few samples for a tail percentile)"


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics from subprocess invocations of the CLI."""
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    done = _child(["-c", "import medwit; print(medwit.__file__)"], hard_deadline)
    if done.code != 0 or Path(done.stdout.strip()).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: medwit does not import from {SRC}")

    checker = Checker(seed)
    _reference(hard_deadline)  # warm-up
    refs = [_reference(hard_deadline)]
    imports: list[float] = []
    peak_rss_mb = 0.0
    rounds: list[list[tuple[float, float]]] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        imports.append(_child(["-c", "import medwit"], hard_deadline).wall)
        samples = []
        for command in workload.commands:
            argv = command.argv(seed)
            done = _child(["-m", "medwit", *argv], hard_deadline)
            checker.record(command, argv, done.code, done.stdout)
            samples.append((done.wall, done.cpu))
            peak_rss_mb = max(peak_rss_mb, done.rss_mb)
        rounds.append(samples)
        refs.append(_reference(hard_deadline))
        if time.perf_counter() >= hard_deadline:
            break

    # each round, and the import before it, in units of the mean of the two
    # reference jobs around them
    wall_refs, cpu_refs, round_refs, import_refs = [], [], [], []
    for samples, imported, (wall_a, cpu_a), (wall_b, cpu_b) in zip(
        rounds, imports, refs, refs[1:]
    ):
        ref_wall, ref_cpu = (wall_a + wall_b) / 2, (cpu_a + cpu_b) / 2
        wall_refs += [wall / ref_wall for wall, _ in samples]
        cpu_refs += [cpu / ref_cpu for _, cpu in samples]
        round_refs.append(sum(wall for wall, _ in samples) / ref_wall)
        import_refs.append(imported / ref_wall)
    walls = [wall for samples in rounds for wall, _ in samples]
    seconds_line = {
        "invocations": len(walls),
        "wall_s_p50": statistics.median(walls),
        "cpu_s_p50": statistics.median(cpu for samples in rounds for _, cpu in samples),
        "work_per_s": len(rounds) * workload.work_per_round / sum(walls),
        "setup_s": statistics.median(imports),
        "reference_s_p50": statistics.median(wall for wall, _ in refs),
    }
    print(f"{workload.name}: {len(rounds)} rounds, wall p50="
          f"{seconds_line['wall_s_p50']:.4f}s{_tail(walls)}, "
          f"{seconds_line['work_per_s']:.1f} {workload.work_unit}/s")
    print(SECONDS_PREFIX + json.dumps(seconds_line))
    metrics = {
        "wall_ref_p50": (statistics.median(wall_refs), "ref"),
        "cpu_ref_p50": (statistics.median(cpu_refs), "ref"),
        "work_per_ref": (len(rounds) * workload.work_per_round / sum(round_refs), "1/ref"),
        "setup_s": (statistics.median(import_refs) * REFERENCE_NOMINAL_S, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }
    return _result(checker, metrics)


def _run_in_process(main, commands, checker: Checker) -> None:
    for command in commands:
        argv = command.argv(checker.seed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        checker.record(command, argv, code, out.getvalue())


def trace(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics from traced in-process runs of the workload's argv.

    Workloads other than cli-mix append one cli-mix pass, so that every
    layer named in BENCHMARK.json is entered on every workload.
    """
    sys.path.insert(0, str(SRC))
    import medwit.cli

    if Path(medwit.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: medwit does not import from {SRC}")
    commands = workload.commands if workload.name == "cli-mix" else workload.commands + CLI_MIX
    checker = Checker(seed)
    # warm-up fills medwit's unitary cache, so both sides below find it full
    _run_in_process(medwit.cli.main, commands, checker)

    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    tracer = None
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        # alternate which side of the pair runs first
        order = (True, False) if len(layers) % 2 == 0 else (False, True)
        for traced_side in order:
            started = time.perf_counter()
            if traced_side:
                with Tracer() as tracer:
                    _run_in_process(medwit.cli.main, commands, checker)
                traced.append(time.perf_counter() - started)
                layers.append(_layer_metrics(tracer))
            else:
                _run_in_process(medwit.cli.main, commands, checker)
                untraced.append(time.perf_counter() - started)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
    print(
        f"{workload.name}: {len(layers)} traced and {len(untraced)} untraced repetitions "
        f"of {len(commands)} commands; spans in {OUT_DIR.name}/spans-{workload.name}.jsonl"
    )
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        unit = _unit(name)
        # counts repeat exactly, so the low median keeps them whole numbers
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (middle(rep[name] for rep in layers), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    return _result(checker, metrics)


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    summary = tracer.summary()
    values: dict[str, float] = {}
    for name, entry in summary.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    for name in COUNT_NAMES:
        values[name] = tracer.counts[name]
    average = summary["density.temporal_average"]
    values["density.temporal_average.s_per_pattern"] = (
        average["total_s"] / tracer.counts["density.temporal_average.patterns"]
    )
    return values


def _unit(name: str) -> str:
    return "s" if name.endswith((".self_s", ".s_per_pattern")) else "count"


def _result(checker: Checker, metrics: dict[str, tuple[float, str]]) -> dict:
    for failure in checker.failures[:10]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "medwit" / "__init__.py").is_file():
        print(f"perfbench: no medwit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    print(json.dumps(run(workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
