"""Repeat the benchmark over seeds and report each metric's quartile spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--baseline perfbench/baseline.json]

For every workload, runs ``run.py`` once per seed with BENCHMARK.json's
``run_seconds`` and prints, per metric, the median of the runs and the
distance between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.
``--baseline`` also writes every run, the quartiles and the environment
(git SHA, Python, NumPy, nproc) to the given JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
#: run.py repeats its timings in plain seconds on a line with this prefix
SECONDS_PREFIX = "seconds: "


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def _environment() -> dict:
    def output(argv):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    numpy_version = output([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    return {
        "git_sha": output(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = str(bench["run_seconds"])
    report: dict = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            elapsed = time.perf_counter() - started
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith(SECONDS_PREFIX):
                    result["seconds"] = json.loads(line[len(SECONDS_PREFIX):])
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        columns = {name: (body["unit"], [run["metrics"][name]["value"] for run in runs])
                   for name, body in runs[0]["metrics"].items()}
        if "seconds" in runs[0]:
            for name, value in runs[0]["seconds"].items():
                unit = "1/s" if name.endswith("per_s") else "count" if name == "invocations" else "s"
                columns[f"seconds.{name}"] = (unit, [run["seconds"][name] for run in runs])
        for name, (unit, values) in columns.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                             "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER A THIRD" if spread > bound / 3 else "")
            print(f"  {name:42s} median {median:.6g} {unit:6s} spread {spread:.3f}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}

    if args.baseline:
        report["environment"] = _environment()
        args.baseline.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
