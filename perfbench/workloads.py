"""The benchmark's workloads: medwit command lines, work units and output checks.

Each workload is a list of CLI argument vectors run in order as one round.
Every check returns None when the output is right and a short reason when
it is not; a failed check counts against the invocation like a nonzero exit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

#: pinned constants of tests/test_staged_dephasing.py, checked at PIN_TOL
EXH_WITNESS_XX_ZZ = -0.064970495727871336
EXH_NEGATIVITY_AD = 0.00022950494902373997
PIN_TOL = 1e-12
#: largest allowed gap between the two engines on the same witness
ENGINE_TOL = 1e-12

SWEEP_FINE_GRID = "0:0.5:0.0005"
SWEEP_FINE_POINTS = 1001
SWEEP_DEFAULT_POINTS = 11
SAMPLED_DEEP = 1000


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_staged_exhaustive(stdout: str) -> str | None:
    report = _json(stdout)
    if report is None:
        return "stdout is not JSON"
    variant = report["variants"].get("exhaustive")
    if variant is None or variant["pattern_count"] != 4900:
        return "no 4900-pattern exhaustive variant"
    if abs(variant["witness"]["value"] - EXH_WITNESS_XX_ZZ) > PIN_TOL:
        return f"exhaustive witness {variant['witness']['value']!r} is off the pin"
    if abs(variant["negativity_AD"]["value"] - EXH_NEGATIVITY_AD) > PIN_TOL:
        return f"exhaustive negativity {variant['negativity_AD']['value']!r} is off the pin"
    return None


def check_staged(stdout: str, seed: int, variant: str, count: int) -> str | None:
    report = _json(stdout)
    if report is None:
        return "stdout is not JSON"
    if report["config"]["seed"] != seed:
        return "report does not carry the seed"
    if count == 0:
        return None if set(report["variants"]) == {"undephased"} else "unexpected variants"
    body = report["variants"].get(variant)
    if body is None or body["pattern_count"] != count:
        return f"no {count}-pattern {variant} variant"
    witness, neg = body["witness"]["value"], body["negativity_AD"]["value"]
    if not (math.isfinite(witness) and abs(witness) <= 2 + ENGINE_TOL):
        return f"witness {witness!r} outside [-2, 2]"
    if not 0 <= neg <= 0.5 + ENGINE_TOL:
        return f"negativity {neg!r} outside [0, 1/2]"
    return None


def check_sweep(stdout: str, points: int) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("p,witness_heisenberg,witness_density"):
        return "missing sweep header"
    rows = lines[1:]
    if len(rows) != points:
        return f"{len(rows)} sweep rows, expected {points}"
    for row in rows:
        p, w_h, w_d = (float(v) for v in row.split(",")[:3])
        if abs(w_h - w_d) > ENGINE_TOL:
            return f"engines disagree by {abs(w_h - w_d):.3g} at p={p}"
    return None


def check_run_json(stdout: str) -> str | None:
    report = _json(stdout)
    if report is None:
        return "stdout is not JSON"
    if not report["slices"]:
        return "no slices"
    for entry in report["slices"]:
        for key in ("witness", "witness_alt"):
            w = entry[key]
            if w["heisenberg"] is not None and abs(w["heisenberg"] - w["density"]) > ENGINE_TOL:
                return f"engines disagree on {key} at t{entry['time']}"
    return None


def check_run_text(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("medwit run"):
        return "missing run header"
    if not any(line.startswith("t3: witness") for line in lines):
        return "missing final slice"
    return None


def check_table_text(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != 5 or "Qubit A" not in lines[0]:
        return "table is not a header plus four time rows"
    return None


def check_table_json(stdout: str) -> str | None:
    report = _json(stdout)
    if report is None:
        return "stdout is not JSON"
    return None if len(report["slices"]) == 4 else "table JSON does not have four slices"


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Callable[[str, int], str | None]

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    #: what one round completes, for the work_per_ref metric
    work_unit: str
    work_per_round: int
    commands: tuple[Command, ...]


def _staged(stages: int, patterns: str | None, variant: str, count: int) -> Command:
    args = ("staged", "--stages", str(stages)) + (("--patterns", patterns) if patterns else ())
    return Command(args, lambda out, seed: check_staged(out, seed, variant, count))


CLI_MIX = (
    Command(("table",), lambda out, seed: check_table_text(out)),
    Command(("table", "--p", "symbolic"), lambda out, seed: check_table_text(out)),
    Command(("table", "--network", "asymmetric", "--format", "json"),
            lambda out, seed: check_table_json(out)),
    Command(("run",), lambda out, seed: check_run_json(out)),
    Command(("run", "--network", "asymmetric"), lambda out, seed: check_run_json(out)),
    Command(("run", "--p", "0.1"), lambda out, seed: check_run_json(out)),
    Command(("run", "--network", "staged", "--format", "text"),
            lambda out, seed: check_run_text(out)),
    Command(("sweep",), lambda out, seed: check_sweep(out, SWEEP_DEFAULT_POINTS)),
    _staged(8, None, "undephased", 0),
    _staged(8, "sampled:16", "sampled", 16),
    # the only command that enters circuits.exhaustive_patterns outside staged-exhaustive
    _staged(4, "exhaustive", "exhaustive", 36),
)

#: why each workload is here is recorded in BENCHMARK.json under its name
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "staged-exhaustive",
            "patterns", 4900,
            (Command(("staged", "--stages", "8", "--patterns", "exhaustive"),
                     lambda out, seed: check_staged_exhaustive(out)),),
        ),
        Workload(
            "staged-sampled-deep",
            "patterns", SAMPLED_DEEP,
            (_staged(24, f"sampled:{SAMPLED_DEEP}", "sampled", SAMPLED_DEEP),),
        ),
        Workload(
            "sweep-fine",
            "points", SWEEP_FINE_POINTS,
            (Command(("sweep", "--p-grid", SWEEP_FINE_GRID),
                     lambda out, seed: check_sweep(out, SWEEP_FINE_POINTS)),),
        ),
        Workload(
            "cli-mix",
            "commands", len(CLI_MIX),
            CLI_MIX,
        ),
    )
}

#: which end-to-end metric, on which workloads, each per-layer metric should move
LAYER_MAP = {
    "staged": {
        "moves": "work_per_ref (patterns averaged per reference unit)",
        "workloads": ["staged-exhaustive", "staged-sampled-deep"],
        "metrics": [
            "circuits.build_staged.calls", "circuits.build_staged.self_s",
            "circuits.build_staged.gates", "circuits.exhaustive_patterns.self_s",
            "circuits.sample_patterns.self_s", "density.temporal_average.calls",
            "density.temporal_average.self_s", "density.temporal_average.patterns",
            "density.temporal_average.s_per_pattern", "density.gate_unitary.calls",
            "density.gate_unitary.self_s",
        ],
    },
    "report": {
        "moves": "work_per_ref (sweep points per reference unit)",
        "workloads": ["sweep-fine"],
        "metrics": [
            f"{name}.{kind}"
            for name in (
                "density.run_network_density", "density.expectation", "density.negativity",
                "density.partial_trace", "pauli.PauliSum.__mul__", "pauli.PauliSum.dense",
                "pauli.operator_norm", "pauli.expectation_basis",
                "heisenberg.run_network_frames", "heisenberg.apply_gate_frame",
                "heisenberg.apply_dephasing_frame", "heisenberg.nonclassicality_degree",
                "heisenberg.frame_observable",
            )
            for kind in ("calls", "self_s")
        ] + ["heisenberg.descriptor_terms_max"],
    },
    "startup": {
        "moves": "work_per_ref (commands per reference unit) and setup_s",
        "workloads": ["cli-mix"],
        "metrics": [
            "cli.main.self_s", "cli.build_parser.self_s", "detect.antiphase_amplitudes.calls",
            "detect.antiphase_amplitudes.self_s", "density.apply_gate.calls",
            "density.apply_gate.self_s", "heisenberg.render_table.self_s",
            "heisenberg.frames_to_dict.self_s",
        ],
    },
    "tracing": {
        "moves": "none; traced over untraced in-process time for the same argv",
        "workloads": ["staged-exhaustive", "staged-sampled-deep", "sweep-fine", "cli-mix"],
        "metrics": ["trace.overhead_ratio"],
    },
}

PER_LAYER = [name for group in LAYER_MAP.values() for name in group["metrics"]]
