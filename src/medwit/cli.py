"""Experiment runner CLI: descriptor tables, dephasing sweeps, staged-swap runs.

Every command runs one pipeline.  ``COMMAND_KEYS`` names the config keys each
command reads: the parser registers a flag for each, the config-file reader
accepts no other key, and any other flag or key is exit 2 naming it.
``_effective_config`` resolves each value (a flag over the config file over
the default) and validates the values and their combinations once, into
one frozen ``ExperimentConfig``: its fields are the report's ``config``, and
the input state and the sample size derive from them.  ``_build_network``
builds the circuit, and each command runs the engines it reports: ``run``
and ``sweep`` both, since the descriptor engine steps every gate of every
built-in network, partial swaps included; ``staged`` the density engine
alone, as its pattern averages have no descriptor counterpart; ``table``
the descriptor engine alone.  One
observation layer serves every command, both engines evaluating the one
witness ``pauli.witness_observable``: ``_density_values`` reads the
witnesses and negativity_AD off a ``DensityMatrix``, one stack of states,
``detect.antiphase_amplitudes`` the multiplet off such a stack, and
``_descriptor_values`` the witnesses and the mediators' nonclassicality off
a frame, at each dephasing intensity.  ``run`` reads its stack of slices
(the multiplet off the final slice, a stack of one), ``staged`` its
variants' final states in one stack for both reads, and ``sweep`` each
stack of grid points: its network depends on p only through two phase
flips, so it is built once with a symbolic intensity, evolved a stack of
points at a time (``density.run_intensity_grid``) and read off one symbolic
final frame, with CSV byte-identical to one circuit per point.  A ``cmd_*``
only picks what to observe and formats it, and ``_execute`` handles
--timing, --dump-state and the output for all of them.

Every stochastic result carries its seed, every number is attributed to the
"heisenberg" or "density" engine, and identical config plus seed produces
byte-identical CSV/JSON output (timing is only included on request, since it
is the one inherently non-deterministic report field).

``staged --patterns exhaustive`` reports the exact average over every balanced
pattern pair, computed by dynamic programming rather than by enumeration.
Both pattern modes also draw a seeded sample, whose int64 index range bounds
them at 34 stages.

Exit codes: 0 success, 2 configuration error, 3 engine error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .circuits import (
    SYMBOLIC_P,
    A,
    B,
    C,
    D,
    Circuit,
    build_asymmetric,
    build_staged,
    build_symmetric,
    pattern_population,
    sample_patterns,
)
from .density import (
    DensityMatrix,
    exhaustive_average,
    expectation,
    negativity,
    partial_trace,
    pseudo_pure,
    run_intensity_grid,
    run_network_density,
    state_to_bytes,
    temporal_average,
)
from .detect import antiphase_amplitudes
from .heisenberg import (
    DescriptorFrame,
    descriptor_commutator,
    frames_to_dict,
    observable_image,
    pseudo_pure_expectation,
    render_table,
    run_network_frames,
    substitute,
)
from .pauli import BasisState, operator_norm, witness_observable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENGINE = 3

#: pattern-pair indices are drawn as int64, so a population must stay below this
SAMPLE_INDEX_LIMIT = 2 ** 63
#: pattern count of the sampled preview shown beside an exhaustive average
PREVIEW_PATTERNS = 16
#: a witness or negativity within this of 0 is reported as 0
ZERO_TOL = 1e-10
#: largest --p-grid point count; a finer grid is a config error, not a run
#: that asks for unbounded memory
MAX_GRID_POINTS = 10 ** 6

AXES_CHOICES = {
    "xz-zx": (("x", "z"), ("z", "x")),
    "xx-zz": (("x", "x"), ("z", "z")),
}
DEFAULT_AXES_BY_NETWORK = {"symmetric": "xz-zx", "asymmetric": "xx-zz", "staged": "xx-zz"}
DEFAULT_BITS_BY_NETWORK = {"symmetric": "0000", "asymmetric": "0000", "staged": "1100"}

#: every built-in network acts on the four-qubit chain A-B-C-D
CHAIN_QUBITS = 4
PROBE_1, PROBE_2 = A, D
MEDIATORS = (B, C)
WITNESSES = {
    name: witness_observable(CHAIN_QUBITS, PROBE_1, PROBE_2, axes)
    for name, axes in AXES_CHOICES.items()
}


class ConfigError(Exception):
    """Invalid configuration (bad flag value, bad config file, bad combination)."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

NETWORKS = ("symmetric", "asymmetric", "staged")

#: the config keys each command reads, and the network it runs when neither a
#: flag nor the config file names one.  The parser registers a flag for these
#: keys alone and the config-file reader accepts these keys alone, so any other
#: is an error naming it.  table and sweep keep seed, which neither uses nor
#: records, because perfbench's cli-mix passes --seed to every command it runs.
COMMAND_KEYS = {
    "table": (("network", "p", "seed"), "symmetric"),
    "sweep": (("epsilon", "initial_bits", "axes", "seed"), "symmetric"),
    "staged": (("epsilon", "initial_bits", "axes", "stages", "patterns", "seed"), "staged"),
    "run": (("network", "p", "epsilon", "initial_bits", "axes", "stages", "seed"), "symmetric"),
}

#: each key's flag: its choices and a help text true on every command that reads it
KEY_FLAGS = {
    "network": {"choices": NETWORKS, "help": "built-in network (default symmetric)"},
    "p": {"help": "dephasing intensity of the symmetric network in [0, 1]; "
                  "table also takes 'symbolic'"},
    "epsilon": {"help": "pseudo-pure purity fraction in [0, 1] (default 1)"},
    "initial_bits": {"help": "initial basis state, e.g. 0000"},
    "axes": {"choices": sorted(AXES_CHOICES), "help": "witness axes pair"},
    "stages": {"help": "partial-swap stages per link of the staged network (default 8)"},
    "patterns": {"help": "dephasing pattern mode: none (default), sampled:N, or exhaustive "
                         "(the exact average over all balanced pattern pairs, by dynamic "
                         "programming); both averaging modes take at most 34 stages"},
    "seed": {"help": "seed of the sampled dephasing patterns (default 0); staged and run "
                     "record it in their reports, table and sweep accept it unused"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one validated experiment run.  Its fields are the
    config keys and the report's ``config``; each command reads a subset of
    them (``COMMAND_KEYS``), and ``_effective_config`` resolves the rest to
    the command's defaults.  The input state and the sample size derive
    from the fields."""

    network: str
    p: float | str | None
    epsilon: float
    initial_bits: str
    stages: int
    patterns: str  # none | sampled:N | exhaustive
    seed: int
    axes: str  # xz-zx | xx-zz

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def basis(self) -> BasisState:
        """Basis state of the pseudo-pure input."""
        return BasisState.from_string(self.initial_bits)

    @property
    def initial(self) -> DensityMatrix:
        return pseudo_pure(self.epsilon, self.basis)

    @property
    def count(self) -> int:
        """Patterns in the seeded sample: N of sampled:N, the preview beside
        an exhaustive average, 0 for none."""
        if self.patterns == "exhaustive":
            return min(PREVIEW_PATTERNS, pattern_population(self.stages))
        return int(self.patterns.partition(":")[2] or 0)


def _load_config_file(path: str, command: str) -> dict[str, str]:
    """The file's key = value pairs; a key the command does not read, or one
    set twice, is an error naming it and its lines."""
    keys = COMMAND_KEYS[command][0]
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in keys:
                    raise ConfigError(f"{path}:{lineno}: config key {key!r} does not apply to "
                                      f"{command}, which reads {', '.join(keys)}")
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: config key {key!r} is set again, "
                                      f"first on line {first_line[key]}")
                first_line[key] = lineno
                values[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_p(text):
    if text is None:
        return None
    if text == SYMBOLIC_P:
        return SYMBOLIC_P
    try:
        p = float(text)
    except ValueError:
        raise ConfigError(f"--p must be a number in [0, 1] or 'symbolic', got {text!r}")
    if not 0 <= p <= 1:
        raise ConfigError(f"--p must lie in [0, 1], got {p}")
    return p


def _parse_grid(text: str) -> list[float]:
    """Grid spec: 'start:stop:step' (inclusive) or comma-separated values, of
    at most ``MAX_GRID_POINTS`` points, counted before any list is built."""
    try:
        if ":" in text:
            fields = text.split(":")
            if len(fields) != 3:
                raise ConfigError(f"--p-grid range {text!r} needs three fields "
                                  f"start:stop:step, got {len(fields)}")
            start, stop, step = map(float, fields)
            if not step > 0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError(f"stop {stop} is below start {start}")
            if not 0 <= start <= stop <= 1:
                raise ConfigError(f"--p-grid values must lie in [0, 1], got {text!r}")
            # floor, so no point passes stop; the slack keeps a stop that
            # lies on the grid up to rounding (0.5 / 0.0005) as its last point
            steps = (stop - start) / step + 1e-9
            # a subnormal step overflows the count to inf, which floor rejects
            count = steps if math.isinf(steps) else math.floor(steps) + 1
            _check_grid_size(text, count)
            grid = [start + i * step for i in range(count)]
        else:
            values = [v for v in text.split(",") if v.strip()]
            _check_grid_size(text, len(values))
            grid = [float(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"bad --p-grid {text!r}: {exc}") from exc
    if not grid:
        raise ConfigError(f"--p-grid {text!r} gives no points")
    if any(not 0 <= p <= 1 for p in grid):
        raise ConfigError(f"--p-grid values must lie in [0, 1], got {text!r}")
    return grid


def _check_grid_size(text: str, points: int | float) -> None:
    if points > MAX_GRID_POINTS:
        raise ConfigError(
            f"--p-grid {text!r} gives {points} points, above the limit of {MAX_GRID_POINTS}"
        )


def _parse_bits(text: str) -> str:
    if not text or any(c not in "01" for c in text):
        raise ConfigError(f"--initial-bits must be a 0/1 string, got {text!r}")
    if len(text) != CHAIN_QUBITS:
        raise ConfigError(
            f"--initial-bits must give {CHAIN_QUBITS} bits, one per chain qubit, got {text!r}"
        )
    return text


def _parse_epsilon(value) -> float:
    try:
        eps = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"--epsilon must be a number in [0, 1], got {value!r}")
    if not 0 <= eps <= 1:
        raise ConfigError(f"--epsilon must lie in [0, 1], got {eps}")
    return eps


def _parse_int(value, flag: str, least: int) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"{flag} must be an integer, got {value!r}") from None
    if number < least:
        raise ConfigError(f"{flag} must be an integer >= {least}, got {number}")
    return number


def _parse_patterns(text: str) -> str:
    if text in ("none", "exhaustive"):
        return text
    if text.startswith("sampled:"):
        try:
            if int(text.partition(":")[2]) >= 1:
                return text
        except ValueError:
            pass
    raise ConfigError(f"--patterns must be none, sampled:N or exhaustive, got {text!r}")


def _effective_config(args) -> ExperimentConfig:
    """Resolve every value, a flag over the config file over the default,
    validate it, then validate the combinations of values.  The parser and
    ``_load_config_file`` admit only the keys the command reads
    (``COMMAND_KEYS``); any other key resolves to its default."""
    keys, network = COMMAND_KEYS[args.command]
    given = _load_config_file(args.config, args.command) if args.config else {}
    given.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    network = given.get("network", network)
    if network not in NETWORKS:
        raise ConfigError(f"unknown network {network!r}")
    values = {"p": None, "epsilon": 1.0, "initial_bits": DEFAULT_BITS_BY_NETWORK[network],
              "stages": 8, "patterns": "none", "seed": 0,
              "axes": DEFAULT_AXES_BY_NETWORK[network], **given}
    if values["axes"] not in AXES_CHOICES:
        raise ConfigError(f"--axes must be one of {sorted(AXES_CHOICES)}, got {values['axes']!r}")
    # validated in the order of the keywords
    cfg = ExperimentConfig(
        network=network,
        axes=values["axes"],
        initial_bits=_parse_bits(values["initial_bits"]),
        stages=_parse_int(values["stages"], "--stages", 1),
        seed=_parse_int(values["seed"], "--seed", 0),
        patterns=_parse_patterns(values["patterns"]),
        p=_parse_p(values["p"]),
        epsilon=_parse_epsilon(values["epsilon"]),
    )
    if cfg.p is not None and cfg.network != "symmetric":
        raise ConfigError(
            f"--p {cfg.p} applies to the symmetric network only; the {cfg.network} network "
            "takes no dephasing intensity (the staged command models dephasing via --patterns)"
        )
    if args.command == "table" and cfg.network == "staged":
        raise ConfigError(
            "--network staged does not apply to table: table takes no --stages, and "
            "the partial swaps' descriptors carry rounded weights that its 12-digit "
            "rendering would show as exact; run --network staged reports the "
            "descriptor engine's witness and nonclassicality for it"
        )
    if args.command == "run":
        if cfg.network != "staged" and "stages" in given:
            raise ConfigError(
                f"--stages applies to the staged network only; the {cfg.network} network "
                "has no partial swaps (got it from the flag or the config file)"
            )
        if cfg.p == SYMBOLIC_P:
            raise ConfigError(
                "--p symbolic is for the table command; run evaluates both engines "
                "numerically, so --p must be a number in [0, 1]"
            )
        if args.timing and args.format == "text":
            raise ConfigError(
                "--timing adds a field to the JSON report; it cannot be combined "
                "with --format text"
            )
    if cfg.patterns != "none":
        if cfg.stages % 2:
            raise ConfigError("balanced dephasing patterns need an even stage count")
        population = pattern_population(cfg.stages)
        if population >= SAMPLE_INDEX_LIMIT:
            raise ConfigError(
                f"--stages {cfg.stages} gives {population} balanced pattern pairs, beyond "
                "the 2**63 the seeded sampler can index; use at most 34 stages"
            )
        if cfg.count > population:
            raise ConfigError(
                f"sampled:{cfg.count} exceeds the pattern population {population} "
                f"for {cfg.stages} stages"
            )
    return cfg


# ---------------------------------------------------------------------------
# pipeline: circuit, engines, observables
# ---------------------------------------------------------------------------

def _build_network(cfg: ExperimentConfig) -> Circuit:
    if cfg.network == "symmetric":
        return build_symmetric(cfg.p)
    if cfg.network == "asymmetric":
        return build_asymmetric()
    return build_staged(cfg.stages)


def _density_values(states: DensityMatrix, axes_names: Sequence[str]) -> list[tuple[dict, float]]:
    """Per state of the stack: the witness for each named axes pair, and
    negativity_AD."""
    witnesses = [expectation(states, WITNESSES[name]).tolist() for name in axes_names]
    negs = negativity(partial_trace(states, [PROBE_1, PROBE_2]), [0]).tolist()
    return [(dict(zip(axes_names, values)), neg) for *values, neg in zip(*witnesses, negs)]


def _descriptor_values(
    cfg: ExperimentConfig, frame: DescriptorFrame, axes_names: Sequence[str], intensities=(None,)
) -> Iterator[tuple[dict, dict]]:
    """Per dephasing intensity in turn: the witness for each named axes pair,
    and the mediators' nonclassicality by label.  The witness images and the
    mediator commutators are taken off the frame once; a symbolic frame is
    read at each intensity by ``substitute``, a numeric one at intensity None."""
    taken = [observable_image(frame, WITNESSES[name]) for name in axes_names]
    taken += [descriptor_commutator(frame, q) for q in MEDIATORS]
    basis = cfg.basis
    for p in intensities:
        *images, c_b, c_c = taken if p is None else [substitute(obj, p) for obj in taken]
        witness = {name: pseudo_pure_expectation(image, basis, cfg.epsilon)
                   for name, image in zip(axes_names, images)}
        yield witness, {"B": operator_norm(c_b), "C": operator_norm(c_c)}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _final_slice_notes(entry: dict) -> list[str]:
    """Both witnesses and the negativity on the final slice, and which witness
    misses entanglement there: one that reads 0 while the negativity is above 0."""
    witnesses = (entry["witness"], entry["witness_alt"])
    neg = entry["negativity_AD"]["value"]

    def shown(value: float) -> str:
        return f"{0.0 if abs(value) <= ZERO_TOL else value:.6g}"

    notes = [
        "final slice: "
        + ", ".join(f"witness {w['axes']} = {shown(w['density'])}" for w in witnesses)
        + f", negativity_AD = {shown(neg)}"
    ]
    if neg > ZERO_TOL:
        notes += [
            f"the {w['axes']} witness reads 0 while negativity_AD is {shown(neg)}, "
            "so it misses the A-D entanglement"
            for w in witnesses
            if abs(w["density"]) <= ZERO_TOL
        ]
    return notes


# ---------------------------------------------------------------------------
# commands: each returns (a JSON report dict or finished text, the final state)
# ---------------------------------------------------------------------------

def cmd_table(cfg: ExperimentConfig, args):
    frames = run_network_frames(_build_network(cfg))
    if args.format == "json":
        return frames_to_dict(frames), None
    return render_table(frames) + "\n", None


def cmd_sweep(cfg: ExperimentConfig, args):
    axes = cfg.axes
    grid = _parse_grid(args.p_grid)
    circuit = build_symmetric(SYMBOLIC_P)
    density = (
        values
        for states in run_intensity_grid(circuit, cfg.initial, grid)
        for values in _density_values(states, [axes])
    )
    heisenberg = _descriptor_values(cfg, run_network_frames(circuit)[-1], [axes], grid)
    lines = ["p,witness_heisenberg,witness_density,negativity_AD,nonclassicality_B,nonclassicality_C"]
    for p, (w_density, neg), (w_heisenberg, nc) in zip(grid, density, heisenberg):
        row = (p, w_heisenberg[axes], w_density[axes], neg, nc["B"], nc["C"])
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n", None


def cmd_staged(cfg: ExperimentConfig, args):
    states = run_network_density(_build_network(cfg), cfg.initial)
    finals = [("undephased", states[-1], {})]
    if cfg.patterns != "none":
        patterns = sample_patterns(cfg.stages, cfg.count, seed=cfg.seed)
        finals.append(("sampled", temporal_average(cfg.stages, patterns, cfg.initial),
                       {"pattern_count": cfg.count, "seed": cfg.seed}))
    if cfg.patterns == "exhaustive":
        finals.append(("exhaustive", exhaustive_average(cfg.stages, cfg.initial),
                       {"pattern_count": pattern_population(cfg.stages)}))
    stack = DensityMatrix(np.concatenate([rho.entries for _, rho, _ in finals]))
    density = _density_values(stack, [cfg.axes])
    multiplets = antiphase_amplitudes(stack, PROBE_1)
    variants = {
        name: {
            "witness": {"axes": cfg.axes, "engine": "density", "value": witness[cfg.axes]},
            "negativity_AD": {"engine": "density", "value": neg},
            "multiplet": {"engine": "density", **multiplet},
            **extra,
        }
        for (name, _, extra), (witness, neg), multiplet in zip(finals, density, multiplets)
    }
    report = {"version": __version__, "command": "staged", "config": cfg.to_dict()}
    return {**report, "variants": variants}, finals[-1][1]


def cmd_run(cfg: ExperimentConfig, args):
    names = [cfg.axes, next(name for name in AXES_CHOICES if name != cfg.axes)]
    circuit = _build_network(cfg)
    states = run_network_density(circuit, cfg.initial)
    slices = []
    for frame, (w_density, neg) in zip(run_network_frames(circuit),
                                       _density_values(states, names)):
        w_heisenberg, nc = next(_descriptor_values(cfg, frame, names))
        witness = [{"axes": name, "density": w_density[name], "heisenberg": w_heisenberg[name]}
                   for name in names]
        slices.append({
            "time": frame.time_index,
            "witness": witness[0],
            "witness_alt": witness[1],
            "negativity_AD": {"engine": "density", "value": neg},
            "nonclassicality": {"engine": "heisenberg", **nc},
        })
    report = {
        "version": __version__,
        "command": "run",
        "config": cfg.to_dict(),
        # both engines run on every network; the constant keeps the report's layout
        "engines": {"heisenberg": True, "density": True},
        "slices": slices,
        "multiplet": {"engine": "density", **antiphase_amplitudes(states[-1], PROBE_1)[0]},
        "notes": _final_slice_notes(slices[-1]),
    }
    if args.format == "json":
        return report, states[-1]
    lines = [f"medwit run v{__version__}: network={cfg.network} p={cfg.p} "
             f"epsilon={cfg.epsilon} initial={cfg.initial_bits} seed={cfg.seed}"]
    for entry in slices:
        w = entry["witness"]
        lines.append(
            f"t{entry['time']}: witness[{w['axes']}] density={_fmt(w['density'])}"
            f" heisenberg={_fmt(w['heisenberg'])}"
            f" negativity_AD={_fmt(entry['negativity_AD']['value'])}"
        )
    lines += [f"note: {note}" for note in report["notes"]]
    return "\n".join(lines) + "\n", states[-1]


def _execute(args) -> int:
    """Config, then the command, then the steps every command shares: the
    --timing field, the --dump-state file and the output."""
    cfg = _effective_config(args)
    started = time.perf_counter()
    output, final = args.func(cfg, args)
    if isinstance(output, dict):
        if getattr(args, "timing", False):
            output["timing_seconds"] = time.perf_counter() - started
        output = json.dumps(output, indent=2, sort_keys=True) + "\n"
    if getattr(args, "dump_state", None):
        _write(args.dump_state, state_to_bytes(final))
    if args.out:
        _write(args.out, output.encode("utf-8"))
    else:
        sys.stdout.write(output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _add_common(subs, command: str, func, summary: str) -> argparse.ArgumentParser:
    """The command's subparser: --config, a flag for each config key the
    command reads, and --out.  No flag is expanded from an abbreviation, which
    would read ``sweep --p`` as --p-grid."""
    sub = subs.add_parser(command, help=summary, allow_abbrev=False)
    sub.set_defaults(func=func)
    sub.add_argument("--config", help="key = value config file; flags override file values")
    for key in COMMAND_KEYS[command][0]:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, **KEY_FLAGS[key])
    sub.add_argument("--out", help="write output to this path instead of stdout")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medwit",
        description=(
            "Simulate mediated-entanglement witness experiments on a four-qubit chain: "
            "descriptor tables, dephasing-degradation sweeps and staged-swap runs."
        ),
        epilog=(
            "Engine attribution: witness columns/fields are tagged heisenberg/density; "
            "negativity and multiplet reports come from the density engine, "
            "nonclassicality degrees from the descriptor engine. "
            "--dump-state writes the final density matrix as row-major little-endian "
            "float64 (re, im) pairs, 16*4^n bytes."
        ),
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"medwit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_table = _add_common(subs, "table", cmd_table, "print a descriptor table for a network")
    p_table.add_argument("--format", choices=["text", "json"], default="text")
    p_sweep = _add_common(subs, "sweep", cmd_sweep, "sweep the dephasing intensity, emit CSV")
    p_sweep.add_argument("--p-grid", dest="p_grid", default="0:0.5:0.05",
                         help=("grid as start:stop:step or comma list, at most "
                               f"{MAX_GRID_POINTS} points (default 0:0.5:0.05)"))
    p_staged = _add_common(subs, "staged", cmd_staged, "staged-swap run with dephasing patterns")
    p_run = _add_common(subs, "run", cmd_run, "run one network end to end, emit a full report")
    p_run.add_argument("--format", choices=["json", "text"], default="json")
    for sub in (p_staged, p_run):
        sub.add_argument("--dump-state", dest="dump_state", help="write final state bytes here")
        sub.add_argument("--timing", action="store_true",
                         help="include wall-clock timing in the JSON report (non-deterministic)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _execute(args)
    except ConfigError as exc:
        print(f"medwit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        print(f"medwit: engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


def run() -> None:
    raise SystemExit(main())
