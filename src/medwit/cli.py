"""Experiment runner CLI: descriptor tables, dephasing sweeps, staged-swap runs.

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
import sys
import time
from dataclasses import dataclass

from . import __version__
from .circuits import (
    SYMBOLIC_P,
    Circuit,
    ExperimentConfig,
    build_asymmetric,
    build_staged,
    build_symmetric,
    pattern_population,
    sample_patterns,
)
from .density import (
    basis_density,
    exhaustive_average,
    expectation,
    negativity,
    partial_trace,
    pseudo_pure,
    run_network_density,
    state_to_bytes,
    temporal_average,
    witness_observable,
)
from .detect import antiphase_amplitudes
from .heisenberg import (
    HeisenbergState,
    UnsupportedGateError,
    frame_observable,
    frames_to_dict,
    render_table,
    run_network_frames,
    witness_frames,
    nonclassicality_degree,
)
from .pauli import BasisState, expectation_basis, identity_component

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENGINE = 3

#: pattern-pair indices are drawn as int64, so a population must stay below this
SAMPLE_INDEX_LIMIT = 2 ** 63
#: pattern count of the sampled preview shown beside an exhaustive average
PREVIEW_PATTERNS = 16

AXES_CHOICES = {
    "xz-zx": (("x", "z"), ("z", "x")),
    "xx-zz": (("x", "x"), ("z", "z")),
}
DEFAULT_AXES_BY_NETWORK = {"symmetric": "xz-zx", "asymmetric": "xx-zz", "staged": "xx-zz"}
DEFAULT_BITS_BY_NETWORK = {"symmetric": "0000", "asymmetric": "0000", "staged": "1100"}

PROBE_1, PROBE_2 = 0, 3
MEDIATORS = (1, 2)


class ConfigError(Exception):
    """Invalid configuration (bad flag value, bad config file, bad combination)."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"network", "p", "epsilon", "initial_bits", "stages", "patterns", "seed", "axes"}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value
    except OSError as exc:
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
    """Grid spec: 'start:stop:step' (inclusive) or comma-separated values."""
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0:
                raise ValueError("step must be positive")
            count = round((stop - start) / step)
            grid = [start + i * step for i in range(count + 1)]
        else:
            grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad p-grid {text!r}: {exc}") from exc
    if not grid or any(not 0 <= p <= 1 for p in grid):
        raise ConfigError(f"p-grid values must lie in [0, 1], got {text!r}")
    return grid


def _parse_bits(text: str) -> BasisState:
    if not text or any(c not in "01" for c in text):
        raise ConfigError(f"--initial-bits must be a 0/1 string, got {text!r}")
    return BasisState.from_string(text)


def _parse_epsilon(value) -> float:
    try:
        eps = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"--epsilon must be a number in [0, 1], got {value!r}")
    if not 0 <= eps <= 1:
        raise ConfigError(f"--epsilon must lie in [0, 1], got {eps}")
    return eps


def _parse_patterns(text: str) -> tuple[str, int]:
    if text == "none":
        return "none", 0
    if text == "exhaustive":
        return "exhaustive", 0
    if text.startswith("sampled:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError:
            count = -1
        if count >= 1:
            return "sampled", count
    raise ConfigError(f"--patterns must be none, sampled:N or exhaustive, got {text!r}")


def _resolve(args, file_cfg: dict[str, str], key: str, fallback):
    """Precedence: explicit flag > config file > fallback default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return fallback


def _effective_config(args) -> ExperimentConfig:
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    network = _resolve(args, file_cfg, "network", "symmetric")
    if network not in ("symmetric", "asymmetric", "staged"):
        raise ConfigError(f"unknown network {network!r}")
    axes = _resolve(args, file_cfg, "axes", DEFAULT_AXES_BY_NETWORK[network])
    if axes not in AXES_CHOICES:
        raise ConfigError(f"--axes must be one of {sorted(AXES_CHOICES)}, got {axes!r}")
    bits = _resolve(args, file_cfg, "initial_bits", DEFAULT_BITS_BY_NETWORK[network])
    _parse_bits(bits)
    try:
        stages = int(_resolve(args, file_cfg, "stages", 8))
        seed = int(_resolve(args, file_cfg, "seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"stages and seed must be integers: {exc}") from exc
    if stages < 1:
        raise ConfigError(f"stages must be >= 1, got {stages}")
    patterns = _resolve(args, file_cfg, "patterns", "none")
    _parse_patterns(patterns)
    return ExperimentConfig(
        network=network,
        p=_parse_p(_resolve(args, file_cfg, "p", None)),
        epsilon=_parse_epsilon(_resolve(args, file_cfg, "epsilon", 1.0)),
        initial_bits=bits,
        stages=stages,
        patterns=patterns,
        seed=seed,
        axes=axes,
    )


def _build_network(cfg: ExperimentConfig) -> Circuit:
    if cfg.network == "symmetric":
        return build_symmetric(cfg.p)
    if cfg.p is not None:
        raise ConfigError(
            f"the {cfg.network} network takes no dephasing intensity; "
            "use the staged command's pattern modes instead"
        )
    if cfg.network == "asymmetric":
        return build_asymmetric()
    return build_staged(cfg.stages)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _dump_state(path: str, rho) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(state_to_bytes(rho))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _heisenberg_witness(frame, state: HeisenbergState, epsilon: float, axes) -> float:
    """Witness against a pseudo-pure reference: eps-scaled basis value plus
    the identity component that survives in the maximally mixed part."""
    (a1, a2), (b1, b2) = axes
    obs = frame_observable(frame, [(PROBE_1, a1), (PROBE_2, a2)]) + frame_observable(
        frame, [(PROBE_1, b1), (PROBE_2, b2)]
    )
    base = expectation_basis(state.basis, obs)
    mixed = identity_component(obs).real
    return epsilon * base + (1.0 - epsilon) * mixed


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    cfg = _effective_config(args)
    if cfg.network == "staged":
        raise UnsupportedGateError(
            "the staged network uses partial swaps, which the descriptor engine "
            "(Clifford-only) cannot track; run it with the staged command on the density engine"
        )
    circuit = _build_network(cfg)
    frames = run_network_frames(circuit)
    if args.format == "json":
        _emit(_json_text(frames_to_dict(frames)), args.out)
    else:
        _emit(render_table(frames) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    if cfg.network != "symmetric":
        raise ConfigError("sweep supports only the symmetric network (its builder takes p)")
    grid = _parse_grid(args.p_grid)
    axes = AXES_CHOICES[cfg.axes]
    bits = _parse_bits(cfg.initial_bits)
    state = HeisenbergState(bits)
    obs = witness_observable(4, PROBE_1, PROBE_2, axes)
    lines = ["p,witness_heisenberg,witness_density,negativity_AD,nonclassicality_B,nonclassicality_C"]
    for p in grid:
        circuit = build_symmetric(p)
        frame = run_network_frames(circuit)[-1]
        w_h = _heisenberg_witness(frame, state, cfg.epsilon, axes)
        nc = [nonclassicality_degree(frame, q) for q in MEDIATORS]
        final = run_network_density(circuit, pseudo_pure(cfg.epsilon, bits))[-1]
        w_d = expectation(final, obs)
        neg = negativity(partial_trace(final, [PROBE_1, PROBE_2]), [0])
        lines.append(",".join(_fmt(v) for v in (p, w_h, w_d, neg, nc[0], nc[1])))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _variant_report(rho, cfg: ExperimentConfig, axes) -> dict:
    obs = witness_observable(4, PROBE_1, PROBE_2, axes)
    return {
        "witness": {"axes": cfg.axes, "engine": "density", "value": expectation(rho, obs)},
        "negativity_AD": {
            "engine": "density",
            "value": negativity(partial_trace(rho, [PROBE_1, PROBE_2]), [0]),
        },
        "multiplet": {"engine": "density", **antiphase_amplitudes(rho, PROBE_1).to_dict()},
    }


def cmd_staged(args) -> int:
    if args.network is None:
        args.network = "staged"
    cfg = _effective_config(args)
    if cfg.network != "staged":
        raise ConfigError("the staged command runs the staged network only")
    if cfg.p is not None:
        raise ConfigError("the staged network models dephasing via --patterns, not --p")
    mode, count = _parse_patterns(cfg.patterns)
    if mode != "none":
        if cfg.stages % 2:
            raise ConfigError("balanced dephasing patterns need an even stage count")
        population = pattern_population(cfg.stages, balanced=True)
        if population >= SAMPLE_INDEX_LIMIT:
            raise ConfigError(
                f"--stages {cfg.stages} gives {population} balanced pattern pairs, beyond "
                "the 2**63 the seeded sampler can index; use at most 34 stages"
            )
        if mode == "exhaustive":
            count = min(PREVIEW_PATTERNS, population)
        elif count > population:
            raise ConfigError(
                f"sampled:{count} exceeds the pattern population {population} "
                f"for {cfg.stages} stages"
            )
    axes = AXES_CHOICES[cfg.axes]
    bits = _parse_bits(cfg.initial_bits)
    initial = pseudo_pure(cfg.epsilon, bits)
    started = time.perf_counter()

    undephased = run_network_density(build_staged(cfg.stages), initial)[-1]
    variants = {"undephased": _variant_report(undephased, cfg, axes)}
    dump_rho = undephased

    if mode != "none":
        patterns = sample_patterns(cfg.stages, count, balanced=True, seed=cfg.seed)
        averaged = temporal_average(lambda pat: build_staged(cfg.stages, pat), patterns, initial)
        variants["sampled"] = {
            **_variant_report(averaged, cfg, axes),
            "pattern_count": count,
            "seed": cfg.seed,
        }
        dump_rho = averaged
    if mode == "exhaustive":
        averaged = exhaustive_average(cfg.stages, initial)
        variants["exhaustive"] = {
            **_variant_report(averaged, cfg, axes),
            "pattern_count": population,
        }
        dump_rho = averaged

    report = {
        "version": __version__,
        "command": "staged",
        "config": cfg.to_dict(),
        "variants": variants,
    }
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - started
    if args.dump_state:
        _dump_state(args.dump_state, dump_rho)
    _emit(_json_text(report), args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    if cfg.patterns != "none":
        raise ConfigError(
            f"--patterns {cfg.patterns} is not supported by run, which evaluates the "
            "undephased network; use the staged command for pattern averages"
        )
    axes = AXES_CHOICES[cfg.axes]
    alt_name = next(name for name in AXES_CHOICES if name != cfg.axes)
    alt_axes = AXES_CHOICES[alt_name]
    bits = _parse_bits(cfg.initial_bits)
    circuit = _build_network(cfg)
    started = time.perf_counter()

    density_states = run_network_density(circuit, pseudo_pure(cfg.epsilon, bits))
    frames = None
    if cfg.network in ("symmetric", "asymmetric") and cfg.p != SYMBOLIC_P:
        frames = run_network_frames(circuit)
    state = HeisenbergState(bits)
    obs = witness_observable(4, PROBE_1, PROBE_2, axes)
    alt_obs = witness_observable(4, PROBE_1, PROBE_2, alt_axes)

    slices = []
    for t, rho in enumerate(density_states):
        entry: dict = {
            "time": t,
            "witness": {
                "axes": cfg.axes,
                "density": expectation(rho, obs),
                "heisenberg": None,
            },
            "witness_alt": {
                "axes": alt_name,
                "density": expectation(rho, alt_obs),
                "heisenberg": None,
            },
            "negativity_AD": {
                "engine": "density",
                "value": negativity(partial_trace(rho, [PROBE_1, PROBE_2]), [0]),
            },
            "nonclassicality": None,
        }
        if frames is not None:
            frame = frames[t]
            entry["witness"]["heisenberg"] = _heisenberg_witness(frame, state, cfg.epsilon, axes)
            entry["witness_alt"]["heisenberg"] = _heisenberg_witness(
                frame, state, cfg.epsilon, alt_axes
            )
            entry["nonclassicality"] = {
                "engine": "heisenberg",
                "B": nonclassicality_degree(frame, MEDIATORS[0]),
                "C": nonclassicality_degree(frame, MEDIATORS[1]),
            }
        slices.append(entry)

    notes = []
    if cfg.network in ("asymmetric", "staged"):
        notes.append(
            "the two complementary witness axes disagree on this network: the xx-zz pair "
            "attains magnitude 2 on the final state while xz-zx gives 0; both are reported"
        )
    report = {
        "version": __version__,
        "command": "run",
        "config": cfg.to_dict(),
        "engines": {"heisenberg": frames is not None, "density": True},
        "slices": slices,
        "multiplet": {
            "engine": "density",
            **antiphase_amplitudes(density_states[-1], PROBE_1).to_dict(),
        },
        "notes": notes,
    }
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - started
    if args.dump_state:
        _dump_state(args.dump_state, density_states[-1])
    if args.format == "text":
        lines = [f"medwit run v{__version__}: network={cfg.network} p={cfg.p} "
                 f"epsilon={cfg.epsilon} initial={cfg.initial_bits} seed={cfg.seed}"]
        for entry in slices:
            w = entry["witness"]
            lines.append(
                f"t{entry['time']}: witness[{w['axes']}] density={_fmt(w['density'])}"
                + (f" heisenberg={_fmt(w['heisenberg'])}" if w["heisenberg"] is not None else "")
                + f" negativity_AD={_fmt(entry['negativity_AD']['value'])}"
            )
        for note in notes:
            lines.append(f"note: {note}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *, stages: bool = False) -> None:
    sub.add_argument("--config", help="key = value config file; flags override file values")
    sub.add_argument("--network", choices=["symmetric", "asymmetric", "staged"])
    sub.add_argument("--p", help="dephasing intensity in [0, 1], or 'symbolic'")
    sub.add_argument("--epsilon", help="pseudo-pure purity fraction in [0, 1] (default 1)")
    sub.add_argument("--initial-bits", dest="initial_bits", help="initial basis state, e.g. 0000")
    sub.add_argument("--axes", choices=sorted(AXES_CHOICES), help="witness axes pair")
    sub.add_argument("--seed", help="RNG seed recorded in every report (default 0)")
    if stages:
        sub.add_argument("--stages", help="partial-swap stages per link (default 8)")
        sub.add_argument(
            "--patterns",
            help=(
                "dephasing pattern mode: none, sampled:N, or exhaustive (the exact "
                "average over all balanced pattern pairs, by dynamic programming; "
                "staged command only, at most 34 stages)"
            ),
        )
    sub.add_argument("--out", help="write output to this path instead of stdout")


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
    )
    parser.add_argument("--version", action="version", version=f"medwit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_table = subs.add_parser("table", help="print a descriptor table for a network")
    _add_common(p_table)
    p_table.add_argument("--format", choices=["text", "json"], default="text")
    p_table.set_defaults(func=cmd_table)

    p_sweep = subs.add_parser("sweep", help="sweep the dephasing intensity, emit CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--p-grid", dest="p_grid", default="0:0.5:0.05",
                         help="grid as start:stop:step or comma list (default 0:0.5:0.05)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_staged = subs.add_parser("staged", help="staged-swap run with dephasing patterns")
    _add_common(p_staged, stages=True)
    p_staged.add_argument("--dump-state", dest="dump_state", help="write final state bytes here")
    p_staged.add_argument("--timing", action="store_true",
                          help="include wall-clock timing in the report (non-deterministic)")
    p_staged.set_defaults(func=cmd_staged)

    p_run = subs.add_parser("run", help="run one network end to end, emit a full report")
    _add_common(p_run, stages=True)
    p_run.add_argument("--format", choices=["json", "text"], default="json")
    p_run.add_argument("--dump-state", dest="dump_state", help="write final state bytes here")
    p_run.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report (non-deterministic)")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"medwit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedGateError, ValueError, TypeError) as exc:
        print(f"medwit: engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


def run() -> None:
    raise SystemExit(main())
