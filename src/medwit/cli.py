"""Experiment runner CLI: descriptor tables, dephasing sweeps, staged-swap runs.

Every command runs one pipeline.  ``CONFIG_KEYS`` declares each config key
once: the commands that read it, the networks it applies to, its reader,
its default and its flag.  A command's parser and config-file reader admit
the keys it reads, and any other flag or key is exit 2 naming it.
``_effective_config`` resolves each value (a flag over the config file over
the default) and validates the values and their combinations once, into
one frozen ``ExperimentConfig``.  A report's ``config`` echoes the keys its
command reads that apply on its network, so as a config file it replays
the run.  ``_build_network`` builds the circuit, and each command imports,
in the function that runs it, and runs the engines it reports: ``run`` and
``sweep`` both, since the descriptor engine steps every gate of every
built-in network, partial swaps included; ``staged`` the density engine
alone, as its pattern averages have no descriptor counterpart; ``table``
the descriptor engine alone; ``run`` and ``staged`` also ``detect``.  Of
the package, this module imports only ``circuits`` and ``pauli`` up front,
so a config error loads no engine.  Of the standard library it imports up
front only what every command runs through (``argparse``, ``math``, ``os``,
``re``, ``sys``, ``functools``, ``itertools`` and ``typing``); ``json``
loads in ``_execute`` when a command returns a JSON report, so ``sweep``,
the text reports and a config error never load it.  Both engines evaluate
the one witness ``pauli.witness_observable``: ``_density_values`` reads the
witnesses and negativity_AD off a ``DensityMatrix``, one stack of states,
``detect.antiphase_amplitudes`` the multiplet off such a stack, and
``_descriptor_values`` the witnesses and the mediators' nonclassicality off
a frame, as numpy arrays along an array of dephasing intensities p.  Each
network is one circuit at every p, which the engines take when they
evaluate it; with no --p they read p = 0, the undephased network.  ``run``
reads its stack of slices (the multiplet off the final slice, a stack of
one) and each slice's frame at its p, ``staged`` its variants' final states
in one stack for both reads, and ``table`` the frames
``heisenberg.substitute`` gives at p, or with --p symbolic the frames
themselves.  ``sweep`` reads its final frame's columns once at the whole
grid, and its density columns off the final slice's states per flip count
(``density.flip_count_states``), checked once: each point's witness is the
Bernstein mix (``density.bernstein_mix``) of theirs, and its negativity_AD
is read off the mix of their A-D reduced states, a chunk of points at a
time.  These columns agree with one circuit per point to rounding, and
byte for byte at p = 0 and p = 1.  A ``cmd_*`` only picks what to observe
and formats it, and ``_execute`` handles --dump-state and the output for
all of them, once it has refused two of --config, --out and --dump-state
that name one file.

``sweep`` streams its CSV: the header, then each chunk's rows, written
before the next chunk is computed, so it holds one chunk and the grid's
columns, never the CSV.  It opens --out before any grid work, so a path it
cannot write is exit 2 before any point is computed; and an engine error on
a later chunk is exit 3 after the header and the whole rows of the chunks
before it, with no part of a row, on stdout or in the --out file.

Every stochastic result carries its seed, every number is attributed to the
"heisenberg" or "density" engine, and every output is a function of its
config and seed alone: the same config and seed give the same bytes on
stdout, in the --out file and in the --dump-state file.

``staged --patterns exhaustive`` reports the exact average over every balanced
pattern pair, computed by dynamic programming rather than by enumeration.
Both pattern modes also draw a seeded sample, whose indices are unranked as
int64, which bounds both modes at 34 stages.  Every size the CLI accepts is
bounded before any work starts: --stages by ``MAX_STAGES``, sampled:N by
``MAX_SAMPLED_PATTERNS`` and --p-grid by ``MAX_GRID_POINTS``.  A --stages
or --seed too long for ``int`` is named by that limit or by its digit
count, and no error echoes more than ``ECHO_CHARS`` characters of a value.

Exit codes: 0 success, 2 configuration error, 3 engine error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, _Record
from .circuits import (
    A,
    B,
    C,
    D,
    SAMPLE_INDEX_LIMIT,
    Circuit,
    build_asymmetric,
    build_staged,
    build_symmetric,
    pattern_population,
    sample_patterns,
)
from .pauli import BasisState, qubit_label, witness_observable

if TYPE_CHECKING:
    from .density import DensityMatrix
    from .heisenberg import DescriptorFrame

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENGINE = 3

#: pattern count of the sampled preview shown beside an exhaustive average
PREVIEW_PATTERNS = 16
#: a witness or negativity within this of 0 is reported as 0
ZERO_TOL = 1e-10
#: grid points per chunk of the sweep: each chunk's mixed A-D reduced states
#: pass the constructor as one stack and take one ``negativity`` call, and
#: its rows are written before the next chunk is mixed
SWEEP_CHUNK = 256
#: largest --p-grid point count; a finer grid is a config error, not a run
#: that asks for unbounded memory.  The sweep writes its rows a chunk at a
#: time, so at this limit it peaks at 154 MB RSS, the grid and its
#: descriptor columns, and takes about 7 s on a shared 2-core host
MAX_GRID_POINTS = 10 ** 6
#: largest --stages: run's descriptor walk takes about 3 s there
MAX_STAGES = 1000
#: largest N of --patterns sampled:N: at 34 stages the command takes about
#: 1 s and 88 MB peak RSS on a shared 2-core host
MAX_SAMPLED_PATTERNS = 10 ** 5
#: the --p value with which table renders the formal factor (1 - 2p)
SYMBOLIC_P = "symbolic"
#: characters of a value that an error echoes at most
ECHO_CHARS = 40

AXES_CHOICES = {
    "xz-zx": (("x", "z"), ("z", "x")),
    "xx-zz": (("x", "x"), ("z", "z")),
}

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


class ExperimentConfig(_Record):
    """One validated experiment run: a field per config key, those the
    command does not read at their defaults."""

    __slots__ = ("network", "p", "epsilon", "initial_bits", "stages", "patterns", "seed", "axes")

    def __init__(self, network: str, p: float | str | None, epsilon: float, initial_bits: str,
                 stages: int, patterns: str, seed: int, axes: str):
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "initial_bits", initial_bits)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "patterns", patterns)  # none | sampled:N | exhaustive
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "axes", axes)  # xz-zx | xx-zz

    def to_dict(self, command: str) -> dict:
        """The report's ``config``: the keys ``command`` reads that apply on
        the network, leaving out p where none was given."""
        return {key: getattr(self, key) for key, commands, networks, *_ in CONFIG_KEYS
                if command in commands and self.network in networks
                and getattr(self, key) is not None}

    @property
    def basis(self) -> BasisState:
        """Basis state of the pseudo-pure input."""
        return BasisState.from_string(self.initial_bits)

    @property
    def initial(self) -> DensityMatrix:
        from .density import pseudo_pure
        return pseudo_pure(self.epsilon, self.basis)

    @property
    def intensity(self) -> float | str:
        """The p the engines read: 0, the undephased network, if none is given."""
        return 0.0 if self.p is None else self.p

    @property
    def count(self) -> int:
        """Patterns in the seeded sample: N of sampled:N, the preview beside
        an exhaustive average, 0 for none."""
        if self.patterns == "exhaustive":
            return min(PREVIEW_PATTERNS, pattern_population(self.stages))
        return int(self.patterns.partition(":")[2] or 0)


def _reads(command: str) -> list[str]:
    """The config keys ``command`` reads, in ``CONFIG_KEYS`` order."""
    return [key for key, commands, *_ in CONFIG_KEYS if command in commands]


def _load_config_file(path: str, command: str) -> dict[str, str]:
    """The file's key = value pairs; a key ``command`` does not read, or one
    set twice, is an error naming it and its lines.  Every error names the
    path once, through ``_shown``."""
    keys, shown = _reads(command), _shown(path)
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{shown}:{lineno}: expected 'key = value', "
                                      f"got {_shown(repr(raw.rstrip()))}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in keys:
                    raise ConfigError(f"{shown}:{lineno}: config key {_shown(repr(key))} does not "
                                      f"apply to {command}, which reads {', '.join(keys)}")
                if key in first_line:
                    raise ConfigError(f"{shown}:{lineno}: config key {key!r} is set again, "
                                      f"first on line {first_line[key]}")
                first_line[key] = lineno
                values[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text repeats the path; a decode error names none
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"cannot read config file {shown}: {reason}") from exc
    return values


def _shown(text: str) -> str:
    """``text`` as a config error echoes it: cut after ``ECHO_CHARS``
    characters, then followed by its length."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _parse_unit(value, flag: str, expected: str = "a number in [0, 1]") -> float:
    """``value`` read as a float in [0, 1]; an error names ``flag`` and what
    it takes."""
    try:
        number = float(value) or 0.0  # -0 reads as 0, the one spelling the report echoes
    except (TypeError, ValueError):
        raise ConfigError(f"{flag} must be {expected}, got {_shown(repr(value))}") from None
    if not 0 <= number <= 1:
        raise ConfigError(f"{flag} must lie in [0, 1], got {number}")
    return number


def _parse_choice(value: str, flag: str, choices: Sequence[str]) -> str:
    if value not in choices:
        raise ConfigError(f"{flag} must be one of {list(choices)}, got {_shown(repr(value))}")
    return value


def _parse_p(text):
    if text is None or text == SYMBOLIC_P:
        return text
    return _parse_unit(text, "--p", "a number in [0, 1] or 'symbolic'")


def _grid_value(field: str) -> float:
    """A --p-grid number; ``float``'s error, with the field cut as ``_shown`` cuts it."""
    try:
        return float(field)
    except ValueError:
        raise ValueError(f"could not convert string to float: {_shown(repr(field))}") from None


def _parse_grid(text: str) -> list[float]:
    """Grid spec: 'start:stop:step' (inclusive) or comma-separated values, of
    at most ``MAX_GRID_POINTS`` points, counted before any list is built."""
    shown = _shown(repr(text))
    try:
        if ":" in text:
            fields = text.split(":")
            if len(fields) != 3:
                raise ConfigError(f"--p-grid range {shown} needs three fields "
                                  f"start:stop:step, got {len(fields)}")
            start, stop, step = map(_grid_value, fields)
            if not step > 0:
                raise ValueError("step must be positive")
            if math.isinf(step):
                raise ValueError("step must be finite")
            if stop < start:
                raise ValueError(f"stop {stop} is below start {start}")
            if not 0 <= start <= stop <= 1:
                raise ConfigError(f"--p-grid values must lie in [0, 1], got {shown}")
            # floor, with slack that keeps a stop on the grid up to rounding
            # (0.5 / 0.0005) as the last point, which the grid clamps to stop
            steps = (stop - start) / step + 1e-9
            # a subnormal step overflows the count to inf, which floor rejects
            count = steps if math.isinf(steps) else math.floor(steps) + 1
        else:
            values = [v for v in text.split(",") if v.strip()]
            count = len(values)
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"--p-grid {shown} gives {_shown(str(count))} points, above the "
                              f"limit of {MAX_GRID_POINTS}")
        grid = ([min(start + i * step, stop) for i in range(count)] if ":" in text
                else [_grid_value(v) or 0.0 for v in values])  # -0 reads as 0, as in _parse_unit
    except ValueError as exc:
        raise ConfigError(f"bad --p-grid {shown}: {exc}") from exc
    if not grid:
        raise ConfigError(f"--p-grid {shown} gives no points")
    if any(not 0 <= p <= 1 for p in grid):
        raise ConfigError(f"--p-grid values must lie in [0, 1], got {shown}")
    return grid


def _parse_bits(text: str) -> str:
    if not text or any(c not in "01" for c in text):
        raise ConfigError(f"--initial-bits must be a 0/1 string, got {_shown(repr(text))}")
    if len(text) != CHAIN_QUBITS:
        raise ConfigError(
            f"--initial-bits must give {CHAIN_QUBITS} bits, one per chain qubit, "
            f"got {_shown(repr(text))}"
        )
    return text


#: an integer as ``int`` spells it: sign, then digits of any script with
#: single underscores between them
_INTEGER = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")


def _parse_int(value, flag: str, least: int, most: int | None = None) -> int:
    """The integer ``value`` spells, as ``int`` reads it, from ``least`` to
    ``most``.  A value of ASCII digits is compared with ``most`` by its
    digit count first, as ``_parse_patterns`` does, so one too long for
    ``int`` is still named above the limit; any other value with more
    digits than ``sys.get_int_max_str_digits()`` allows is named by its
    digit count, since neither ``int`` nor the JSON report could spell it."""
    text = str(value)
    spelled = _INTEGER.fullmatch(text)
    sign, digits = (spelled[1], spelled[2].replace("_", "")) if spelled else ("", "")
    if (most is not None and sign != "-" and digits.isascii()
            and len(digits.lstrip("0")) > len(str(most))):
        raise ConfigError(f"{flag} {_shown(text.strip())} is above the limit of {most}")
    try:
        number = int(text)
    except ValueError:
        if spelled:  # int refuses a well-spelled integer for its length alone
            raise ConfigError(f"{flag} has {len(digits)} digits, more than the "
                              f"{sys.get_int_max_str_digits()} that "
                              "sys.get_int_max_str_digits() allows") from None
        raise ConfigError(f"{flag} must be an integer, got {_shown(repr(value))}") from None
    if number < least:
        raise ConfigError(f"{flag} must be an integer >= {least}, got {_shown(str(number))}")
    if most is not None and number > most:
        raise ConfigError(f"{flag} {_shown(str(number))} is above the limit of {most}")
    return number


def _parse_patterns(text: str) -> str:
    """The pattern mode, spelt one way only, since the report echoes it: N of
    sampled:N is ASCII digits with no leading zero, N at most
    ``MAX_SAMPLED_PATTERNS``, compared before a long N is read as an int."""
    if text in ("none", "exhaustive"):
        return text
    if re.fullmatch("sampled:[1-9][0-9]*", text):
        count = text.partition(":")[2]
        if len(count) > len(str(MAX_SAMPLED_PATTERNS)) or int(count) > MAX_SAMPLED_PATTERNS:
            raise ConfigError(f"--patterns {_shown(text)} is above the limit of "
                              f"{MAX_SAMPLED_PATTERNS} patterns")
        return text
    raise ConfigError(f"--patterns must be none, sampled:N with N a positive integer in "
                      f"ASCII digits and no leading zero, or exhaustive, got {_shown(repr(text))}")


#: every config key, in the order its value is validated: the commands that
#: read it, the networks it applies to, its reader, its default (per network
#: where a dict) and its flag's add_argument keywords.  Only staged draws
#: samples: table, sweep and run read seed unused, because perfbench's
#: cli-mix passes --seed to every command, and run echoes it in its report.
CONFIG_KEYS = (
    ("network", ("table", "run"), NETWORKS,
     partial(_parse_choice, flag="--network", choices=NETWORKS), "symmetric",
     {"choices": NETWORKS, "help": "built-in network (default symmetric)"}),
    ("axes", ("sweep", "staged", "run"), NETWORKS,
     partial(_parse_choice, flag="--axes", choices=sorted(AXES_CHOICES)),
     {"symmetric": "xz-zx", "asymmetric": "xx-zz", "staged": "xx-zz"},
     {"choices": sorted(AXES_CHOICES), "help": "witness axes pair"}),
    ("initial_bits", ("sweep", "staged", "run"), NETWORKS, _parse_bits,
     {"symmetric": "0000", "asymmetric": "0000", "staged": "1100"},
     {"help": "initial basis state, e.g. 0000"}),
    ("stages", ("staged", "run"), ("staged",),
     partial(_parse_int, flag="--stages", least=1, most=MAX_STAGES), 8,
     {"help": f"partial-swap stages per link of the staged network, at most {MAX_STAGES} "
              "(default 8)"}),
    ("seed", ("table", "sweep", "staged", "run"), NETWORKS,
     partial(_parse_int, flag="--seed", least=0), 0,
     {"help": "seed of the sampled dephasing patterns (default 0); only staged draws "
              "samples: run records the seed in its report unused, and table and sweep "
              "accept it unused"}),
    ("patterns", ("staged",), ("staged",), _parse_patterns, "none",
     {"help": "dephasing pattern mode: none (default), sampled:N with N at most "
              f"{MAX_SAMPLED_PATTERNS}, or exhaustive (the exact average over all balanced "
              "pattern pairs, by dynamic programming); both averaging modes take at most "
              "34 stages"}),
    ("p", ("table", "run"), ("symmetric",), _parse_p, None,
     {"help": "dephasing intensity of the symmetric network in [0, 1]; table also takes "
              "'symbolic'"}),
    ("epsilon", ("sweep", "staged", "run"), NETWORKS, partial(_parse_unit, flag="--epsilon"),
     1.0, {"help": "pseudo-pure purity fraction in [0, 1] (default 1)"}),
)


def _effective_config(args) -> ExperimentConfig:
    """Resolve each value of ``CONFIG_KEYS``, a flag over the config file
    over the default, and validate it in the table's order; then validate
    the combinations of values.  staged runs the staged network."""
    given = {"network": "staged"} if args.command == "staged" else {}
    if args.config:
        given.update(_load_config_file(args.config, args.command))
    given.update((key, getattr(args, key)) for key in _reads(args.command)
                 if getattr(args, key) is not None)
    values = {}
    for key, _, _, read, default, _ in CONFIG_KEYS:
        values[key] = read(given.get(key, default[values["network"]]
                                     if isinstance(default, dict) else default))
    cfg = ExperimentConfig(**values)
    for key, _, networks, *_ in CONFIG_KEYS:
        if key in given and cfg.network not in networks:
            raise ConfigError(f"--{key} applies to the {' or '.join(networks)} network only, "
                              f"not to the {cfg.network} network (got --{key} {values[key]})")
    if args.command == "table" and cfg.network == "staged":
        raise ConfigError(
            "--network staged does not apply to table: table takes no --stages, and "
            "the partial swaps' descriptors carry rounded weights that its 12-digit "
            "rendering would show as exact; run --network staged reports the "
            "descriptor engine's witness and nonclassicality for it"
        )
    if args.command == "run" and cfg.p == SYMBOLIC_P:
        raise ConfigError(
            "--p symbolic is for the table command; run evaluates both engines "
            "numerically, so --p must be a number in [0, 1]"
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
        return build_symmetric()
    if cfg.network == "asymmetric":
        return build_asymmetric()
    return build_staged(cfg.stages)


def _density_values(states: DensityMatrix, axes_names: Sequence[str]) -> list[tuple[dict, float]]:
    """Per state of the stack: the witness for each named axes pair, and
    negativity_AD."""
    from .density import expectation, negativity, partial_trace
    witnesses = [expectation(states, WITNESSES[name]).tolist() for name in axes_names]
    negs = negativity(partial_trace(states, [PROBE_1, PROBE_2]), [0]).tolist()
    return [(dict(zip(axes_names, values)), neg) for *values, neg in zip(*witnesses, negs)]


def _descriptor_values(
    cfg: ExperimentConfig, frame: DescriptorFrame, axes_names: Sequence[str], p: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Columns along the array of intensities p: the witness for each named
    axes pair, and the mediators' nonclassicality by label, read off the
    frame's witness images and the mediators' commutators at all of them at
    once (``pseudo_pure_expectation_at``, ``nonclassicality_degree``), each point
    with the bytes that ``substitute`` would give it.  ``run`` reads them at
    its one p, ``sweep`` once for its whole grid."""
    from .heisenberg import nonclassicality_degree, observable_image, pseudo_pure_expectation_at
    witnesses = {name: pseudo_pure_expectation_at(observable_image(frame, WITNESSES[name]),
                                                  cfg.basis, cfg.epsilon, p)
                 for name in axes_names}
    return witnesses, {qubit_label(q): nonclassicality_degree(frame, q, p) for q in MEDIATORS}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write(path: str, pieces: Iterable[bytes]) -> None:
    """Each piece to the file at ``path``, opened before the first is taken;
    an OS error names the path once, through ``_shown``."""
    try:
        with open(path, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        raise ConfigError(f"cannot write {_shown(path)}: {exc.strerror}") from exc


#: a number as every output spells it, with all 17 significant digits
_CELL = "%.17g"
#: one row of the sweep's CSV, six cells
_SWEEP_ROW = ",".join([_CELL] * 6) + "\n"


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
    from .heisenberg import frames_to_dict, render_table, run_network_frames, substitute
    frames = run_network_frames(_build_network(cfg))
    if cfg.p != SYMBOLIC_P:
        frames = [substitute(frame, cfg.intensity) for frame in frames]
    if args.format == "json":
        return frames_to_dict(frames), None
    return render_table(frames) + "\n", None


def cmd_sweep(cfg: ExperimentConfig, args):
    """The CSV as lines that ``_execute`` writes as they are computed: the
    header, then a row per grid point.  The grid is read first, so a bad
    --p-grid is a config error before any output is opened."""
    return _sweep_lines(cfg, _parse_grid(args.p_grid)), None


def _sweep_lines(cfg: ExperimentConfig, grid: list[float]) -> Iterator[str]:
    """The header, then the rows a chunk of ``SWEEP_CHUNK`` points at a time.
    The density columns are read off the final slice's states per flip count
    (``density.flip_count_states``): witness_density mixes their witnesses,
    and negativity_AD is read off each chunk's mixes of their A-D reduced
    states, checked as one stack."""
    from .density import (DensityMatrix, bernstein_mix, expectation, flip_count_states,
                          negativity, partial_trace)
    from .heisenberg import run_network_frames
    axes, p = cfg.axes, np.array(grid)
    circuit = _build_network(cfg)
    witnesses, nc = _descriptor_values(cfg, run_network_frames(circuit)[-1], [axes], p)
    counts = flip_count_states(circuit, cfg.initial)
    count_witnesses = expectation(counts, WITNESSES[axes])
    # complex entries as (re, im) pairs, so the mix takes real arithmetic alone
    count_reduced = partial_trace(counts, [PROBE_1, PROBE_2]).entries.view(float)
    yield "p,witness_heisenberg,witness_density,negativity_AD,nonclassicality_B,nonclassicality_C\n"
    for start in range(0, len(p), SWEEP_CHUNK):
        chunk = slice(start, start + SWEEP_CHUNK)
        reduced = DensityMatrix(bernstein_mix(count_reduced, p[chunk]).view(complex))
        for row in zip(p[chunk], witnesses[axes][chunk], bernstein_mix(count_witnesses, p[chunk]),
                       negativity(reduced, [0]), nc["B"][chunk], nc["C"][chunk]):
            yield _SWEEP_ROW % row


def cmd_staged(cfg: ExperimentConfig, args):
    from .density import DensityMatrix, exhaustive_average, run_network_density, temporal_average
    from .detect import antiphase_amplitudes
    initial = cfg.initial
    states = run_network_density(_build_network(cfg), initial)
    finals = [("undephased", states[-1], {})]
    if cfg.patterns != "none":
        patterns = sample_patterns(cfg.stages, cfg.count, seed=cfg.seed)
        finals.append(("sampled", temporal_average(cfg.stages, patterns, cfg.epsilon, cfg.basis),
                       {"pattern_count": cfg.count, "seed": cfg.seed}))
    if cfg.patterns == "exhaustive":
        finals.append(("exhaustive", exhaustive_average(cfg.stages, initial),
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
    report = {"version": __version__, "command": "staged", "config": cfg.to_dict("staged")}
    return {**report, "variants": variants}, finals[-1][1]


def cmd_run(cfg: ExperimentConfig, args):
    from .density import run_network_density
    from .detect import antiphase_amplitudes
    from .heisenberg import run_network_frames
    names = [cfg.axes, next(name for name in AXES_CHOICES if name != cfg.axes)]
    circuit = _build_network(cfg)
    states = run_network_density(circuit, cfg.initial, cfg.intensity)
    final = states[-1]
    slices = []
    for t, (frame, (w_density, neg)) in enumerate(zip(run_network_frames(circuit),
                                                      _density_values(states, names))):
        w_heisenberg, nc = _descriptor_values(cfg, frame, names, np.array([cfg.intensity]))
        witness = [{"axes": name, "density": w_density[name],
                    "heisenberg": w_heisenberg[name].item()} for name in names]
        slices.append({
            "time": t,
            "witness": witness[0],
            "witness_alt": witness[1],
            "negativity_AD": {"engine": "density", "value": neg},
            "nonclassicality": {"engine": "heisenberg",
                                **{label: value.item() for label, value in nc.items()}},
        })
    report = {
        "version": __version__,
        "command": "run",
        "config": cfg.to_dict("run"),
        "slices": slices,
        "multiplet": {"engine": "density", **antiphase_amplitudes(final, PROBE_1)[0]},
        "notes": _final_slice_notes(slices[-1]),
    }
    if args.format == "json":
        return report, final
    given_p = "" if cfg.p is None else f" p={cfg.p}"  # no p if none given, as in the JSON
    lines = [f"medwit run v{__version__}: network={cfg.network}{given_p} "
             f"epsilon={cfg.epsilon} initial={cfg.initial_bits} seed={cfg.seed}"]
    for entry in slices:
        w = entry["witness"]
        lines.append(
            f"t{entry['time']}: witness[{w['axes']}] density={_CELL % w['density']}"
            f" heisenberg={_CELL % w['heisenberg']}"
            f" negativity_AD={_CELL % entry['negativity_AD']['value']}"
        )
    lines += [f"note: {note}" for note in report["notes"]]
    return "\n".join(lines) + "\n", final


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one file: by device and inode where both
    exist, so a hard link is caught, else by real path."""
    try:
        return os.path.samefile(path, other)
    except OSError:
        return os.path.realpath(path) == os.path.realpath(other)


def _check_distinct_files(args) -> None:
    """Refuse two of --config, --out and --dump-state that name one file
    (``_same_file``) before the config is read or any file is opened for
    writing: one write would replace the config just read or the other output."""
    named = [(flag, path) for flag, path in (("--config", args.config), ("--out", args.out),
                                             ("--dump-state", getattr(args, "dump_state", None)))
             if path]
    for (flag, path), (other, other_path) in combinations(named, 2):
        if _same_file(path, other_path):
            raise ConfigError(f"{flag} and {other} name the same file, {_shown(path)}")


def _execute(args) -> int:
    """Config, then the command, then the steps every command shares: the
    --dump-state file and the output.  A command's output is a JSON report,
    a string or, for ``sweep``, an iterator of strings; each piece goes to
    stdout, or to the --out file, opened before the first piece is computed,
    as soon as it is computed."""
    _check_distinct_files(args)
    cfg = _effective_config(args)
    output, final = args.func(cfg, args)
    if isinstance(output, dict):
        import json  # only a JSON report loads it
        output = json.dumps(output, indent=2, sort_keys=True) + "\n"
    if getattr(args, "dump_state", None):
        from .density import state_to_bytes
        _write(args.dump_state, [state_to_bytes(final)])
    pieces = [output] if isinstance(output, str) else output
    if args.out:
        _write(args.out, (piece.encode("utf-8") for piece in pieces))
    else:
        sys.stdout.writelines(pieces)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose errors echo each value cut as ``_shown`` cuts
    it: a quoted one, such as an unknown choice, and the unrecognized
    arguments, which end the message."""

    def error(self, message):
        head, unread, extras = message.partition("unrecognized arguments: ")
        quoted = r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*\""""  # a str as repr spells it
        head = re.sub(quoted, lambda value: _shown(value[0]), head)
        super().error(head + unread + _shown(extras))


def _add_common(subs, command: str, func, summary: str) -> argparse.ArgumentParser:
    """The command's subparser: --config, a flag for each config key the
    command reads, and --out.  No flag is expanded from an abbreviation, which
    would read ``sweep --p`` as --p-grid."""
    sub = subs.add_parser(command, help=summary, allow_abbrev=False)
    sub.set_defaults(func=func)
    sub.add_argument("--config", help="key = value config file; flags override file values")
    for key, commands, _, _, _, flag in CONFIG_KEYS:
        if command in commands:
            sub.add_argument("--" + key.replace("_", "-"), dest=key, **flag)
    sub.add_argument("--out", help="write output to this path instead of stdout")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
