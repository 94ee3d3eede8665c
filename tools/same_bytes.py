"""Compare medwit's output between two source trees, byte for byte, or
write the digests of this checkout's output.

Usage: python tools/same_bytes.py PARENT_SRC CHANGE_SRC
       python tools/same_bytes.py --write

Each SRC is a directory holding the ``medwit`` package (a checkout's ``src``).
Every argv in ``ARGVS`` runs as ``python -m medwit`` once per tree, with
``PYTHONPATH`` set to that tree; ``staged`` and ``run`` argvs also write
``--dump-state``.  The first argvs are perfbench's cli-mix commands, read
from ``perfbench/workloads.py``; the last, ``ERRORS``, are bad flags, whose
pinned output is the error on stderr.  The script prints one line per argv
and exits 1 if any exit code, stdout, dumped state or stderr differs
between the trees, else 0.  A line whose stdout or state differs ends with
the largest absolute difference: over the numeric leaves of JSON output or
the numeric cells of other (CSV) output, and over the complex128 entries of
the dumped states; "not numeric" where the outputs differ in more than
numbers.

The children run with ``OPENBLAS_NUM_THREADS`` removed from their
environment, whatever this script's own environment holds, so both trees
are compared as a user runs them by default: a tree that sets its own BLAS
thread count is compared at that count.

``--write`` runs every argv in process on the ``src`` of the checkout that
holds this script and writes ``DIGESTS``: per argv its exit code and the
sha256 of its stdout, of its dumped state and of its stderr, with the
Python, NumPy and BLAS build they were taken with and the OpenBLAS kernel
that build picked for the CPU at run time.  A tier-1 test compares
the same digests with that file, so an intended output change shows as its
diff, argv by argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the committed output digests of every argv
DIGESTS = ROOT / "tests" / "output_digests.json"


def _workloads():
    """``perfbench/workloads.py``, loaded by path: the benchmark is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # registered first, as a dataclass in the module looks itself up there
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


#: the perfbench cli-mix commands, at seed 1
CLI_MIX = [command.argv(1) for command in _workloads().CLI_MIX]
#: grids of one point, 32 and 33 points, the perfbench sweep-fine grid, a
#: comma list, non-default epsilon and axes, 10001 points, which span
#: hundreds of density stacks, and a range whose last point rounds past stop
SWEEPS = [
    ["sweep", "--p-grid", "0.25"],
    ["sweep", "--p-grid", "0:0.31:0.01"],
    ["sweep", "--p-grid", "0:0.32:0.01"],
    ["sweep", "--p-grid", "0:0.5:0.0005"],
    ["sweep", "--p-grid", "0.5,0.1,0.499999999999995,1,0"],
    ["sweep", "--p-grid", "0:1:0.01", "--epsilon", "0.3", "--axes", "xx-zz"],
    ["sweep", "--p-grid", "0:1:0.0001"],
    ["sweep", "--p-grid", "0.09:1:0.07"],
]
STAGED = [
    ["staged", "--stages", "8", "--patterns", "exhaustive"],
    ["staged", "--stages", "34", "--patterns", "exhaustive"],
    ["staged", "--stages", "24", "--patterns", "sampled:1000", "--seed", "3"],
]
#: the shared observation layer and the staged walk off their defaults: a
#: sample of one full stack and one pattern, non-default epsilon, bits and
#: axes, text output, and an intensity in the prune window of 0.5
OBSERVED = [
    ["staged", "--stages", "6", "--patterns", "sampled:33", "--epsilon", "0.5",
     "--initial-bits", "1010"],
    ["run", "--p", "0.2", "--epsilon", "0.7", "--format", "text"],
    ["run", "--network", "asymmetric", "--initial-bits", "0110"],
    ["run", "--p", "0.499999999999995"],
    ["staged", "--stages", "4", "--patterns", "exhaustive", "--axes", "xz-zx", "--epsilon", "0.2"],
]
#: the descriptor algebra off its defaults: a numeric and a symbolic
#: dephasing intensity, and the asymmetric network read on the other axes
DESCRIPTORS = [
    ["table", "--p", "0.3"],
    ["table", "--p", "symbolic", "--format", "json"],
    ["run", "--network", "asymmetric", "--axes", "xz-zx", "--format", "text"],
]
#: density states as stacks: each staged variant's final state a stack of
#: one, read as one concatenated stack, at the smallest sample and population;
#: and the slices of an odd-stage staged network read as one stack by run
STACKS = [
    ["staged", "--stages", "2", "--patterns", "sampled:1"],
    ["staged", "--stages", "2", "--patterns", "exhaustive"],
    ["run", "--network", "staged", "--stages", "3", "--epsilon", "0.4", "--initial-bits", "0101"],
]
#: the sign-flip dephasing and the vectorised unranking off their defaults:
#: the largest stage count the sampler accepts, whose pattern indices need
#: int64; a count equal to the population, which enumerates it; and the
#: exhaustive average from another initial state
DEPHASING = [
    ["staged", "--stages", "34", "--patterns", "sampled:200", "--seed", "5"],
    ["staged", "--stages", "4", "--patterns", "sampled:36"],
    ["staged", "--stages", "10", "--patterns", "exhaustive", "--initial-bits", "1100",
     "--epsilon", "0.7"],
]
#: the deep descriptor walks: 34 stages of partial swaps, read on the other
#: axes, and 400 stages, where rounding residues leave three words in each
#: mediator commutator at t2 and t3, so the nonclassicality is read by
#: ``operator_norm``'s dense SVD (as it is at most stage counts from 47 on)
FRAMES = [
    ["run", "--network", "staged", "--stages", "34", "--axes", "xz-zx"],
    ["run", "--network", "staged", "--stages", "400"],
]
#: per command, every config key it reads set off its default (table's
#: network stays symmetric, the one network that takes --p)
EVERY_KEY = [
    ["table", "--network", "symmetric", "--p", "0.3", "--seed", "9", "--format", "json"],
    ["sweep", "--p-grid", "0:0.2:0.1", "--epsilon", "0.6", "--initial-bits", "0110",
     "--axes", "xx-zz", "--seed", "9"],
    ["staged", "--stages", "6", "--patterns", "sampled:5", "--epsilon", "0.8",
     "--initial-bits", "0011", "--axes", "xz-zx", "--seed", "9"],
    ["run", "--network", "staged", "--stages", "5", "--epsilon", "0.9", "--initial-bits",
     "1001", "--axes", "xz-zx", "--format", "text", "--seed", "9"],
]
#: the exhaustive average's per-link count stacks off their defaults: deeper
#: stacks from other initial states, epsilon and axes
COUNT_STACKS = [
    ["staged", "--stages", "16", "--patterns", "exhaustive", "--initial-bits", "0111",
     "--epsilon", "0.5", "--axes", "xz-zx"],
    ["staged", "--stages", "32", "--patterns", "exhaustive", "--initial-bits", "0011"],
]
#: the intensity's ends and middle on table and run: the undephased table as
#: JSON, p = 0, 0.5 and 1 as text and JSON, and run at both ends off its
#: default epsilon, bits and axes
INTENSITIES = [
    ["table", "--format", "json"],
    ["table", "--p", "0"],
    ["table", "--p", "0.5"],
    ["table", "--p", "1", "--format", "json"],
    ["run", "--p", "0", "--epsilon", "0.3", "--initial-bits", "1011", "--axes", "xx-zz"],
    ["run", "--p", "1", "--format", "text"],
]
#: seeds of more than one 32-bit word, through the seed hash of the sampler:
#: two words (2**32) on the 32-bit bounded draw, three (2**64 + 1), and 2**200,
#: longer than the hash's four-word pool, on the 64-bit bounded draw
SEEDS = [
    ["staged", "--stages", "8", "--patterns", "sampled:16", "--seed", "4294967296"],
    ["staged", "--stages", "16", "--patterns", "sampled:40", "--seed", "18446744073709551617"],
    ["staged", "--stages", "34", "--patterns", "sampled:5", "--seed",
     "1606938044258990275541962092341162602522202993782792835301376"],
]
#: bad flags, each a config error: --p and --epsilon out of [0, 1] or no
#: number, and --p-grid without three range fields, above the point limit
#: (one step finite, one subnormal), with no points, a descending range, a
#: zero or infinite step, a value out of [0, 1] or no number, and --p off
#: the symmetric network
ERRORS = [
    ["run", "--p", "2"],
    ["run", "--p", "x"],
    ["run", "--epsilon", "-0.5"],
    ["run", "--epsilon", "nan"],
    ["staged", "--epsilon", "abc"],
    ["sweep", "--p-grid", "0:0.5"],
    ["sweep", "--p-grid", "0:1:1e-9"],
    ["sweep", "--p-grid", "0:1:5e-324"],
    ["sweep", "--p-grid", ""],
    ["sweep", "--p-grid", "0.5:0:0.1"],
    ["sweep", "--p-grid", "0:1:0"],
    ["sweep", "--p-grid", "0:1:inf"],
    ["sweep", "--p-grid", "2,0"],
    ["sweep", "--p-grid", "0,x"],
    ["run", "--network", "asymmetric", "--p", "0.1"],
]
ARGVS = (
    CLI_MIX + SWEEPS + STAGED + OBSERVED + DESCRIPTORS
    + STACKS + DEPHASING + FRAMES + EVERY_KEY + COUNT_STACKS + INTENSITIES + SEEDS + ERRORS
)


def _dump_flag(argv: list[str], workdir: Path) -> tuple[Path, list[str]]:
    """The state file of one run, removed if a run left it, and the flag
    that writes it (none for a command without --dump-state)."""
    dump = workdir / "state.bin"
    if dump.exists():
        dump.unlink()
    return dump, ["--dump-state", str(dump)] if argv[0] in ("staged", "run") else []


def run(src: Path, argv: list[str], workdir: Path) -> tuple[int, bytes, bytes | None, bytes]:
    """Exit code, stdout, dumped state bytes (None without --dump-state,
    or when the command wrote no state, as a failing one does not) and stderr."""
    dump, extra = _dump_flag(argv, workdir)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-m", "medwit", *argv, *extra],
        capture_output=True, env=env, cwd=workdir, check=False,
    )
    return done.returncode, done.stdout, dump.read_bytes() if dump.exists() else None, done.stderr


def run_in_process(argv: list[str], workdir: Path) -> tuple[int, bytes, bytes | None, bytes]:
    """``run`` through the ``medwit.cli.main`` this interpreter imports."""
    from medwit.cli import main

    dump, extra = _dump_flag(argv, workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, *extra])
    state = dump.read_bytes() if dump.exists() else None
    return code, out.getvalue().encode(), state, err.getvalue().encode()


def _leaves(stdout: bytes) -> list:
    """The keys and leaves of JSON output in document order, or else the
    comma-separated cells of the output, line by line."""
    text = stdout.decode()
    try:
        tree = json.loads(text)
    except ValueError:
        return [cell for line in text.splitlines() for cell in line.split(",")]
    leaves = []

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                leaves.append(key)
                walk(value)
        elif isinstance(node, list):
            leaves.append(len(node))
            for value in node:
                walk(value)
        else:
            leaves.append(node)

    walk(tree)
    return leaves


def stdout_gap(parent: bytes, change: bytes) -> float | None:
    """Largest absolute difference between two outputs' numeric leaves or
    cells; None if they differ anywhere else."""
    left, right = _leaves(parent), _leaves(change)
    if len(left) != len(right):
        return None
    gap = 0.0
    for a, b in zip(left, right):
        if a == b:
            continue
        if isinstance(a, bool) or isinstance(b, bool):
            return None
        try:
            gap = max(gap, abs(float(a) - float(b)))
        except (TypeError, ValueError):
            return None
    return gap


def state_gap(parent: bytes, change: bytes) -> float | None:
    """Largest absolute difference between two dumped states' complex128
    entries; None if they differ in size."""
    # imported here: --write must load numpy through medwit, which pins BLAS first
    import numpy as np

    if len(parent) != len(change):
        return None
    left, right = (np.frombuffer(data, dtype="<c16") for data in (parent, change))
    return float(np.abs(left - right).max(initial=0.0))


def _gaps(parent: tuple, change: tuple) -> str:
    """The largest differences of two runs' stdout and state, where they differ."""
    gaps = []
    if parent[1] != change[1]:
        gaps.append(("stdout", stdout_gap(parent[1], change[1])))
    if parent[2] != change[2] and None not in (parent[2], change[2]):
        gaps.append(("state", state_gap(parent[2], change[2])))
    words = [f"{name} {'not numeric' if gap is None else f'{gap:.2g}'}" for name, gap in gaps]
    return f"  max |diff| {', '.join(words)}" if words else ""


def _blas_kernel() -> str:
    """The kernel that numpy's OpenBLAS, built for every x86 kernel, picked
    for this CPU when it loaded: read through ctypes from the library in
    numpy.libs, "unknown" where that library or its symbol is absent."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return (corename() or b"unknown").decode()
    return "unknown"


def environment() -> dict[str, str]:
    """The Python, NumPy and BLAS build that output digests belong to, and
    the BLAS kernel that ran."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 only prints its build configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "?")) for key in ("name", "version",
                                                               "openblas configuration")),
        "blas_kernel": _blas_kernel(),
    }


def digests() -> dict:
    """Every ``ARGVS`` entry run in process: its exit code and the sha256 of
    its stdout, of its dumped state (None where it wrote none) and of its
    stderr, with the ``environment`` they were taken in."""
    def sha256(data: bytes | None) -> str | None:
        return None if data is None else hashlib.sha256(data).hexdigest()

    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ARGVS:
            code, stdout, state, stderr = run_in_process(argv, Path(tmp))
            entries.append({"argv": argv, "exit": code, "stdout": sha256(stdout),
                            "state": sha256(state), "stderr": sha256(stderr)})
    return {"environment": environment(), "argvs": entries}


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        sys.path.insert(0, str(ROOT / "src"))
        DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
        print(f"wrote the digests of {len(ARGVS)} argvs to {DIGESTS}")
        return 0
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[3:5]), file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for tree in trees:
        if not (tree / "medwit" / "__init__.py").is_file():
            print(f"{tree} holds no medwit package", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for args in ARGVS:
            parent, change = (run(tree, args, workdir) for tree in trees)
            fields = [name for name, a, b in zip(("exit code", "stdout", "state", "stderr"),
                                                  parent, change) if a != b]
            differ += bool(fields)
            verdict = "differ: " + ", ".join(fields) if fields else "same"
            print(f"{verdict:<8} exit {change[0]}  {' '.join(args)}{_gaps(parent, change)}")
    print(f"{len(ARGVS) - differ} of {len(ARGVS)} argvs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
