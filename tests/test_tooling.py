"""The benchmark tracer's targets and every module's public names exist in
medwit, no module of the package or the tests imports a name it never reads,
``tools/same_bytes.py`` reports a failing command and measures how far two
outputs differ, every one of its argvs gives the output digests committed
in ``tests/output_digests.json``,
importing medwit's CLI pins OpenBLAS to one thread unless the environment
already sets a count, a bare ``import medwit`` loads no numpy, and each
command loads only the engines it runs and not numpy's random module.

``perfbench/tracer.py`` wraps package functions by name, so a renamed or
deleted function would only surface when ``perfbench/run.py --trace 1`` runs.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "medwit"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered first, as a dataclass in the module looks itself up there
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
same_bytes = _load("same_bytes", ROOT / "tools" / "same_bytes.py")


@pytest.mark.parametrize("layer, qualname", tracer.TARGETS)
def test_tracer_target_resolves(layer, qualname):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, qualname))


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_public_names_exist(layer):
    module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def unread_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` features aside) and never reads."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", "") != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    source = "import os, os.path as osp\nfrom typing import List, Set\nx: List = [os]\n"
    assert unread_imports(source) == ["osp", "Set"]


# a package module is named by its file name, a test module by ``tests/``
# and its file name
@pytest.mark.parametrize(
    "name",
    sorted(path.name for path in SRC.glob("*.py"))
    + sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("*.py")),
)
def test_no_unread_imports(name):
    path = ROOT / name if name.startswith("tests/") else SRC / name
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unread_functions(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each non-dunder function, nested ones and methods
    included, whose name no module of ``sources`` reads, as a loaded name or
    an attribute; a name listed in ``__all__`` alone is not read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return {f"{module}.{node.name}" for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in read}


def test_unread_functions_are_found():
    source = ("__all__ = ['public']\ndef public(): pass\ndef used(): pass\n"
              "class C:\n    def __init__(self): self.method()\n    def method(self): used()\n"
              "    def orphan(self): pass\n")
    assert unread_functions({"m": source}) == {"m.public", "m.orphan"}


def test_the_one_unread_package_function_is_the_tests_reference():
    """``heisenberg.pseudo_pure_expectation`` is the tests' per-point
    reference for the grid reads; any other function that no package code
    reads is dead code."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unread_functions(sources) == {"heisenberg.pseudo_pure_expectation"}


def test_same_bytes_reports_a_failing_command(tmp_path):
    """A command that exits non-zero writes no --dump-state file; the run
    reports its exit code, no state and its error instead of raising."""
    code, stdout, state, stderr = same_bytes.run(ROOT / "src", ["run", "--p", "2"], tmp_path)
    assert (code, stdout, state) == (2, b"", None)
    assert stderr == b"medwit: config error: --p must lie in [0, 1], got 2.0\n"


def _committed_digests() -> dict:
    return json.loads(same_bytes.DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_lists_every_argv():
    """Rewrite the file with ``python tools/same_bytes.py --write`` after
    changing ``ARGVS``."""
    assert [entry["argv"] for entry in _committed_digests()["argvs"]] == same_bytes.ARGVS


def test_every_argv_gives_its_committed_digests():
    """Exit code, stdout and --dump-state bytes of every argv, run in process,
    against the committed digests.  An intended output change rewrites the
    file with ``python tools/same_bytes.py --write``; the digests belong to
    the Python, NumPy and BLAS build the file records."""
    committed, taken = _committed_digests(), same_bytes.digests()
    by_argv = {tuple(entry["argv"]): entry for entry in committed["argvs"]}
    differ = [" ".join(entry["argv"]) for entry in taken["argvs"]
              if by_argv.get(tuple(entry["argv"])) != entry]
    assert differ == [], (
        f"{len(differ)} argvs differ from {same_bytes.DIGESTS.name}, which was written with "
        f"{committed['environment']}; this run has {taken['environment']}"
    )


def test_environment_names_the_blas_kernel():
    """The digest environment names the OpenBLAS kernel picked at run time,
    so a digest failure on another CPU shows the kernel on both sides."""
    kernel = same_bytes.environment()["blas_kernel"]
    assert isinstance(kernel, str) and kernel


def _after_import(preset: str | None) -> tuple[str | None, int | None]:
    """OPENBLAS_NUM_THREADS and, on Linux, the thread count of a fresh
    interpreter after ``from medwit import cli``, which loads numpy, started
    with the variable set to ``preset`` or, for None, removed from its
    environment."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import json, os, sys\n"
        "from medwit import cli\n"
        "assert 'numpy' in sys.modules\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return tuple(json.loads(done.stdout))


def test_import_pins_blas_to_one_thread():
    value, tasks = _after_import(None)
    assert value == "1"
    if tasks is not None:
        assert tasks == 1


def test_import_keeps_a_blas_thread_count_the_user_set():
    value, _ = _after_import("2")
    assert value == "2"


def test_bare_import_loads_no_numpy():
    """``import medwit`` runs no submodule; each loads on first access."""
    probe = ("import sys, medwit\n"
             "print(sorted(m for m in sys.modules if 'numpy' in m or 'medwit' in m))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "['medwit']\n"


#: each argv's exit code and the engines it loads beside cli, circuits and pauli
COMMAND_ENGINES = {
    "staged --patterns sampled:16": (0, ["density", "detect"]),
    "staged --patterns exhaustive": (0, ["density", "detect"]),
    "run": (0, ["density", "detect", "heisenberg"]),
    "sweep": (0, ["density", "heisenberg"]),
    "table": (0, ["heisenberg"]),
    "run --p 2": (2, []),
}


@pytest.mark.parametrize("argv", list(COMMAND_ENGINES))
def test_command_loads_no_numpy_random(argv):
    """A fresh interpreter runs the command through ``cli.main``: it loads
    the engines it runs and no other, a config error none, and the seeded
    sample is drawn without ``numpy.random``, whose import costs every
    sampling command about 18 ms and 5 MB."""
    probe = (
        "import contextlib, io, json, sys\n"
        "from medwit import cli\n"
        "quiet = io.StringIO()\n"
        "with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):\n"
        f"    code = cli.main({argv.split()!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('medwit.')),\n"
        "                  'numpy.random' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    code, engines = COMMAND_ENGINES[argv]
    modules = sorted(f"medwit.{name}" for name in ["circuits", "cli", "pauli", *engines])
    assert json.loads(done.stdout) == [code, modules, False]


def test_same_bytes_measures_how_far_outputs_differ():
    """The largest gap over numeric JSON leaves and CSV cells, None where the
    outputs differ in more than numbers, and the largest complex gap of two
    dumped states."""
    report = b'{"a": [1.0, 2.5], "b": {"c": "x", "d": 0.25}}'
    assert same_bytes.stdout_gap(report, report) == 0.0
    moved = b'{"a": [1.0, 2.5000000000000004], "b": {"c": "x", "d": 0.2500000000000001}}'
    assert same_bytes.stdout_gap(report, moved) == 2.5000000000000004 - 2.5
    assert same_bytes.stdout_gap(report, b'{"a": [1.0, 2.5], "b": {"c": "y", "d": 0.25}}') is None
    assert same_bytes.stdout_gap(report, b'{"a": [1.0], "b": {"c": "x", "d": 0.25}}') is None
    assert same_bytes.stdout_gap(b"p,w\n0,0.5\n0.1,0.25\n", b"p,w\n0,0.5\n0.1,0.375\n") == 0.125
    assert same_bytes.stdout_gap(b"p,w\n0,0.5\n", b"p,v\n0,0.5\n") is None
    state = np.array([[0.5, 0.25j], [-0.25j, 0.5]], dtype="<c16")
    shifted = state + np.array([[0, 3e-16 + 4e-16j], [0, 0]])
    assert same_bytes.state_gap(state.tobytes(), shifted.tobytes()) == pytest.approx(5e-16)
    assert same_bytes.state_gap(state.tobytes(), state[0].tobytes()) is None
