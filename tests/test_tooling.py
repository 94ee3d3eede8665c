"""The benchmark tracer's targets and every module's public names exist in
medwit, no module of the package or the tests imports a name it never reads,
and ``tools/same_bytes.py`` reports a failing command.

``perfbench/tracer.py`` wraps package functions by name, so a renamed or
deleted function would only surface when ``perfbench/run.py --trace 1`` runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "medwit"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
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


# ``__init__`` imports its submodules to re-export them; a package module is
# named by its file name, a test module by ``tests/`` and its file name
@pytest.mark.parametrize(
    "name",
    sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
    + sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("*.py")),
)
def test_no_unread_imports(name):
    path = ROOT / name if name.startswith("tests/") else SRC / name
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_same_bytes_reports_a_failing_command(tmp_path):
    """A command that exits non-zero writes no --dump-state file; the run
    reports its exit code and no state instead of raising."""
    code, stdout, state = same_bytes.run(ROOT / "src", ["run", "--p", "2"], tmp_path)
    assert (code, stdout, state) == (2, b"", None)
