"""The benchmark tracer's targets and every module's public names exist in medwit.

``perfbench/tracer.py`` wraps package functions by name, so a renamed or
deleted function would only surface when ``perfbench/run.py --trace 1`` runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


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
