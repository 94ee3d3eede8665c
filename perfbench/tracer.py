"""In-memory span tracer that wraps medwit's layer functions at run time.

The tracer replaces each target function in every medwit module namespace
that binds it (``cli`` and ``detect`` import ``expectation`` by name, for
example) and patches class methods such as ``PauliSum.__mul__`` on the class.
Spans stay in memory as (name, start, end, parent) records until the caller
writes them out; ``uninstall`` puts every original object back.  Private
helpers are never wrapped, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

PACKAGE = "medwit"
LAYERS = ("cli", "circuits", "density", "heisenberg", "pauli", "detect")

#: wrapped functions as (module, qualified name); a dotted name is a class method
TARGETS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("circuits", "build_staged"),
    ("circuits", "exhaustive_patterns"),
    ("circuits", "sample_patterns"),
    ("density", "temporal_average"),
    ("density", "gate_unitary"),
    ("density", "apply_gate"),
    ("density", "run_network_density"),
    ("density", "expectation"),
    ("density", "negativity"),
    ("density", "partial_trace"),
    ("pauli", "PauliSum.__mul__"),
    ("pauli", "PauliSum.dense"),
    ("pauli", "operator_norm"),
    ("pauli", "expectation_basis"),
    ("heisenberg", "run_network_frames"),
    ("heisenberg", "apply_gate_frame"),
    ("heisenberg", "apply_dephasing_frame"),
    ("heisenberg", "nonclassicality_degree"),
    ("heisenberg", "frame_observable"),
    ("heisenberg", "render_table"),
    ("heisenberg", "frames_to_dict"),
    ("detect", "antiphase_amplitudes"),
)


def _count_gates(counts, args, kwargs, result):
    counts["circuits.build_staged.gates"] += len(result.gates)


def _count_patterns(counts, args, kwargs, result):
    patterns = kwargs["patterns"] if "patterns" in kwargs else args[1]
    counts["density.temporal_average.patterns"] += len(patterns)


def _count_descriptor_terms(counts, args, kwargs, result):
    widest = max(len(d) for frame in result for d in frame.x + frame.z)
    key = "heisenberg.descriptor_terms_max"
    counts[key] = max(counts[key], widest)


#: per-target hooks that read work counts off a call's arguments and result
COUNTERS = {
    "circuits.build_staged": _count_gates,
    "density.temporal_average": _count_patterns,
    "heisenberg.run_network_frames": _count_descriptor_terms,
}

COUNT_NAMES = (
    "circuits.build_staged.gates",
    "density.temporal_average.patterns",
    "heisenberg.descriptor_terms_max",
)


class Tracer:
    """Records one span per call of each target while installed.

    Use as a context manager around the traced work; ``spans`` holds
    ``(name, start, end, parent_index)`` tuples in call order, where the
    parent index is -1 for a root span.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        try:
            for layer, qualname in TARGETS:
                owner = importlib.import_module(f"{PACKAGE}.{layer}")
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(f"{layer}.{qualname}", original))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(f"{layer}.{qualname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: call count, inclusive time and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        out = {
            f"{layer}.{qualname}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for layer, qualname in TARGETS
        }
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def root_time(self) -> float:
        """Summed duration of the root spans, which equals the summed self time."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "parent": parent, "name": name, "start": start, "end": end}
                ) + "\n")
