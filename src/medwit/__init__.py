"""Dual-engine simulator for mediated-entanglement witness experiments.

Two engines cover the same four-qubit chain networks: a symbolic
Heisenberg-picture descriptor tracker (exact Clifford evolution plus an
effective dephasing map) and a dense density-matrix engine (exact gates,
physical channels, fractional swaps, temporal averaging).  Everything the
descriptor engine claims can be cross-checked against the dense oracle.

``import medwit`` loads no submodule, and so no numpy: each loads on first
access, and the CLI imports only the engines a command runs (see ``cli``).
Every record type (``GateOp``, ``DensityMatrix``, ``ExperimentConfig`` and
the rest) derives from ``_Record``, defined here, where every submodule
finds it without a further import.
"""

import importlib
import os

__version__ = "0.1.0"

# medwit hands BLAS 16x16 gates times 16x16 states and, in the sampled
# average, 16x16 times 16xk and 16xk times kx16 for k up to 10^5 patterns.
# Unpinned, OpenBLAS starts a worker thread when numpy loads, and the idle
# worker costs CPU in every process.  This must precede the first import of
# numpy, which every submodule import does after this file; a user's value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class _Record:
    """Base of the frozen record types.  A subclass lists its fields in
    ``__slots__`` and sets them in its ``__init__`` with
    ``object.__setattr__``, then calls its ``__post_init__`` if it has one.
    The base refuses assignment and deletion, compares, hashes and prints
    the fields as a frozen dataclass would, and rebuilds a record through
    ``__init__`` for copy, deepcopy and pickle, so a copy is checked again."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


def __getattr__(name: str):
    if name in ("circuits", "cli", "density", "detect", "heisenberg", "pauli"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
