"""Dual-engine simulator for mediated-entanglement witness experiments.

Two engines cover the same four-qubit chain networks: a symbolic
Heisenberg-picture descriptor tracker (exact Clifford evolution plus an
effective dephasing map) and a dense density-matrix engine (exact gates,
physical channels, fractional swaps, temporal averaging).  Everything the
descriptor engine claims can be cross-checked against the dense oracle.

``import medwit`` loads no submodule, and so no numpy: each loads on first
access, and the CLI imports only the engines a command runs (see ``cli``).
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


def __getattr__(name: str):
    if name in ("circuits", "cli", "density", "detect", "heisenberg", "pauli"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
