"""Gate and circuit types, the gate table, builders for the built-in networks,
dephasing patterns.

A set of dephasing patterns of the staged network is one (k, 2, stages) bool
array: row j of pattern i gives the stages of link j (0 for B-C, 1 for C-D)
after whose partial swap pattern i puts a Z on C.

The built-in networks act on a four-qubit chain A-B-C-D (indices 0-3).  A and D
are the probes to be entangled; B and C form the mediator through which every
interaction is routed (there is no direct A-D gate anywhere below).

``local_unitary`` is the one definition of each unitary gate: the density
engine embeds its matrix on the register, and the descriptor engine expands
the gate's conjugation of each Pauli letter from the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "A", "B", "C", "D",
    "Circuit",
    "GateOp",
    "SLICE",
    "TimeSlice",
    "build_asymmetric",
    "build_staged",
    "build_symmetric",
    "cnot",
    "cphase",
    "exhaustive_patterns",
    "h",
    "local_unitary",
    "partial_swap",
    "pattern_population",
    "phase_flip",
    "sample_patterns",
    "swap",
    "z",
]

A, B, C, D = 0, 1, 2, 3

#: the qubit count of each gate kind, and so the table of gate kinds
_ARITY = {"H": 1, "Z": 1, "PHASE_FLIP": 1, "CNOT": 2, "CPHASE": 2, "SWAP": 2, "PARTIAL_SWAP": 2}

SYMBOLIC_P = "symbolic"


def _exact(rows) -> np.ndarray:
    matrix = np.array(rows, dtype=complex)
    matrix.setflags(write=False)
    return matrix


_SWAP4 = _exact([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
#: (matrix, scale) of each fixed unitary kind: the gate is matrix / sqrt(scale)
#: on its qubits in the order given, the first most significant.  The entries
#: are integers, so a conjugation by the matrix is exact in floating point.
_LOCAL = {
    "H": (_exact([[1, 1], [1, -1]]), 2),
    "Z": (_exact([[1, 0], [0, -1]]), 1),
    "CNOT": (_exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), 1),
    "CPHASE": (_exact(np.diag([1, 1, 1, -1])), 1),
    "SWAP": (_SWAP4, 1),
}


@dataclass(frozen=True)
class GateOp:
    """One gate or channel application; qubit order is significant for CNOT."""

    kind: str
    qubits: tuple[int, ...]
    alpha: float | None = None  # PARTIAL_SWAP exponent, in (0, 1]
    p: float | str | None = None  # PHASE_FLIP intensity in [0, 1], or "symbolic"

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index in {qubits}")
        if self.kind == "PARTIAL_SWAP":
            if self.alpha is None or not 0 < self.alpha <= 1:
                raise ValueError(f"partial swap exponent must lie in (0, 1], got {self.alpha!r}")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no exponent")
        if self.kind == "PHASE_FLIP":
            if self.p != SYMBOLIC_P and (
                not isinstance(self.p, (int, float)) or not 0 <= self.p <= 1
            ):
                raise ValueError(f"phase-flip intensity must lie in [0, 1], got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"{self.kind} takes no intensity")


def local_unitary(kind: str, alpha: float | None = None) -> tuple[np.ndarray, int]:
    """The local gate of a unitary kind as (matrix, scale), the gate being
    matrix / sqrt(scale); ``alpha`` is the partial swap's exponent.

    The partial swap takes the principal spectral branch of SWAP^alpha: the
    symmetric subspace is fixed and the antisymmetric one picks up
    exp(i*pi*alpha), so the 1/s power composes s times to an exact full swap
    and alpha -> 0 is continuously the identity.
    """
    if kind != "PARTIAL_SWAP":
        return _LOCAL[kind]
    p_sym = (np.eye(4, dtype=complex) + _SWAP4) / 2
    p_anti = (np.eye(4, dtype=complex) - _SWAP4) / 2
    return p_sym + np.exp(1j * np.pi * alpha) * p_anti, 1


@dataclass(frozen=True)
class TimeSlice:
    """Marker separating the labelled times t_0 ... t_k in a circuit."""


SLICE = TimeSlice()


def h(q: int) -> GateOp:
    return GateOp("H", (q,))


def z(q: int) -> GateOp:
    return GateOp("Z", (q,))


def cnot(control: int, target: int) -> GateOp:
    return GateOp("CNOT", (control, target))


def cphase(a: int, b: int) -> GateOp:
    return GateOp("CPHASE", (a, b))


def swap(a: int, b: int) -> GateOp:
    return GateOp("SWAP", (a, b))


def partial_swap(a: int, b: int, alpha: float) -> GateOp:
    return GateOp("PARTIAL_SWAP", (a, b), alpha=alpha)


def phase_flip(q: int, p) -> GateOp:
    return GateOp("PHASE_FLIP", (q,), p=p)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list with slice markers; t_0 is implicitly before the first op."""

    n: int
    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if isinstance(op, TimeSlice):
                continue
            if not isinstance(op, GateOp):
                raise TypeError(f"circuit ops must be GateOp or TimeSlice, got {op!r}")
            if any(q >= self.n for q in op.qubits):
                raise ValueError(f"gate {op} out of range for n={self.n}")

    @property
    def gates(self) -> tuple[GateOp, ...]:
        return tuple(op for op in self.ops if isinstance(op, GateOp))


def build_symmetric(p=None) -> Circuit:
    """Symmetric entangling network on the A-B-C-D chain.

    Bell stages on (A,B) and (D,C), a controlled phase across the mediator
    link B-C, then closing CNOTs.  With ``p`` given, phase-flip channels of
    intensity p hit both mediator qubits between the phase gate and the
    closing CNOTs; the t_2 snapshot is taken after those channels so the
    reported descriptors carry their attenuation.  ``p`` may be the string
    "symbolic" to carry the attenuation factor formally.
    """
    if p is not None and p != SYMBOLIC_P and not 0 <= p <= 1:
        raise ValueError(f"dephasing intensity must lie in [0, 1], got {p!r}")
    ops: list = [h(A), cnot(A, B), h(D), cnot(D, C), SLICE, cphase(B, C)]
    if p is not None:
        ops += [phase_flip(B, p), phase_flip(C, p)]
    ops += [SLICE, cnot(A, B), cnot(D, C), SLICE]
    return Circuit(4, tuple(ops))


def build_asymmetric() -> Circuit:
    """Entangle A-B, then carry B's half to D through two full swaps."""
    return Circuit(4, (h(A), cnot(A, B), SLICE, swap(B, C), SLICE, swap(C, D), SLICE))


def build_staged(stages: int) -> Circuit:
    """Asymmetric network with each swap split into ``stages`` partial swaps.

    Every stage applies ``SWAP^(1/stages)`` on its link, and all B-C stages
    complete before the C-D stages begin, so the partial swaps run in the
    order of a pattern array's flattened rows.  Dephasing patterns act on
    this circuit through ``density.temporal_average`` and
    ``density.exhaustive_average``.
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    alpha = 1.0 / stages
    u_bc, u_cd = partial_swap(B, C, alpha), partial_swap(C, D, alpha)
    ops = [h(A), cnot(A, B), SLICE] + [u_bc] * stages + [SLICE] + [u_cd] * stages + [SLICE]
    return Circuit(4, tuple(ops))


def pattern_population(stages: int) -> int:
    """Number of distinct balanced pattern pairs: C(stages, stages/2) per link."""
    if stages % 2:
        raise ValueError("balanced patterns require an even stage count")
    return comb(stages, stages // 2) ** 2


def _patterns_from_indices(indices: np.ndarray, stages: int) -> np.ndarray:
    """The balanced pattern pair of each canonical index (int64), in one pass,
    as a (len(indices), 2, stages) bool array.

    Index i is the pair of per-link ranks divmod(i, C(stages, stages/2)), and
    each rank names its link's dephased stages in lexicographic order: at
    stage t with k stages still to choose, the C(stages-1-t, k-1) smaller
    ranks choose t.  Every rank walks the stages together, reading the
    binomial coefficients from one int64 table.
    """
    half = stages // 2
    # binom[m, k] = C(m, k - 1), and 0 at k = 0 where no stage is left to choose
    binom = np.array([[comb(m, k - 1) if k else 0 for k in range(half + 1)]
                      for m in range(stages)], dtype=np.int64)
    ranks = np.concatenate(np.divmod(indices, comb(stages, half)))
    left = np.full(len(ranks), half)
    chosen = np.empty((len(ranks), stages), dtype=bool)
    for t in range(stages):
        below = binom[stages - 1 - t, left]
        chosen[:, t] = ranks < below
        ranks -= np.where(chosen[:, t], 0, below)
        left -= chosen[:, t]
    return np.stack(np.split(chosen, 2), axis=1)


def exhaustive_patterns(stages: int) -> np.ndarray:
    """Every balanced pattern pair in canonical (lexicographic) order, as a
    (k, 2, stages) bool array."""
    return _patterns_from_indices(np.arange(pattern_population(stages)), stages)


def sample_patterns(stages: int, count: int, seed: int = 0) -> np.ndarray:
    """Draw ``count`` distinct balanced pattern pairs uniformly, as a
    (count, 2, stages) bool array; a seed always draws the same pairs.

    Asking for the whole population returns it exhaustively in canonical order.
    """
    population = pattern_population(stages)
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > population:
        raise ValueError(f"count {count} exceeds the pattern population {population}")
    if count == population:
        return exhaustive_patterns(stages)
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    order: list[int] = []
    while len(order) < count:
        idx = int(rng.integers(population))
        if idx not in seen:
            seen.add(idx)
            order.append(idx)
    return _patterns_from_indices(np.array(order, dtype=np.int64), stages)

