"""Gate and circuit types, the gate table, builders for the built-in networks,
dephasing patterns.

A set of dephasing patterns of the staged network is one (k, 2, stages) bool
array: row j of pattern i gives the stages of link j (0 for B-C, 1 for C-D)
after whose partial swap pattern i puts a Z on C.

The built-in networks act on a four-qubit chain A-B-C-D (indices 0-3).  A and D
are the probes to be entangled; B and C form the mediator through which every
interaction is routed: each gate below acts on one qubit or within one chain
edge, which ``tests/test_locality.py`` checks.

A phase flip carries no intensity: each built-in network is one circuit at
every dephasing intensity p, which the engines take when they evaluate it.

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
    "SAMPLE_INDEX_LIMIT",
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


def phase_flip(q: int) -> GateOp:
    return GateOp("PHASE_FLIP", (q,))


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


def build_symmetric() -> Circuit:
    """Symmetric entangling network on the A-B-C-D chain.

    Bell stages on (A,B) and (D,C), a controlled phase across the mediator
    link B-C, then closing CNOTs.  Phase-flip channels hit both mediator
    qubits between the phase gate and the closing CNOTs; the t_2 snapshot is
    taken after those channels so the reported descriptors carry their
    attenuation.  The engines take the channels' intensity p when they
    evaluate the circuit, and at p = 0 the channels act as the identity.
    """
    return Circuit(4, (h(A), cnot(A, B), h(D), cnot(D, C), SLICE, cphase(B, C),
                       phase_flip(B), phase_flip(C), SLICE, cnot(A, B), cnot(D, C), SLICE))


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


#: pattern-pair indices are unranked as int64, so a population must stay below this
SAMPLE_INDEX_LIMIT = 2 ** 63
#: numpy's ``SeedSequence`` hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1


def _hasher(const: int, mult: int):
    """``SeedSequence``'s hashmix: each call hashes one 32-bit word and steps
    the hash constant that the calls share."""
    def hashmix(word: int) -> int:
        nonlocal const
        word ^= const
        const = const * mult & _MASK32
        word = word * const & _MASK32
        return word ^ word >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    word = (_MIX_L * x - _MIX_R * y) & _MASK32
    return word ^ word >> 16


class _PCG64:
    """The integers of numpy's ``default_rng(seed)``, bit for bit, from the
    PCG64 stream that numpy fixes (O'Neill 2014).

    ``SeedSequence(seed)`` mixes the seed's 32-bit words, least significant
    first, into a pool of four and hashes the pool into the 128-bit initial
    state and stream; each step is the LCG then the XSL-RR output of 64 bits.
    A 32-bit draw takes the low half of a step and keeps the high half for
    the next 32-bit draw.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        hashmix = _hasher(_INIT_B, _MULT_B)
        out = [hashmix(pool[i % 4]) for i in range(8)]
        state = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        self.inc = (state[2] << 64 | state[3]) << 1 & _MASK128 | 1
        self.state = ((self.inc + (state[0] << 64 | state[1])) * _PCG_MULT + self.inc) & _MASK128
        self.half: int | None = None

    def next64(self) -> int:
        self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        word, rot = (self.state >> 64 ^ self.state) & _MASK64, self.state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        word = self.next64()
        self.half = word >> 32
        return word & _MASK32

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: Lemire's bounded draw (arXiv:1805.10941)
        on 32-bit draws when n <= 2**32, else on 64-bit ones."""
        if n == 1:
            return 0
        bits, draw = (32, self.next32) if n <= 2 ** 32 else (64, self.next64)
        mask = (1 << bits) - 1
        product = draw() * n
        if product & mask < n:
            threshold = (mask + 1 - n) % n
            while product & mask < threshold:
                product = draw() * n
        return product >> bits


def sample_patterns(stages: int, count: int, seed: int = 0) -> np.ndarray:
    """Draw ``count`` distinct balanced pattern pairs uniformly, as a
    (count, 2, stages) bool array; a seed always draws the same pairs.

    Each pair is an index drawn uniformly below the population, a repeat
    drawn again.  The draws reproduce numpy's
    ``default_rng(seed).integers(population)`` bit for bit, so a seed keeps
    the sample that numpy drew for it, without importing numpy's random
    module, which costs a sampling command about 18 ms and 5 MB.  The
    indices are unranked as int64, which bounds the population below
    ``SAMPLE_INDEX_LIMIT``.  Asking for the whole population returns it
    exhaustively in canonical order.
    """
    population = pattern_population(stages)
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > population:
        raise ValueError(f"count {count} exceeds the pattern population {population}")
    if population >= SAMPLE_INDEX_LIMIT:
        raise ValueError(f"{stages} stages give {population} pattern pairs, beyond int64 indices")
    if count == population:
        return exhaustive_patterns(stages)
    rng = _PCG64(seed)
    seen: set[int] = set()
    order: list[int] = []
    while len(order) < count:
        idx = rng.integers(population)
        if idx not in seen:
            seen.add(idx)
            order.append(idx)
    return _patterns_from_indices(np.array(order, dtype=np.int64), stages)
