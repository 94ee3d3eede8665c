"""Dense density-matrix engine: the numerical oracle for everything.

Exact dense gates (including fractional swaps), physical Kraus channels,
pseudo-pure states, temporal averaging over dephasing patterns, expectations,
and the negativity entanglement monotone.  All operations are pure functions
on immutable values; pattern averages reduce in the caller-supplied pattern
order, so averaged results are bit-stable regardless of worker count.
``exhaustive_average`` gives the exact average over all C(s, s/2)^2 balanced
patterns of the staged network by dynamic programming, in O(s^2) evolutions
(O(s^3) with interleaved links) instead of one circuit per pattern pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from .circuits import B, C, D, Circuit, DephasingPattern, GateOp, TimeSlice, build_staged, z
from .pauli import BasisState, PauliSum, single

__all__ = [
    "DensityMatrix",
    "MAX_QUBITS",
    "apply_gate",
    "apply_phase_flip",
    "basis_density",
    "exhaustive_average",
    "expectation",
    "gate_unitary",
    "negativity",
    "partial_trace",
    "pseudo_pure",
    "run_network_density",
    "state_to_bytes",
    "temporal_average",
    "witness_observable",
]

#: dense representation cap; every built-in experiment uses n = 4
MAX_QUBITS = 10

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10

_I2 = np.eye(2, dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_CNOT4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CPHASE4 = np.diag([1, 1, 1, -1]).astype(complex)
# elementary matrices |i><k|
_E = [[np.zeros((2, 2), dtype=complex) for _ in range(2)] for _ in range(2)]
for _i in range(2):
    for _k in range(2):
        _E[_i][_k][_i, _k] = 1.0


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one 2^n x 2^n operator; entries are read-only."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        dim = entries.shape[0]
        if entries.ndim != 2 or entries.shape != (dim, dim) or dim & (dim - 1) or dim < 2:
            raise ValueError(f"entries must be square with power-of-two size, got {entries.shape}")
        n = dim.bit_length() - 1
        if n > MAX_QUBITS:
            raise ValueError(f"dense engine is limited to {MAX_QUBITS} qubits; got n={n}")
        if np.max(np.abs(entries - entries.conj().T)) > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(entries) - 1.0) > _TRACE_TOL:
            raise ValueError(f"density matrix trace is {np.trace(entries):.6g}, expected 1")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0].bit_length() - 1

    def validate(self) -> None:
        """Positivity check in addition to the constructor's Hermiticity/trace checks."""
        lowest = float(np.linalg.eigvalsh(self.entries)[0])
        if lowest < -_PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")


def basis_density(bits: BasisState) -> DensityMatrix:
    """Projector |bits><bits|."""
    dim = 2 ** bits.n
    entries = np.zeros((dim, dim), dtype=complex)
    entries[bits.index, bits.index] = 1.0
    return DensityMatrix(entries)


def pseudo_pure(epsilon: float, bits: BasisState) -> DensityMatrix:
    """(1 - eps) * maximally mixed + eps * |bits><bits|."""
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    dim = 2 ** bits.n
    entries = (1.0 - epsilon) * np.eye(dim, dtype=complex) / dim
    entries[bits.index, bits.index] += epsilon
    return DensityMatrix(entries)


def _kron_embed(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    return reduce(np.kron, (ops.get(q, _I2) for q in range(n)))


def _embed_two(u4: np.ndarray, qa: int, qb: int, n: int) -> np.ndarray:
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for r in range(4):
        for c in range(4):
            if u4[r, c] == 0:
                continue
            ops = {qa: _E[r >> 1][c >> 1], qb: _E[r & 1][c & 1]}
            out += u4[r, c] * _kron_embed(ops, n)
    return out


def _partial_swap4(alpha: float) -> np.ndarray:
    # principal spectral branch: symmetric subspace fixed, antisymmetric
    # subspace picks up exp(i*pi*alpha), so the 1/s power composes s times
    # to an exact full swap and alpha -> 0 is continuously the identity
    p_sym = (np.eye(4, dtype=complex) + _SWAP4) / 2
    p_anti = (np.eye(4, dtype=complex) - _SWAP4) / 2
    return p_sym + np.exp(1j * np.pi * alpha) * p_anti


@lru_cache(maxsize=512)
def _unitary_cached(gate: GateOp, n: int) -> np.ndarray:
    if gate.kind == "H":
        u = _kron_embed({gate.qubits[0]: _H2}, n)
    elif gate.kind == "Z":
        u = _kron_embed({gate.qubits[0]: _Z2}, n)
    elif gate.kind == "CNOT":
        u = _embed_two(_CNOT4, gate.qubits[0], gate.qubits[1], n)
    elif gate.kind == "CPHASE":
        u = _embed_two(_CPHASE4, gate.qubits[0], gate.qubits[1], n)
    elif gate.kind == "SWAP":
        u = _embed_two(_SWAP4, gate.qubits[0], gate.qubits[1], n)
    elif gate.kind == "PARTIAL_SWAP":
        u = _embed_two(_partial_swap4(gate.alpha), gate.qubits[0], gate.qubits[1], n)
    else:
        raise ValueError(f"{gate.kind} is a channel, not a unitary")
    u.setflags(write=False)
    return u


def gate_unitary(gate: GateOp, n: int) -> np.ndarray:
    """Dense unitary of a gate embedded on the full n-qubit register."""
    if gate.kind == "PHASE_FLIP":
        raise ValueError("phase flip is a channel, not a unitary; use apply_phase_flip")
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for n={n}")
    return _unitary_cached(gate, n)


def apply_gate(rho: DensityMatrix, gate: GateOp) -> DensityMatrix:
    """U rho U^dagger."""
    u = gate_unitary(gate, rho.n)
    return DensityMatrix(u @ rho.entries @ u.conj().T)


def _phase_flip_raw(entries: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    zq = _unitary_cached(GateOp("Z", (qubit,)), n)
    return (1.0 - p) * entries + p * (zq @ entries @ zq)


def apply_phase_flip(rho: DensityMatrix, qubit: int, p: float) -> DensityMatrix:
    """Physical phase-flip channel: (1-p) rho + p Z rho Z on the target qubit."""
    if not isinstance(p, (int, float)) or not 0 <= p <= 1:
        raise ValueError(f"phase-flip intensity must lie in [0, 1], got {p!r}")
    if not 0 <= qubit < rho.n:
        raise ValueError(f"qubit {qubit} out of range for n={rho.n}")
    return DensityMatrix(_phase_flip_raw(rho.entries, qubit, float(p), rho.n))


def expectation(rho: DensityMatrix, a: PauliSum) -> float:
    """Re Tr(rho * a); an imaginary residue above tolerance is an error."""
    if rho.n != a.n:
        raise ValueError(f"qubit count mismatch: state n={rho.n}, operator n={a.n}")
    value = complex(np.einsum("ij,ji->", rho.entries, a.dense()))
    if abs(value.imag) > 1e-10:
        raise ValueError(
            f"expectation has imaginary residue {value.imag:g}; operator is not Hermitian"
        )
    return float(value.real)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the kept qubits (ascending order, relative order preserved)."""
    n = rho.n
    keep = sorted(set(int(q) for q in keep))
    if not keep or any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep must be a nonempty subset of range({n}), got {keep}")
    drop = [q for q in range(n) if q not in keep]
    tensor = rho.entries.reshape((2,) * (2 * n))
    perm = keep + drop + [q + n for q in keep] + [q + n for q in drop]
    tensor = np.transpose(tensor, perm)
    dk, dd = 2 ** len(keep), 2 ** len(drop)
    tensor = tensor.reshape(dk, dd, dk, dd)
    return DensityMatrix(np.einsum("abcb->ac", tensor))


def negativity(rho: DensityMatrix, partition: Iterable[int]) -> float:
    """Entanglement negativity (trace norm of the partial transpose minus 1) / 2."""
    n = rho.n
    part = sorted(set(int(q) for q in partition))
    if not part or len(part) >= n or any(q < 0 or q >= n for q in part):
        raise ValueError(f"partition must be a proper nonempty subset of range({n}), got {part}")
    tensor = rho.entries.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in part:
        axes[q], axes[q + n] = axes[q + n], axes[q]
    transposed = np.transpose(tensor, axes).reshape(rho.entries.shape)
    eigenvalues = np.linalg.eigvalsh(transposed)
    return max(0.0, (float(np.abs(eigenvalues).sum()) - 1.0) / 2.0)


def witness_observable(
    n: int,
    probe1: int,
    probe2: int,
    axes: tuple[tuple[str, str], tuple[str, str]] = (("x", "z"), ("z", "x")),
) -> PauliSum:
    """Sum of two complementary two-point correlators as a Pauli observable."""
    if probe1 == probe2:
        raise ValueError("probes must be distinct qubits")
    (a1, a2), (b1, b2) = axes
    first = single(n, probe1, a1).to_sum() * single(n, probe2, a2).to_sum()
    second = single(n, probe1, b1).to_sum() * single(n, probe2, b2).to_sum()
    return first + second


def _evolve_raw(circuit: Circuit, entries: np.ndarray, snapshots: bool = False):
    states = [entries]
    current = entries
    for op in circuit.ops:
        if isinstance(op, TimeSlice):
            if snapshots:
                states.append(current)
        elif op.kind == "PHASE_FLIP":
            if op.p == "symbolic":
                raise ValueError("the density engine needs a numeric dephasing intensity")
            current = _phase_flip_raw(current, op.qubits[0], float(op.p), circuit.n)
        else:
            u = gate_unitary(op, circuit.n)
            current = u @ current @ u.conj().T
    if snapshots:
        return states
    return current


def run_network_density(circuit: Circuit, initial: DensityMatrix) -> list[DensityMatrix]:
    """State after each labelled time of the circuit, t_0 included and validated."""
    if initial.n != circuit.n:
        raise ValueError(f"initial state has n={initial.n}, circuit has n={circuit.n}")
    raw_states = _evolve_raw(circuit, initial.entries, snapshots=True)
    states = [DensityMatrix(s) for s in raw_states]
    for state in states:
        state.validate()
    return states


def temporal_average(
    builder: Callable[[DephasingPattern], Circuit],
    patterns: Sequence[DephasingPattern],
    initial: DensityMatrix,
    weights: Sequence[float] | None = None,
) -> DensityMatrix:
    """Convex combination of the final states of one concrete circuit per pattern.

    Accumulation follows the order of ``patterns``, so a canonically ordered
    pattern list yields bit-identical averages run after run.
    """
    if not patterns:
        raise ValueError("at least one pattern is required")
    if weights is None:
        weights = [1.0 / len(patterns)] * len(patterns)
    if len(weights) != len(patterns):
        raise ValueError(f"{len(weights)} weights for {len(patterns)} patterns")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")
    accumulated = None
    for pattern, weight in zip(patterns, weights):
        final = _evolve_raw(builder(pattern), initial.entries)
        accumulated = weight * final if accumulated is None else accumulated + weight * final
    return DensityMatrix(accumulated)


def exhaustive_average(
    stages: int,
    initial: DensityMatrix,
    *,
    interleaved: bool = False,
    z_first: bool = False,
) -> DensityMatrix:
    """Exact uniform average of the staged network over every balanced pattern pair.

    Equals ``temporal_average`` over ``exhaustive_patterns(stages)`` with the
    matching ``build_staged`` options, up to floating-point summation order.
    The undephased circuit is walked once while a table of unnormalised
    state sums, keyed by the dephased-stage counts on the B-C and C-D links,
    branches at each partial swap into its plain and its dephased gate
    (Z on C after the swap, or before it with ``z_first``).  Counts that can
    no longer end at stages/2 on their link are dropped.  Reduction order is
    fixed, so the result is bit-stable run to run.
    """
    if stages < 2 or stages % 2:
        raise ValueError(f"balanced patterns require an even stage count >= 2, got {stages}")
    circuit = build_staged(stages, interleaved=interleaved, z_first=z_first)
    if initial.n != circuit.n:
        raise ValueError(f"initial state has n={initial.n}, circuit has n={circuit.n}")
    half = stages // 2
    link_of = {(B, C): 0, (C, D): 1}
    left = [stages, stages]
    zc = gate_unitary(z(C), circuit.n)
    sums = {(0, 0): initial.entries}
    for op in circuit.gates:
        u = gate_unitary(op, circuit.n)
        if op.kind != "PARTIAL_SWAP":
            sums = {key: u @ rho @ u.conj().T for key, rho in sums.items()}
            continue
        link = link_of[op.qubits]
        left[link] -= 1
        branches = ((u, 0), (u @ zc if z_first else zc @ u, 1))
        grown: dict[tuple[int, ...], np.ndarray] = {}
        for key, rho in sums.items():
            for v, dephased in branches:
                count = key[link] + dephased
                if count > half or count + left[link] < half:
                    continue
                child_key = key[:link] + (count,) + key[link + 1:]
                child = v @ rho @ v.conj().T
                grown[child_key] = grown[child_key] + child if child_key in grown else child
        sums = grown
    return DensityMatrix(sums[(half, half)] / comb(stages, half) ** 2)


def state_to_bytes(rho: DensityMatrix) -> bytes:
    """Row-major little-endian float64 (re, im) pairs; 16 * 4^n bytes total."""
    pairs = np.empty(rho.entries.shape + (2,), dtype="<f8")
    pairs[..., 0] = rho.entries.real
    pairs[..., 1] = rho.entries.imag
    return pairs.tobytes()
