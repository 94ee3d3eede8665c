"""Dense density-matrix engine: the numerical oracle for everything.

Exact dense gates (including fractional swaps), physical Kraus channels,
pseudo-pure states, temporal averaging over dephasing patterns, expectation
values, and the negativity entanglement monotone.  The witness is the
observable built by ``pauli.witness_observable``; ``expectation`` reads it
here, and ``heisenberg.pseudo_pure_expectation_at`` reads its Heisenberg
image on the descriptor engine.
A gate's full-register unitary is its local 2x2 or 4x4 matrix, read from the
gate table ``circuits.local_unitary`` that the descriptor engine reads too,
with each entry copied to its place by basis-index arithmetic, and +0
everywhere else.
All operations are pure functions on immutable values, and every result is
bit-stable run to run.  ``temporal_average`` walks the undephased staged
circuit once, on state vectors: the initial state's eigenvectors whose
eigenvalues lie above its smallest by more than rounding, one copy per
pattern (each pattern's circuit is unitary, so it fixes I).  Phase flips
carry no intensity: ``run_network_density`` takes the one p in [0, 1] they
apply, and ``run_intensity_grid`` evolves a circuit at many intensities as a
stack, p broadcast along it, and the ops ahead of its first flip once per grid.
Every conjugation by Z, in the phase-flip channel and in the exhaustive
average (Z on C), is an exact sign flip of the entries whose row and column
differ in the qubit's bit, which gives the bytes of the dense product with
that +-1 diagonal at no matrix product.
There is one state type: a ``DensityMatrix`` is a checked (k, 2^n, 2^n)
stack, and one state is a stack of one.  The report layer (``expectation``,
``partial_trace``, ``negativity``) gives one value or reduced state per state
of a stack.  The constructor checks every state of a stack, positivity
included, so every ``DensityMatrix`` is a stack of states: a stack that a
Cholesky factorisation certifies passes, and ``eigvalsh`` decides any other.
``exhaustive_average`` walks the same circuit for the exact average over all
C(s, s/2)^2 balanced patterns, by dynamic programming in O(s^2) evolutions
instead of one circuit per pattern pair: one stack of state sums per link,
row i summing the patterns that have dephased i of its stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuits import (
    C,
    Circuit,
    GateOp,
    TimeSlice,
    build_staged,
    local_unitary,
    pattern_population,
)
from .pauli import BasisState, PauliSum, hermitian_value

__all__ = [
    "DensityMatrix",
    "MAX_QUBITS",
    "apply_gate",
    "exhaustive_average",
    "expectation",
    "gate_unitary",
    "negativity",
    "partial_trace",
    "pseudo_pure",
    "run_intensity_grid",
    "run_network_density",
    "state_to_bytes",
    "temporal_average",
]

#: dense representation cap; every built-in experiment uses n = 4
MAX_QUBITS = 10
#: grid points per stack of ``run_intensity_grid``; the sweep holds one
#: stack at a time.  The 1001-point sweep on a shared 2-core host, best of
#: 90 in-process runs and median peak RSS of 9 subprocesses: 45 ms and
#: 31.1 MB at 8, 34 ms and 31.4 MB at 16, 32 ms and 31.9 MB at 32.  Each
#: stack costs about 0.13 ms of fixed numpy calls, so larger grids take
#: longer at 16 than at 32: 8% at 10^5 points and 14% at 10^6 (medians of
#: 10 subprocess pairs); 8 saves too little memory for its time
_BATCH = 16

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10

@dataclass(frozen=True)
class DensityMatrix:
    """A stack of k >= 1 finite, Hermitian, trace-one, positive semidefinite
    2^n x 2^n operators, shape (k, 2^n, 2^n); a 2^n x 2^n matrix is a stack
    of one.  Entries are read-only.  Positivity is checked last: a Cholesky
    factorisation of every state plus ``_PSD_TOL / 2`` times I that
    completes with a finite factor certifies each lowest eigenvalue above
    -_PSD_TOL / 2 less rounding, which a backward-stable ``eigvalsh`` reads
    above -_PSD_TOL, so the stack passes.  Otherwise one ``eigvalsh``
    decides, as if the factorisation had not been tried: the first state
    with an eigenvalue below -_PSD_TOL is an error naming its lowest
    eigenvalue.  Both read the lower triangle."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex, ndmin=3)
        k, dim = entries.shape[:2]
        if entries.shape != (k, dim, dim) or dim & (dim - 1) or dim < 2 or k < 1:
            raise ValueError(f"entries must be a nonempty stack of square power-of-two "
                             f"matrices, got {entries.shape}")
        n = dim.bit_length() - 1
        if n > MAX_QUBITS:
            raise ValueError(f"dense engine is limited to {MAX_QUBITS} qubits; got n={n}")
        if not np.isfinite(entries).all():
            raise ValueError("density matrix has a non-finite (NaN or infinite) entry")
        skew = np.abs(entries - np.swapaxes(entries.conj(), -1, -2)).max(axis=(-2, -1))
        if np.any(skew > _HERM_TOL):
            raise ValueError("density matrix is not Hermitian within tolerance")
        traces = np.trace(entries, axis1=-2, axis2=-1)
        off = np.abs(traces - 1.0) > _TRACE_TOL
        if np.any(off):
            raise ValueError(f"density matrix trace is {traces[np.argmax(off)]:.6g}, expected 1")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        try:
            if np.isfinite(np.linalg.cholesky(entries + (_PSD_TOL / 2) * np.eye(dim))).all():
                return
        except np.linalg.LinAlgError:
            pass
        lowest = np.linalg.eigvalsh(entries)[:, 0]
        negative = lowest < -_PSD_TOL
        if np.any(negative):
            raise ValueError(
                f"density matrix has negative eigenvalue {lowest[np.argmax(negative)]:.3e}"
            )

    @property
    def n(self) -> int:
        return self.entries.shape[-1].bit_length() - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index) -> "DensityMatrix":
        """State ``index`` as a stack of one, or a slice as a sub-stack; re-checked."""
        return DensityMatrix(self.entries[index])


def pseudo_pure(epsilon: float, bits: BasisState) -> DensityMatrix:
    """(1 - eps) * maximally mixed + eps * |bits><bits|."""
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    dim = 2 ** bits.n
    entries = (1.0 - epsilon) * np.eye(dim, dtype=complex) / dim
    entries[bits.index, bits.index] += epsilon
    return DensityMatrix(entries)


def _embed(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Matrix of the local gate ``u`` on the full n-qubit register.

    Entry (r, c) of ``u`` is copied to every basis pair (i, j) whose bits on
    ``qubits`` spell r and c, the first listed qubit most significant, and
    whose other bits agree; every other entry is +0.
    """
    dim = 2 ** n
    cols = np.arange(dim)
    shifts = [n - 1 - q for q in qubits]
    local = np.zeros_like(cols)
    mask = 0
    for shift in shifts:
        local = local << 1 | cols >> shift & 1
        mask |= 1 << shift
    out = np.zeros((dim, dim), dtype=complex)
    for r in range(len(u)):
        spread = sum((r >> k & 1) << shift for k, shift in enumerate(reversed(shifts)))
        out[cols & ~mask | spread, cols] = u[r, local]
    return out


@lru_cache(maxsize=512)
def _unitary_cached(gate: GateOp, n: int) -> np.ndarray:
    """Read-only full-register unitary of a gate: its ``local_unitary``
    matrix / sqrt(scale), embedded by ``_embed``."""
    matrix, scale = local_unitary(gate.kind, gate.alpha)
    u = _embed(matrix / np.sqrt(scale), gate.qubits, n)
    u.setflags(write=False)
    return u


def gate_unitary(gate: GateOp, n: int) -> np.ndarray:
    """Dense unitary of a gate embedded on the full n-qubit register."""
    if gate.kind == "PHASE_FLIP":
        raise ValueError("phase flip is a channel, not a unitary")
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for n={n}")
    return _unitary_cached(gate, n)


def apply_gate(rho: DensityMatrix, gate: GateOp) -> DensityMatrix:
    """U rho U^dagger."""
    u = gate_unitary(gate, rho.n)
    return DensityMatrix(u @ rho.entries @ u.conj().T)


@lru_cache(maxsize=64)
def _dephase_mask(n: int, qubit: int) -> np.ndarray:
    """Entries of a 2^n x 2^n matrix that conjugation by Z on ``qubit``
    negates: those whose row and column differ in its bit.  Read-only."""
    bit = np.arange(2 ** n) >> (n - 1 - qubit) & 1
    mask = bit[:, np.newaxis] != bit
    mask.setflags(write=False)
    return mask


def _dephase(entries: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Z conjugating each state, as an exact sign flip of the ``mask``
    entries: ``0 - x`` negates exactly and gives +0 for a zero, as the dense
    product with the +-1 diagonal does.  The other entries are kept, which
    the product also does for a state holding no -0, as every matrix product
    leaves it; so the bytes are the same."""
    return np.where(mask, 0 - entries, entries)


def expectation(rho: DensityMatrix, a: PauliSum) -> np.ndarray:
    """Re Tr(state * a) for each state of ``rho``, by one einsum; an imaginary
    residue above ``_HERM_TOL`` is an error (``pauli.hermitian_value``)."""
    if rho.n != a.n:
        raise ValueError(f"qubit count mismatch: state n={rho.n}, operator n={a.n}")
    return hermitian_value(np.einsum("kij,ji->k", rho.entries, a.dense()), _HERM_TOL)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the kept qubits (ascending order, relative order
    preserved) of each state of ``rho``."""
    n = rho.n
    keep = sorted(set(int(q) for q in keep))
    if not keep or any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep must be a nonempty subset of range({n}), got {keep}")
    drop = [q for q in range(n) if q not in keep]
    k = len(rho)
    tensor = rho.entries.reshape((k,) + (2,) * (2 * n))
    perm = [0] + [1 + q for q in keep + drop] + [1 + q + n for q in keep + drop]
    dk, dd = 2 ** len(keep), 2 ** len(drop)
    tensor = np.transpose(tensor, perm).reshape(k, dk, dd, dk, dd)
    return DensityMatrix(np.einsum("kabcb->kac", tensor))


def negativity(rho: DensityMatrix, partition: Iterable[int]) -> np.ndarray:
    """Entanglement negativity of each state of ``rho``: the trace norm of its
    partial transpose minus 1, halved, and never below 0; one ``eigvalsh``
    for the whole stack."""
    n = rho.n
    part = sorted(set(int(q) for q in partition))
    if not part or len(part) >= n or any(q < 0 or q >= n for q in part):
        raise ValueError(f"partition must be a proper nonempty subset of range({n}), got {part}")
    k = len(rho)
    tensor = rho.entries.reshape((k,) + (2,) * (2 * n))
    axes = list(range(1 + 2 * n))
    for q in part:
        axes[1 + q], axes[1 + q + n] = axes[1 + q + n], axes[1 + q]
    transposed = np.transpose(tensor, axes).reshape(rho.entries.shape)
    excess = (np.abs(np.linalg.eigvalsh(transposed)).sum(axis=-1) - 1.0) / 2.0
    return np.where(excess > 0.0, excess, 0.0)


def _same_size(circuit: Circuit, initial: DensityMatrix) -> Circuit:
    """``circuit``, checked to act on as many qubits as ``initial``, one state."""
    if len(initial) != 1:
        raise ValueError(f"initial state must be one state, got a stack of {len(initial)}")
    if initial.n != circuit.n:
        raise ValueError(f"initial state has n={initial.n}, circuit has n={circuit.n}")
    return circuit


def _apply_raw(op: GateOp, entries: np.ndarray, n: int, p=None) -> np.ndarray:
    """One gate or channel on a state, or on each state of a stack along axis 0;
    a phase flip takes the dephasing intensity ``p``, one per state as a (k, 1, 1) array."""
    if op.kind == "PHASE_FLIP":
        if p is None:
            raise ValueError("a phase flip needs a dephasing intensity p")
        # the phase-flip channel (1-p) rho + p Z rho Z; p may be a (k, 1, 1) array
        return (1.0 - p) * entries + p * _dephase(entries, _dephase_mask(n, op.qubits[0]))
    u = gate_unitary(op, n)
    return u @ entries @ u.conj().T


def _walk(ops: Sequence, entries: np.ndarray, n: int, p=None) -> tuple[list, np.ndarray]:
    """The raw state at each slice among ``ops``, from ``entries`` before the
    first of them, and the raw state after the last."""
    labelled = []
    for op in ops:
        if isinstance(op, TimeSlice):
            labelled.append(entries)
        else:
            entries = _apply_raw(op, entries, n, p)
    return labelled, entries


def _check_intensity(p) -> None:
    if not 0 <= p <= 1:
        raise ValueError(f"dephasing intensity must lie in [0, 1], got {p!r}")


def run_network_density(circuit: Circuit, initial: DensityMatrix, p=None) -> DensityMatrix:
    """The states at each labelled time of the circuit, t_0 included, as one
    stack; every phase flip has dephasing intensity ``p`` in [0, 1]."""
    if p is not None:
        _check_intensity(p)
    _same_size(circuit, initial)
    labelled, _ = _walk(circuit.ops, initial.entries, circuit.n, p)
    return DensityMatrix(np.concatenate([initial.entries, *labelled]))


def run_intensity_grid(
    circuit: Circuit, initial: DensityMatrix, intensities: Sequence[float]
) -> Iterator[DensityMatrix]:
    """The state at the last labelled time of ``circuit`` at each dephasing
    intensity in turn, every phase flip taking that intensity.

    Yields stacks of ``_BATCH`` points or fewer, in grid order, each
    computed only when it is asked for: a caller that is done with a stack
    before it takes the next, as ``sweep`` writes its rows, holds one stack
    at a time, whatever the grid's size.  The ops ahead of the first flip
    act alike at every p, so they run once per grid on the one state every
    point shares; that flip broadcasts p along a stack,
    ``(1-p) stack + p (Z stack Z)``, and each later gate is one broadcast
    matmul.  Every point sees exactly the arithmetic of
    ``run_network_density`` on the circuit at its own p, so the states are
    bit-identical to it; and every labelled slice of every point passes the
    same checks, a slice ahead of the first flip once per grid.
    Every intensity is checked to lie in [0, 1] before the first stack.
    """
    for p in intensities:
        _check_intensity(p)
    _same_size(circuit, initial)
    n, ops = circuit.n, circuit.ops
    first = next((i for i, op in enumerate(ops)
                  if isinstance(op, GateOp) and op.kind == "PHASE_FLIP"), len(ops))
    labelled, shared = _walk(ops[:first], initial.entries, n)
    for state in [initial.entries, *labelled]:
        final = DensityMatrix(state)
    for start in range(0, len(intensities), _BATCH):
        chunk = intensities[start:start + _BATCH]
        p = np.array(chunk, dtype=float)[:, np.newaxis, np.newaxis]
        states = final
        for state in _walk(ops[first:], shared, n, p)[0]:
            states = DensityMatrix(state)
        # a final slice that the points share (none after a flip) is repeated for each
        yield states if len(states) == len(chunk) else states[[0] * len(chunk)]


def temporal_average(stages: int, patterns: np.ndarray, initial: DensityMatrix) -> DensityMatrix:
    """Uniform average over ``patterns``, a (k, 2, stages) bool array, of the
    final state of each pattern's circuit: ``build_staged(stages)`` with a Z
    on C after each partial swap the pattern dephases.

    Every such circuit is unitary, and a unitary fixes I.  So one ``eigh``
    splits ``initial`` as ``l * I + sum_i w_i |v_i><v_i|``, l its smallest
    eigenvalue and ``w_i = l_i - l >= 0``, and the average is
    ``l * I + Psi W Psi^dagger / k``: Psi holds each pattern's evolved copy
    of every ``v_i`` whose weight is above 2^n machine epsilons of the
    largest eigenvalue (one for a pseudo-pure state of purity above 0, none
    for I / 2^n); a smaller weight is ``eigh``'s rounding of equal
    eigenvalues, so a state of rank r < 2^n walks r columns, not 2^n - 1.
    The undephased circuit is walked once on all the columns of Psi, each
    gate one matrix product; Z on C negates the rows with C's bit set, in
    the columns of the patterns that dephase that stage.  The sum over patterns is the final product, which reduces in
    pattern order, so the result is bit-stable run to run; it differs from
    evolving the circuits one by one in the last digits.
    """
    patterns = np.asarray(patterns)
    if patterns.dtype != bool or patterns.shape[1:] != (2, stages) or not len(patterns):
        raise ValueError(f"patterns must be a nonempty (k, 2, {stages}) bool array, "
                         f"got {patterns.dtype} of shape {patterns.shape}")
    circuit = _same_size(build_staged(stages), initial)
    n, k = circuit.n, len(patterns)
    values, vectors = np.linalg.eigh(initial.entries[0])
    weights = values - values[0]
    kept = weights > 2 ** n * np.finfo(float).eps * values[-1]
    # column r * k + j of psi is pattern j's copy of the r-th kept eigenvector
    psi = np.repeat(vectors[:, kept], k, axis=1)
    # each partial swap's flips in circuit order, B-C then C-D, tiled over the kept columns
    flips = iter(np.tile(patterns.reshape(k, -1).T, kept.sum()))
    for op in circuit.gates:
        psi = gate_unitary(op, n) @ psi
        if op.kind == "PARTIAL_SWAP":
            # the rows with C's bit set, as a view of psi
            on_c = psi.reshape(2 ** C, 2, 2 ** (n - 1 - C), psi.shape[1])[:, 1]
            np.negative(on_c, out=on_c, where=next(flips))
    # each column times the square root of its weight over k, in place: no
    # temporary of psi's size at the peak of the final product
    psi *= np.repeat(np.sqrt(weights[kept] / k), k)
    return DensityMatrix(values[0] * np.eye(2 ** n) + psi @ psi.conj().T)


def exhaustive_average(stages: int, initial: DensityMatrix) -> DensityMatrix:
    """Exact uniform average of the staged network over every balanced pattern pair.

    Equals ``temporal_average`` over ``exhaustive_patterns(stages)`` up to
    floating-point summation order.  The undephased circuit is walked once
    with one stack of unnormalised state sums per link, indexed by count:
    row i sums the patterns that have dephased i of the link's stages so far.
    At each partial swap, row i becomes the swapped row i plus the sign flip
    (``_dephase``) of the swapped row i-1, and rows above stages/2 are cut.
    Each link ends at a slice of ``build_staged``, where its last row, row
    stages/2, alone goes on; the first slice, before any link, holds the
    initial state alone.
    A row adds at most two terms, whose IEEE sum does not depend on their
    order, so the result is bit-stable run to run.
    """
    if stages < 2 or stages % 2:
        raise ValueError(f"balanced patterns require an even stage count >= 2, got {stages}")
    circuit = _same_size(build_staged(stages), initial)
    half = stages // 2
    mask = _dephase_mask(circuit.n, C)
    stack = initial.entries
    for op in circuit.ops:
        if isinstance(op, TimeSlice):
            stack = stack[-1:]
            continue
        stack = _apply_raw(op, stack, circuit.n)
        if op.kind == "PARTIAL_SWAP":
            flipped = _dephase(stack, mask)
            stack = np.concatenate([stack[:1], stack[1:] + flipped[:-1], flipped[-1:]])[:half + 1]
    return DensityMatrix(stack / pattern_population(stages))


def state_to_bytes(rho: DensityMatrix) -> bytes:
    """Row-major little-endian float64 (re, im) pairs, the layout of a
    little-endian complex128; 16 * 4^n bytes per state."""
    return rho.entries.astype("<c16").tobytes()
