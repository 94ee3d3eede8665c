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
circuit once, on state vectors: one copy of the pseudo-pure input's basis
vector per pattern (each pattern's circuit is unitary, so it fixes the
input's multiple of I).  Phase flips
carry no intensity: ``run_network_density`` takes the one p in [0, 1] they
apply, and ``run_intensity_grid`` evolves a circuit with a flip ahead of its
last slice at many intensities as a stack, p broadcast along it, and the ops
ahead of its first flip once per grid.
Every op on a density matrix acts through one action cached per op and
register size (``_gate_action``), which ``apply_gate``, ``_walk`` and the
exhaustive average all read; ``temporal_average``'s walk on state vectors
multiplies by each gate's ``gate_unitary`` and applies Z on C itself, as a
+-1 sign per pattern.  A gate whose full-register unitary is a signed
permutation (Z, CNOT, CPHASE, SWAP; read off its entries) acts by index
arithmetic: two ``take``s along the permutation, then an exact sign flip of
the entries whose row and column signs differ; a phase flip's action is its
Z's.  Both give the bytes of the dense product at no matrix product; H and
partial swaps keep the dense product, whose rounding is part of the bytes.
Every state and kernel result is C-ordered, so a summation over it does not
depend on the layout it came in.
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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .circuits import (
    C,
    Circuit,
    GateOp,
    TimeSlice,
    build_staged,
    local_unitary,
    pattern_population,
    phase_flip,
    z,
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
#: 3 x 40 in-process runs and median peak RSS of 9 subprocesses: 39-41 ms
#: and 32.3 MB at 8, 28.5-28.8 ms and 32.5 MB at 16, 27.2-28.0 ms and
#: 33.1 MB at 32; each stack pays a fixed cost of numpy calls
_BATCH = 16

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10


@lru_cache(maxsize=MAX_QUBITS)
def _psd_shift(dim: int) -> np.ndarray:
    """``_PSD_TOL / 2`` times the dim x dim identity, the positivity
    check's shift; read-only."""
    shift = (_PSD_TOL / 2) * np.eye(dim)
    shift.setflags(write=False)
    return shift


@dataclass(frozen=True)
class DensityMatrix:
    """A stack of k >= 1 finite, Hermitian, trace-one, positive semidefinite
    2^n x 2^n operators, shape (k, 2^n, 2^n); a 2^n x 2^n matrix is a stack
    of one.  Entries are a read-only C-ordered copy, whatever the input's
    layout.  Positivity is checked last: a Cholesky factorisation of every
    state plus ``_PSD_TOL / 2`` times I that completes with a finite factor
    certifies each lowest eigenvalue above -_PSD_TOL / 2 less rounding,
    which a backward-stable ``eigvalsh`` reads above -_PSD_TOL, so the
    stack passes.  Otherwise one ``eigvalsh``
    decides, as if the factorisation had not been tried: the first state
    with an eigenvalue below -_PSD_TOL is an error naming its lowest
    eigenvalue.  Both read the lower triangle."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex, ndmin=3, order="C")
        k, dim = entries.shape[:2]
        if entries.shape != (k, dim, dim) or dim & (dim - 1) or dim < 2 or k < 1:
            raise ValueError(f"entries must be a nonempty stack of square power-of-two "
                             f"matrices, got {entries.shape}")
        n = dim.bit_length() - 1
        if n > MAX_QUBITS:
            raise ValueError(f"dense engine is limited to {MAX_QUBITS} qubits; got n={n}")
        if not np.isfinite(entries).all():
            raise ValueError("density matrix has a non-finite (NaN or infinite) entry")
        if np.abs(entries - np.swapaxes(entries.conj(), -1, -2)).max() > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        traces = np.trace(entries, axis1=-2, axis2=-1)
        off = np.abs(traces - 1.0) > _TRACE_TOL
        if np.any(off):
            raise ValueError(f"density matrix trace is {traces[np.argmax(off)]:.6g}, expected 1")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        try:
            if np.isfinite(np.linalg.cholesky(entries + _psd_shift(dim))).all():
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
def gate_unitary(gate: GateOp, n: int) -> np.ndarray:
    """Read-only dense unitary of a gate on the full n-qubit register, read
    once per gate and register size: its ``local_unitary`` matrix /
    sqrt(scale), embedded by ``_embed``."""
    if gate.kind == "PHASE_FLIP":
        raise ValueError("phase flip is a channel, not a unitary")
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for n={n}")
    matrix, scale = local_unitary(gate.kind, gate.alpha)
    u = _embed(matrix / np.sqrt(scale), gate.qubits, n)
    u.setflags(write=False)
    return u


def apply_gate(rho: DensityMatrix, gate: GateOp) -> DensityMatrix:
    """U rho U^dagger, by ``_apply_raw``; a phase flip is an error."""
    return DensityMatrix(_apply_raw(gate, rho.entries, rho.n))


class _SignedPermutation(NamedTuple):
    """A unitary u with one entry +-1 in each row, u[i, perm[i]] = s[i], and
    +0 elsewhere: (u e u^dagger)[i, j] = s[i] s[j] e[perm[i], perm[j]].
    ``flips`` marks the (i, j) where s[i] != s[j], or is None if none does.
    Both arrays are read-only."""

    perm: np.ndarray
    flips: np.ndarray | None


@lru_cache(maxsize=512)
def _gate_action(op: GateOp, n: int) -> _SignedPermutation | np.ndarray:
    """How ``_apply_raw`` applies an op, read once per op and register size
    off a ``gate_unitary`` u, the op's own or, for a phase flip, its Z's: a
    ``_SignedPermutation`` if u's entries make it one (Z, CNOT, CPHASE, SWAP,
    and so every phase flip), else u itself (H, partial swaps)."""
    u = gate_unitary(z(op.qubits[0]) if op.kind == "PHASE_FLIP" else op, n)
    perm = np.argmax(u != 0, axis=1)
    signs = u[np.arange(len(u)), perm]
    if np.count_nonzero(u) != len(u) or not ((signs == 1) | (signs == -1)).all():
        return u
    flips = signs[:, np.newaxis] != signs
    perm.setflags(write=False)
    flips.setflags(write=False)
    return _SignedPermutation(perm, flips if flips.any() else None)


def _dephase(entries: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """The sign flip of a ``_SignedPermutation``'s conjugation on each state,
    negating exactly the ``flips`` entries: ``0 - x`` negates exactly and
    gives +0 for a zero, as the dense product with the +-1 entries does.
    The other entries are kept, which the product also does for a state
    holding no -0, as every matrix product leaves it; so the bytes are the
    same, in C order."""
    return np.where(flips, 0 - entries, entries)


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
    """One gate or channel on a state, or on each state of a stack along axis 0,
    by its ``_gate_action``; a phase flip takes the dephasing intensity ``p``,
    one per state as a (k, 1, 1) array.  A signed permutation is two ``take``s
    and ``_dephase``, any other gate the dense product; each gives C-ordered entries."""
    action = _gate_action(op, n)
    if op.kind == "PHASE_FLIP":
        if p is None:
            raise ValueError("a phase flip needs a dephasing intensity p")
        # the phase-flip channel (1-p) rho + p Z rho Z; p may be a (k, 1, 1) array
        return (1.0 - p) * entries + p * _dephase(entries, action.flips)
    if isinstance(action, np.ndarray):
        return action @ entries @ action.conj().T
    entries = entries.take(action.perm, axis=-2).take(action.perm, axis=-1)
    return entries if action.flips is None else _dephase(entries, action.flips)


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
    ``(1-p) stack + p (Z stack Z)``, and each later gate acts on the whole
    stack at once, by index arithmetic or one broadcast matmul.  Every point
    sees exactly the arithmetic of ``run_network_density`` on the circuit at
    its own p, so the states are bit-identical to it; and every labelled
    slice of every point passes the same checks, a slice ahead of the first
    flip once per grid.
    A circuit whose last slice no flip precedes has one final state at every
    p, and is an error, as is an intensity outside [0, 1]; both are checked
    before the first stack.
    """
    for p in intensities:
        _check_intensity(p)
    _same_size(circuit, initial)
    n, ops = circuit.n, circuit.ops
    first = next((i for i, op in enumerate(ops)
                  if isinstance(op, GateOp) and op.kind == "PHASE_FLIP"), len(ops))
    if not any(isinstance(op, TimeSlice) for op in ops[first:]):
        raise ValueError("an intensity grid needs a phase flip ahead of the circuit's last "
                         "slice; without one every p gives the same final state")
    labelled, shared = _walk(ops[:first], initial.entries, n)
    for state in [initial.entries, *labelled]:
        DensityMatrix(state)
    for start in range(0, len(intensities), _BATCH):
        p = np.array(intensities[start:start + _BATCH], dtype=float)[:, np.newaxis, np.newaxis]
        for state in _walk(ops[first:], shared, n, p)[0]:
            states = DensityMatrix(state)
        yield states


def temporal_average(stages: int, patterns: np.ndarray, epsilon: float,
                     bits: BasisState) -> DensityMatrix:
    """Uniform average over ``patterns``, a (k, 2, stages) bool array, of the
    final state of each pattern's circuit from ``pseudo_pure(epsilon, bits)``:
    ``build_staged(stages)`` with a Z on C after each partial swap the
    pattern dephases.

    Every such circuit is unitary, and a unitary fixes I.  The input is
    ``l * I + w |bits><bits|``, l and l + w its smallest and largest stored
    diagonal entries (w is epsilon up to rounding), so the average is
    ``l * I + Psi Psi^dagger``, column j of Psi pattern j's evolved |bits>
    times sqrt(w / k).  The undephased circuit is walked once on all k
    columns, each gate one matrix product.  Z on C after a stage is one
    in-place multiply of the rows with C's bit set by a row of k signs, -1
    in the columns of the patterns that dephase that stage and +1 elsewhere.
    The sum over patterns is the final product, which reduces in pattern
    order, so the result is bit-stable run to run; it differs from evolving
    the circuits one by one in the last digits.

    Zero signs in Psi never reach the result, so any exact sign step gives
    these bytes: a +-1 multiply keeps or negates each nonzero part exactly;
    a +-0 term leaves any nonzero sum in the matrix products as it is; and
    each entry of the result adds an entry of ``Psi Psi^dagger`` to one of
    ``l * I``, which holds no -0 as l >= 0, and +0 + -0 = +0.
    """
    patterns = np.asarray(patterns)
    if patterns.dtype != bool or patterns.shape[1:] != (2, stages) or not len(patterns):
        raise ValueError(f"patterns must be a nonempty (k, 2, {stages}) bool array, "
                         f"got {patterns.dtype} of shape {patterns.shape}")
    initial = pseudo_pure(epsilon, bits)
    circuit = _same_size(build_staged(stages), initial)
    n, k = circuit.n, len(patterns)
    diagonal = initial.entries[0].diagonal().real
    low = diagonal.min()
    psi = np.zeros((2 ** n, k), dtype=complex)
    psi[bits.index] = 1.0
    # each partial swap's flips in circuit order, B-C then C-D
    flips = iter(patterns.reshape(k, -1).T)
    for op in circuit.gates:
        psi = gate_unitary(op, n) @ psi
        if op.kind == "PARTIAL_SWAP":
            # Z on C: the rows with C's bit set, a view of psi, times each column's sign
            psi.reshape(2 ** C, 2, 2 ** (n - 1 - C), k)[:, 1] *= np.where(
                next(flips), np.int8(-1), np.int8(1))
    # in place: no temporary of psi's size at the peak of the final product
    psi *= np.sqrt((diagonal.max() - low) / k)
    return DensityMatrix(low * np.eye(2 ** n) + psi @ psi.conj().T)


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
    flips = _gate_action(phase_flip(C), circuit.n).flips
    stack = initial.entries
    for op in circuit.ops:
        if isinstance(op, TimeSlice):
            stack = stack[-1:]
            continue
        stack = _apply_raw(op, stack, circuit.n)
        if op.kind == "PARTIAL_SWAP":
            flipped = _dephase(stack, flips)
            stack = np.concatenate([stack[:1], stack[1:] + flipped[:-1], flipped[-1:]])[:half + 1]
    return DensityMatrix(stack / pattern_population(stages))


def state_to_bytes(rho: DensityMatrix) -> bytes:
    """Row-major little-endian float64 (re, im) pairs, the layout of a
    little-endian complex128; 16 * 4^n bytes per state."""
    return rho.entries.astype("<c16").tobytes()
