"""Shared test utilities: an independent dense oracle and random generators.

The reference matrix builders here deliberately avoid the package's own dense
conversion, so symbolic results are always checked against an independent
numerical route; ``ref_gate_unitary`` embeds a gate by a Kronecker product
and a qubit permutation, independently of the package's index arithmetic.
``brute_force_average`` is the reference for the package's dynamic-programming
exhaustive average: it averages over every balanced pattern pair with
``temporal_average``.  ``per_circuit_average`` is the reference for
``temporal_average``, which walks one stack of patterns through the staged
circuit: it builds (``pattern_circuit``) and evolves one concrete circuit per
pattern, one at a time.  ``per_point_sweep``
is the reference for the batched ``sweep`` command: it builds and evolves one
circuit per grid point on both engines.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from medwit.circuits import (
    A,
    B,
    C,
    D,
    Circuit,
    GateOp,
    SLICE,
    build_symmetric,
    cnot,
    cphase,
    exhaustive_patterns,
    h,
    partial_swap,
    swap,
    z,
)
from medwit.density import (
    DensityMatrix,
    expectation,
    negativity,
    partial_trace,
    pseudo_pure,
    run_network_density,
    temporal_average,
)
from medwit.heisenberg import frame_expectation, nonclassicality_degree, run_network_frames
from medwit.pauli import BasisState, PauliSum, witness_observable

#: the four phases a product of Pauli words can carry
PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

REF_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def ref_word_matrix(letters: str) -> np.ndarray:
    return reduce(np.kron, (REF_PAULI[l] for l in letters))


def one_word(letters: str, phase: complex = 1) -> PauliSum:
    """A single Pauli word with its phase, as a one-word sum."""
    return PauliSum(len(letters), {letters: phase})


def ref_term_matrix(term: PauliSum) -> np.ndarray:
    ((letters, phase),) = term.items()
    return phase * ref_word_matrix(letters)


def ref_sum_matrix(psum: PauliSum) -> np.ndarray:
    dim = 2 ** psum.n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in psum.items():
        out += complex(coeff) * ref_word_matrix(word)
    return out


_REF_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
REF_LOCAL = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Z": REF_PAULI["Z"],
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CPHASE": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": _REF_SWAP,
}


def ref_partial_swap(alpha: float) -> np.ndarray:
    """SWAP^alpha on the principal branch: the antisymmetric subspace picks up
    exp(i*pi*alpha), the symmetric one is fixed."""
    p_sym = (np.eye(4, dtype=complex) + _REF_SWAP) / 2
    p_anti = (np.eye(4, dtype=complex) - _REF_SWAP) / 2
    return p_sym + np.exp(1j * np.pi * alpha) * p_anti


def ref_gate_unitary(gate: GateOp, n: int) -> np.ndarray:
    """Local matrix (x) identity, with the tensor axes permuted onto the gate's qubits."""
    local = ref_partial_swap(gate.alpha) if gate.kind == "PARTIAL_SWAP" else REF_LOCAL[gate.kind]
    k = len(gate.qubits)
    full = np.kron(local, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    # axis i of ``full`` belongs to qubit order[i]
    order = list(gate.qubits) + [q for q in range(n) if q not in gate.qubits]
    axes = list(np.argsort(order))
    return full.transpose(axes + [a + n for a in axes]).reshape(2 ** n, 2 ** n)


def ref_basis_vector(bits) -> np.ndarray:
    dim = 2 ** len(bits)
    vec = np.zeros(dim, dtype=complex)
    vec[int("".join(str(b) for b in bits), 2)] = 1.0
    return vec


def random_term(rng: np.random.Generator, n: int) -> PauliSum:
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    return one_word(letters, PHASES[rng.integers(4)])


def random_sum(rng: np.random.Generator, n: int, max_terms: int = 4) -> PauliSum:
    count = int(rng.integers(1, max_terms + 1))
    terms = {}
    for _ in range(count):
        word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms[word] = terms.get(word, 0) + complex(rng.normal(), rng.normal())
    return PauliSum(n, terms)


def random_clifford_gates(rng: np.random.Generator, n: int, depth: int) -> list[GateOp]:
    gates = []
    for _ in range(depth):
        kind = rng.integers(5)
        if kind == 0:
            gates.append(h(int(rng.integers(n))))
        elif kind == 1:
            gates.append(z(int(rng.integers(n))))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            factory = (cnot, cphase, swap)[kind - 2]
            gates.append(factory(int(a), int(b)))
    return gates


def random_clifford_circuit(rng: np.random.Generator, n: int, max_depth: int) -> Circuit:
    depth = int(rng.integers(1, max_depth + 1))
    return Circuit(n, tuple(random_clifford_gates(rng, n, depth)) + (SLICE,))


def haar_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_density(rng: np.random.Generator, n: int, rank: int = 3) -> DensityMatrix:
    dim = 2 ** n
    weights = rng.dirichlet(np.ones(rank))
    entries = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = haar_vector(rng, dim)
        entries += w * np.outer(vec, vec.conj())
    return DensityMatrix(entries)


def brute_force_average(
    stages: int, initial: DensityMatrix, interleaved: bool = False, z_first: bool = False
) -> DensityMatrix:
    """Uniform average of the staged network over all C(s, s/2)^2 balanced pattern pairs."""
    return temporal_average(
        stages, exhaustive_patterns(stages), initial, interleaved=interleaved, z_first=z_first
    )


def pattern_circuit(
    stages: int, pattern, interleaved: bool = False, z_first: bool = False
) -> Circuit:
    """The staged network as one concrete circuit for ``pattern``: every stage
    is ``SWAP^(1/stages)`` on its link, followed by a Z on C where the pattern
    dephases that stage, or preceded by it with ``z_first``."""
    alpha = 1.0 / stages
    u_bc, u_cd, z_c = partial_swap(B, C, alpha), partial_swap(C, D, alpha), z(C)

    def stage(u: GateOp, dephased: bool) -> list[GateOp]:
        if not dephased:
            return [u]
        return [z_c, u] if z_first else [u, z_c]

    ops: list = [h(A), cnot(A, B), SLICE]
    if interleaved:
        for bc, cd in zip(pattern.bc_choices, pattern.cd_choices):
            ops += stage(u_bc, bc) + stage(u_cd, cd)
    else:
        for bc in pattern.bc_choices:
            ops += stage(u_bc, bc)
        ops.append(SLICE)
        for cd in pattern.cd_choices:
            ops += stage(u_cd, cd)
    ops.append(SLICE)
    return Circuit(4, tuple(ops))


def per_circuit_average(
    stages: int, patterns, initial: DensityMatrix, interleaved: bool = False, z_first: bool = False
) -> DensityMatrix:
    """Uniform average of each pattern's ``pattern_circuit`` final state,
    evolved alone by ``run_network_density`` and accumulated in pattern order."""
    weight = 1.0 / len(patterns)
    accumulated = None
    for pattern in patterns:
        circuit = pattern_circuit(stages, pattern, interleaved=interleaved, z_first=z_first)
        final = run_network_density(circuit, initial)[-1].entries
        accumulated = weight * final if accumulated is None else accumulated + weight * final
    return DensityMatrix(accumulated)


SWEEP_HEADER = (
    "p,witness_heisenberg,witness_density,negativity_AD,nonclassicality_B,nonclassicality_C"
)
SWEEP_AXES = {"xz-zx": (("x", "z"), ("z", "x")), "xx-zz": (("x", "x"), ("z", "z"))}


def per_point_sweep(grid, epsilon: float = 1.0, bits: str = "0000", axes: str = "xz-zx") -> str:
    """The ``sweep`` CSV, one symmetric-network circuit built and evolved per
    grid point on both engines, each value read off that point's own state
    and final frame."""
    basis = BasisState.from_string(bits)
    witness = witness_observable(4, 0, 3, SWEEP_AXES[axes])
    initial = pseudo_pure(epsilon, basis)
    lines = [SWEEP_HEADER]
    for p in grid:
        circuit = build_symmetric(p)
        rho = run_network_density(circuit, initial)[-1]
        frame = run_network_frames(circuit)[-1]
        row = (
            p,
            frame_expectation(frame, witness, basis, epsilon),
            expectation(rho, witness)[0],
            negativity(partial_trace(rho, [0, 3]), [0])[0],
            nonclassicality_degree(frame, 1),
            nonclassicality_degree(frame, 2),
        )
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
