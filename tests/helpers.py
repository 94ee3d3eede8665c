"""Shared test utilities: an independent dense oracle and random generators.

The reference matrix builders here deliberately avoid the package's own dense
conversion, so symbolic results are always checked against an independent
numerical route.  ``brute_force_average`` is the reference for the package's
dynamic-programming exhaustive average: it builds and evolves one concrete
circuit per balanced pattern pair.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from medwit.circuits import (
    Circuit,
    GateOp,
    SLICE,
    build_staged,
    cnot,
    cphase,
    exhaustive_patterns,
    h,
    swap,
    z,
)
from medwit.density import DensityMatrix, temporal_average
from medwit.pauli import PauliSum, PauliTerm

REF_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def ref_word_matrix(letters: str) -> np.ndarray:
    return reduce(np.kron, (REF_PAULI[l] for l in letters))


def ref_term_matrix(term: PauliTerm) -> np.ndarray:
    return term.phase * ref_word_matrix(term.letters)


def ref_sum_matrix(psum: PauliSum) -> np.ndarray:
    dim = 2 ** psum.n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in psum.items():
        out += complex(coeff) * ref_word_matrix(word)
    return out


def ref_basis_vector(bits) -> np.ndarray:
    dim = 2 ** len(bits)
    vec = np.zeros(dim, dtype=complex)
    vec[int("".join(str(b) for b in bits), 2)] = 1.0
    return vec


def random_term(rng: np.random.Generator, n: int) -> PauliTerm:
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    phase = (1, -1, 1j, -1j)[rng.integers(4)]
    return PauliTerm(letters, phase)


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
        lambda pat: build_staged(stages, pat, interleaved=interleaved, z_first=z_first),
        exhaustive_patterns(stages),
        initial,
    )
