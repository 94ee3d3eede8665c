"""Shared test utilities: an independent dense oracle and random generators.

The reference matrix builders here deliberately avoid the package's own dense
conversion, so symbolic results are always checked against an independent
numerical route; ``ref_gate_unitary`` embeds a gate by a Kronecker product
and a qubit permutation, independently of the package's index arithmetic.
``brute_force_average`` is the reference for the package's dynamic-programming
exhaustive average: it averages over every balanced pattern pair with
``temporal_average``.  ``dense_branch_average`` is the same dynamic program
as a table of state sums keyed by the dephased-stage counts on both links,
with each dephased branch a dense unitary, Z on C times the partial swap: the
byte reference for the per-link count stacks and sign-flip branches of
``exhaustive_average``.  ``scalar_sample_patterns`` and ``scalar_pattern``
draw and unrank patterns one at a time with Python integers
(``unrank_combination``), the reference for the vectorised unranking of
``sample_patterns`` and ``exhaustive_patterns``.  ``per_circuit_average`` is the reference for
``temporal_average``, which walks state vectors of every pattern through the
staged circuit at once: it builds (``pattern_circuit``) and evolves one
concrete circuit per pattern on its density matrix, one at a time.  ``per_point_sweep``
is the reference for the batched ``sweep`` command: it evolves the circuit
once per grid point on both engines.  ``numeric_frames`` is the byte
reference for ``heisenberg.substitute``: the descriptor engine with each
phase flip multiplying by the float 1 - 2p as it goes, where the package
carries the formal factor (1 - 2p) and substitutes p afterwards.
``PRUNE_WINDOW`` and ``near_prune`` give intensities next to where a
term's value crosses ``PRUNE_TOL``, where the package's reads at p are
checked against ``substitute`` and ``numeric_frames``.
``undephased_symmetric`` is the symmetric network built by hand without
its two phase flips, the reference for those flips at p = 0.
``eigvalsh_validate`` is the reference for the positivity check of the
``DensityMatrix`` constructor: ``eigvalsh`` alone, with no Cholesky
certificate ahead of it.  ``unchecked_density`` wraps a stack without the
constructor's checks, so that a test can hand an engine or the CLI a stack
that never passed them.
``random_unitary_circuit`` draws
circuits of every unitary kind, partial swaps included, for the cross-engine
properties.

The rest is test-only code moved out of the package: ``basis_density``,
``apply_phase_flip`` (the package's channel, run as a one-gate circuit),
``slice_count``, ``is_balanced`` and ``parse_word``, the parser of the
rendered descriptor format that the table regressions read.
"""

from __future__ import annotations

import re
from functools import reduce
from math import comb

import numpy as np

from medwit.circuits import (
    A,
    B,
    C,
    D,
    Circuit,
    GateOp,
    SLICE,
    TimeSlice,
    build_staged,
    build_symmetric,
    cnot,
    cphase,
    exhaustive_patterns,
    h,
    partial_swap,
    pattern_population,
    phase_flip,
    swap,
    z,
)
from medwit.density import (
    _PSD_TOL,
    DensityMatrix,
    expectation,
    gate_unitary,
    negativity,
    partial_trace,
    pseudo_pure,
    run_network_density,
    temporal_average,
)
from medwit.heisenberg import (
    Attenuated,
    DescriptorFrame,
    apply_gate_frame,
    descriptor_commutator,
    init_frame,
    observable_image,
    pseudo_pure_expectation,
)
from medwit.pauli import (
    PRUNE_TOL,
    BasisState,
    PauliSum,
    operator_norm,
    qubit_label,
    single,
    witness_observable,
)

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


def basis_density(bits: BasisState) -> DensityMatrix:
    """Projector |bits><bits|."""
    dim = 2 ** bits.n
    entries = np.zeros((dim, dim), dtype=complex)
    entries[bits.index, bits.index] = 1.0
    return DensityMatrix(entries)


def apply_phase_flip(rho: DensityMatrix, qubit: int, p: float) -> DensityMatrix:
    """The package's phase-flip channel (1-p) rho + p Z rho Z on one state,
    run as a one-gate circuit."""
    return run_network_density(Circuit(rho.n, (phase_flip(qubit), SLICE)), rho, p)[-1]


def undephased_symmetric() -> Circuit:
    """The symmetric network's seven gates and three slices, with no phase flip."""
    return Circuit(4, (h(A), cnot(A, B), h(D), cnot(D, C), SLICE, cphase(B, C), SLICE,
                       cnot(A, B), cnot(D, C), SLICE))


def numeric_frames(circuit: Circuit, p: float) -> list[DescriptorFrame]:
    """The descriptor frames at every labelled time of ``circuit``, t_0
    included, with each phase flip multiplying the X/Y terms of the flipped
    qubit's own descriptors by the float 1 - 2p."""
    factor = 1.0 - 2.0 * p

    def attenuate(descriptor: PauliSum, qubit: int) -> PauliSum:
        return PauliSum(descriptor.n, {word: coeff * factor if word[qubit] in "XY" else coeff
                                       for word, coeff in descriptor.items()})

    current = init_frame(circuit.n)
    frames = [current]
    for op in circuit.ops:
        if isinstance(op, TimeSlice):
            frames.append(current)
        elif op.kind == "PHASE_FLIP":
            q = op.qubits[0]
            x, z = list(current.x), list(current.z)
            x[q], z[q] = attenuate(x[q], q), attenuate(z[q], q)
            current = DescriptorFrame(tuple(x), tuple(z))
        else:
            current = apply_gate_frame(current, op)
    return frames


#: 1 - 2p lies in (PRUNE_TOL / 2, PRUNE_TOL], where a numeric frame prunes
#: the attenuated descriptors that the commutator would double
PRUNE_WINDOW = [0.5 - 5e-15, 0.5 + 4e-15]


def near_prune(coefficients) -> list[float]:
    """Intensities on both sides of where each (modulus, power) term's
    modulus, or its power of (1 - 2p), crosses ``PRUNE_TOL``, for either sign
    of 1 - 2p."""
    ps = []
    for modulus, power in coefficients:
        for scale in (1.0, modulus):
            base = (PRUNE_TOL / scale) ** (1 / power)
            ps += [(1 - sign * base * f) / 2 for sign in (1, -1) for f in (0.9, 1.1)]
    return ps


def slice_count(circuit: Circuit) -> int:
    """Number of labelled times, t_0 included."""
    return 1 + sum(1 for op in circuit.ops if isinstance(op, TimeSlice))


def is_balanced(pattern: np.ndarray) -> bool:
    """Whether each link of a (2, stages) pattern dephases exactly half of an
    even stage count."""
    stages = pattern.shape[1]
    return stages % 2 == 0 and bool(np.all(pattern.sum(axis=1) == stages // 2))


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


def random_unitary_circuit(rng: np.random.Generator, n: int, max_depth: int) -> Circuit:
    """Up to ``max_depth`` gates, each with even odds a random Clifford gate
    or a partial swap at an exponent drawn from (0, 1], and each followed by
    a slice with even odds."""
    ops: list = []
    for _ in range(int(rng.integers(1, max_depth + 1))):
        if rng.random() < 0.5:
            ops += random_clifford_gates(rng, n, 1)
        else:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(partial_swap(int(a), int(b), 1.0 - rng.random()))
        if rng.random() < 0.5:
            ops.append(SLICE)
    return Circuit(n, tuple(ops) + (SLICE,))


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


def eigvalsh_validate(entries: np.ndarray) -> None:
    """The positivity check of the ``DensityMatrix`` constructor on a stack,
    by one ``eigvalsh`` alone: the first state with an eigenvalue below -_PSD_TOL
    is an error naming its lowest eigenvalue."""
    lowest = np.linalg.eigvalsh(entries)[:, 0]
    negative = lowest < -_PSD_TOL
    if np.any(negative):
        raise ValueError(
            f"density matrix has negative eigenvalue {lowest[np.argmax(negative)]:.3e}"
        )


def unchecked_density(entries: np.ndarray) -> DensityMatrix:
    """A ``DensityMatrix`` holding the stack ``entries`` as given, with none
    of the constructor's checks."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", entries)
    return rho


def brute_force_average(stages: int, initial: DensityMatrix) -> DensityMatrix:
    """Uniform average of the staged network over all C(s, s/2)^2 balanced pattern pairs."""
    return temporal_average(stages, exhaustive_patterns(stages), initial)


def dense_branch_average(stages: int, initial: DensityMatrix) -> DensityMatrix:
    """The count-keyed exhaustive average, each partial swap branching into
    its plain unitary u and its dephased one, Z on C after it (``z u``), both
    applied as dense conjugations."""
    circuit = build_staged(stages)
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
        branches = ((u, 0), (zc @ u, 1))
        grown = {}
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


def unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Lexicographic unranking of a k-subset of range(n), with Python integers."""
    positions = []
    idx = 0
    while k > 0:
        c = comb(n - 1, k - 1)
        if rank < c:
            positions.append(idx)
            k -= 1
        else:
            rank -= c
        n -= 1
        idx += 1
    return tuple(positions)


def scalar_pattern(index: int, stages: int) -> np.ndarray:
    """The balanced pattern pair of one canonical index, one link rank at a
    time, as a (2, stages) bool row."""
    per_link = comb(stages, stages // 2)
    chosen = [set(unrank_combination(rank, stages, stages // 2))
              for rank in divmod(index, per_link)]
    return np.array([[k in link for k in range(stages)] for link in chosen])


def scalar_sample_patterns(stages: int, count: int, seed: int) -> list[np.ndarray]:
    """``count`` distinct pattern pairs drawn by the package's seeded loop and
    unranked one at a time; the whole population in canonical order."""
    population = pattern_population(stages)
    if count == population:
        return [scalar_pattern(i, stages) for i in range(population)]
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    order: list[int] = []
    while len(order) < count:
        idx = int(rng.integers(population))
        if idx not in seen:
            seen.add(idx)
            order.append(idx)
    return [scalar_pattern(i, stages) for i in order]


def pattern_circuit(stages: int, pattern) -> Circuit:
    """The staged network as one concrete circuit for a (2, stages)
    ``pattern``: every stage is ``SWAP^(1/stages)`` on its link, followed by
    a Z on C where the pattern dephases that stage."""
    alpha = 1.0 / stages
    ops: list = [h(A), cnot(A, B)]
    for u, choices in zip((partial_swap(B, C, alpha), partial_swap(C, D, alpha)), pattern):
        ops.append(SLICE)
        for dephased in choices:
            ops += [u, z(C)] if dephased else [u]
    ops.append(SLICE)
    return Circuit(4, tuple(ops))


def per_circuit_average(stages: int, patterns, initial: DensityMatrix) -> DensityMatrix:
    """Uniform average of each pattern's ``pattern_circuit`` final state,
    evolved alone by ``run_network_density`` and accumulated in pattern order."""
    weight = 1.0 / len(patterns)
    accumulated = None
    for pattern in patterns:
        circuit = pattern_circuit(stages, pattern)
        final = run_network_density(circuit, initial)[-1].entries
        accumulated = weight * final if accumulated is None else accumulated + weight * final
    return DensityMatrix(accumulated)


SWEEP_HEADER = (
    "p,witness_heisenberg,witness_density,negativity_AD,nonclassicality_B,nonclassicality_C"
)
SWEEP_AXES = {"xz-zx": (("x", "z"), ("z", "x")), "xx-zz": (("x", "x"), ("z", "z"))}


def per_point_sweep(grid, epsilon: float = 1.0, bits: str = "0000", axes: str = "xz-zx") -> str:
    """The ``sweep`` CSV, the symmetric network evolved once per grid point
    on both engines, each value read off that point's own state and its
    ``numeric_frames`` final frame."""
    basis = BasisState.from_string(bits)
    witness = witness_observable(4, 0, 3, SWEEP_AXES[axes])
    initial = pseudo_pure(epsilon, basis)
    circuit = build_symmetric()
    lines = [SWEEP_HEADER]
    for p in grid:
        rho = run_network_density(circuit, initial, p)[-1]
        frame = numeric_frames(circuit, p)[-1]
        row = (
            p,
            pseudo_pure_expectation(observable_image(frame, witness), basis, epsilon),
            expectation(rho, witness)[0],
            negativity(partial_trace(rho, [0, 3]), [0])[0],
            operator_norm(descriptor_commutator(frame, 1)),
            operator_norm(descriptor_commutator(frame, 2)),
        )
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"q_([xyz])([A-Z])")
_NUM_RE = re.compile(r"^\d+(?:\.\d+)?")
_ATT_RE = re.compile(r"^\(1-2p\)(?:\^(\d+))?")


def _parse_coefficient(text: str):
    s = text.replace(" ", "")
    sign = 1.0
    if s.startswith("+"):
        s = s[1:]
    if s.startswith("-"):
        sign = -1.0
        s = s[1:]
    value = 1 + 0j
    if s.startswith("i") and not s.startswith("id"):
        value = 1j
        s = s[1:]
    m = _NUM_RE.match(s)
    if m:
        value *= float(m.group())
        s = s[m.end():]
    power = 0
    m = _ATT_RE.match(s)
    if m:
        power = int(m.group(1) or 1)
        s = s[m.end():]
    if s:
        raise ValueError(f"cannot parse coefficient {text!r}")
    value *= sign
    return Attenuated(value, power) if power else value


def parse_word(text: str, n: int) -> PauliSum:
    """Parse one rendered descriptor word back into a PauliSum.

    Factors multiply left to right, so commuting factors may appear in any
    order and repeated-qubit products pick up their algebraic phase.
    """
    labels = "".join(qubit_label(q) for q in range(n))
    text = text.strip()
    if not text:
        raise ValueError("empty descriptor word")
    first = len(text)
    for probe in ("q_", "id"):
        pos = text.find(probe)
        if pos >= 0:
            first = min(first, pos)
    coeff_text, body = text[:first], text[first:]
    coeff = _parse_coefficient(coeff_text) if coeff_text.strip(" ") else 1 + 0j
    body = body.strip()
    word = PauliSum(n, {"I" * n: 1})
    if body != "id":
        consumed = _TOKEN_RE.sub("", body).strip()
        if consumed:
            raise ValueError(f"cannot parse descriptor word {text!r}")
        for axis, label in _TOKEN_RE.findall(body):
            qubit = labels.index(label)
            word = word * single(n, qubit, axis)
    return coeff * word
