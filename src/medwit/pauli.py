"""Symbolic algebra of n-qubit Pauli words and complex-weighted Pauli polynomials.

``PauliSum`` is the one operator type: a single word with its phase is a
one-word sum, and products keep exact phases through the letter table.

Conventions, fixed project-wide: qubit 0 is the leftmost tensor factor and the
most significant bit of a computational-basis index.  All values here are
immutable after construction.

A Pauli word P maps each basis state to one other, ``P|j> = phase[j] |j ^ flip>``,
where ``flip`` has a bit set on every X or Y letter and ``phase[j]`` is
i^(number of Y letters) times (-1)^(parity of j's bits on the Y and Z letters).
``dense`` scatters those phases into a zero matrix, one entry per column, from
a small per-word cache of the index and phase vectors.  Because a word is
unitary, ``operator_norm`` of a one-word sum is the modulus of its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

__all__ = [
    "BasisState",
    "PauliSum",
    "basis_sign",
    "commutator",
    "expectation_basis",
    "hermitian_value",
    "identity_component",
    "operator_norm",
    "qubit_label",
    "single",
    "witness_observable",
]

PAULI_LETTERS = "IXYZ"

#: coefficients below this modulus are pruned, keeping sums canonical under
#: repeated algebra
PRUNE_TOL = 1e-14
_IMAG_TOL = 1e-12
#: largest register ``operator_norm`` evaluates densely
_NORM_QUBITS = 6

# single-qubit products a*b -> (phase, letter)
_MUL1 = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def qubit_label(index: int) -> str:
    """Letter label for a qubit index: 0 -> 'A', 1 -> 'B', ..."""
    return chr(ord("A") + index) if 0 <= index < 26 else str(index)


def _as_scalar(c):
    # keep coefficients as builtin complex where possible so numpy scalars
    # never leak into term maps; symbolic coefficients pass through
    try:
        return complex(c)
    except TypeError:
        return c


def _word_mul(a: str, b: str) -> tuple[complex, str]:
    phase = 1 + 0j
    letters = []
    for la, lb in zip(a, b):
        ph, letter = _MUL1[la, lb]
        phase *= ph
        letters.append(letter)
    return phase, "".join(letters)


@lru_cache(maxsize=256)
def _word_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Row index and phase of each column of a word's matrix: column j holds
    ``phase[j]`` in row ``rows[j] = j ^ flip`` and zeros elsewhere.  The arrays
    are shared through the cache and therefore read-only."""
    flip = sign = 0
    for letter in letters:
        flip = flip << 1 | (letter in "XY")
        sign = sign << 1 | (letter in "YZ")
    cols = np.arange(2 ** len(letters))
    parity = np.zeros_like(cols)
    for bit in range(len(letters)):
        if sign >> bit & 1:
            parity ^= cols >> bit & 1
    # Y = i X Z, so each Y letter contributes a factor i beside its Z sign
    y_phase = (1 + 0j, 1j, -1 + 0j, -1j)[letters.count("Y") % 4]
    phases = np.where(parity == 1, -y_phase, y_phase)
    rows = cols ^ flip
    rows.setflags(write=False)
    phases.setflags(write=False)
    return rows, phases


@dataclass(frozen=True)
class BasisState:
    """Computational-basis state |b_0 b_1 ... b_{n-1}>, qubit 0 most significant."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be a nonempty 0/1 sequence, got {self.bits!r}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_string(cls, text: str) -> "BasisState":
        return cls(tuple(int(c) for c in text.strip()))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """Basis index with qubit 0 as the most significant bit."""
        return int("".join(str(b) for b in self.bits), 2)

    def __str__(self) -> str:
        return "|" + "".join(str(b) for b in self.bits) + ">"


class PauliSum:
    """Complex-weighted sum of Pauli words in canonical form.

    Canonical means: each letter word appears at most once and no coefficient
    is below ``PRUNE_TOL`` in modulus.  Coefficients are builtin complex
    numbers or, in symbolically attenuated descriptors, ``heisenberg.Attenuated``
    terms c (1 - 2p)^k, which support ``+``, ``*`` and ``abs``.
    """

    __slots__ = ("n", "_terms", "_dense")

    def __init__(self, n: int, terms: Mapping[str, complex] | None = None):
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        scalars: dict[str, complex] = {}
        for word, coeff in (terms or {}).items():
            if len(word) != n or any(l not in PAULI_LETTERS for l in word):
                raise ValueError(f"bad Pauli word {word!r} for n={n}")
            scalars[word] = _as_scalar(coeff)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "_terms", {w: c for w, c in scalars.items() if abs(c) > PRUNE_TOL}
        )
        object.__setattr__(self, "_dense", None)

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, {})

    def items(self) -> list[tuple[str, complex]]:
        """Terms as (word, coefficient) pairs, sorted by word for determinism."""
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, word: str) -> complex:
        return self._terms.get(word, 0j)

    def _binary(self, other, sign) -> "PauliSum":
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
        terms = dict(self._terms)
        for word, coeff in other._terms.items():
            terms[word] = _as_scalar(terms.get(word, 0j) + sign * coeff)
        return PauliSum(self.n, terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return self._binary(other, 1)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self._binary(other, -1)

    def __neg__(self) -> "PauliSum":
        return PauliSum(self.n, {w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n != other.n:
                raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
            terms: dict[str, complex] = {}
            for wa, ca in self._terms.items():
                for wb, cb in other._terms.items():
                    phase, word = _word_mul(wa, wb)
                    coeff = ca * cb * phase
                    acc = terms.get(word)
                    terms[word] = coeff if acc is None else acc + coeff
            return PauliSum(self.n, terms)
        return PauliSum(self.n, {w: c * other for w, c in self._terms.items()})

    def __rmul__(self, scalar) -> "PauliSum":
        return PauliSum(self.n, {w: scalar * c for w, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def dense(self) -> np.ndarray:
        """Dense matrix realization; requires numeric coefficients.

        Each term is scattered from its word's index-flip action into a zero
        matrix, one entry per column, accumulating in insertion order.  The
        matrix is built once per sum and shared, so it is read-only."""
        if self._dense is None:
            dim = 2 ** self.n
            out = np.zeros((dim, dim), dtype=complex)
            cols = np.arange(dim)
            for word, coeff in self._terms.items():
                rows, phases = _word_action(word)
                out[rows, cols] += complex(coeff) * phases
            out.setflags(write=False)
            object.__setattr__(self, "_dense", out)
        return self._dense

    def __repr__(self) -> str:
        if not self._terms:
            return f"PauliSum(n={self.n}, 0)"
        body = " + ".join(f"({c})*{w}" for w, c in self.items())
        return f"PauliSum(n={self.n}, {body})"


def single(n: int, qubit: int, axis: str) -> PauliSum:
    """Single-letter word: the given Pauli axis on one qubit, identity elsewhere."""
    axis = axis.upper()
    if axis not in "XYZ":
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    return PauliSum(n, {"I" * qubit + axis + "I" * (n - qubit - 1): 1})


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """ab - ba in canonical form."""
    return a * b - b * a


def operator_norm(a: PauliSum) -> float:
    """Spectral norm (largest singular value) of ``a``; requires numeric
    coefficients and refuses registers above ``_NORM_QUBITS``.

    A one-word sum c*P has norm |c| exactly, since a Pauli word is unitary.
    A sum of several words is evaluated densely, by the SVD of ``a.dense()``.
    """
    if a.n > _NORM_QUBITS:
        raise ValueError(
            f"operator_norm evaluates densely and is limited to {_NORM_QUBITS} qubits; got n={a.n}"
        )
    if not a:
        return 0.0
    if len(a) == 1:
        ((_, coeff),) = a.items()
        return abs(complex(coeff))
    return float(np.linalg.norm(a.dense(), ord=2))


def basis_sign(state: BasisState, word: str) -> int:
    """<state|P|state> for a Pauli word P: 0 if P has an X or Y letter, else
    the parity (-1)^(the state's bits on P's Z letters)."""
    if any(l in "XY" for l in word):
        return 0
    return (-1) ** (sum(b for b, l in zip(state.bits, word) if l == "Z") % 2)


def expectation_basis(state: BasisState, a: PauliSum) -> float:
    """<state|a|state> for a computational-basis state.

    Each term contributes its coefficient times ``basis_sign``, so only the
    words in {I, Z} contribute; ``hermitian_value`` takes the real part.
    """
    if state.n != a.n:
        raise ValueError(f"qubit count mismatch: state n={state.n}, operator n={a.n}")
    total = 0j
    for word, coeff in a.items():
        sign = basis_sign(state, word)
        if sign:
            total += complex(coeff) * sign
    return float(hermitian_value(total))


def hermitian_value(total, tol: float = _IMAG_TOL):
    """The real part of an expectation, a complex number or an array of them.
    An imaginary residue above ``tol`` means the operator was not Hermitian
    and is reported; ``density.expectation`` passes the skew a state admits."""
    residue = np.ravel(np.imag(total))
    beyond = np.flatnonzero(np.abs(residue) > tol)
    if beyond.size:
        raise ValueError(
            f"expectation has imaginary residue {residue[beyond[0]]:g}; operator is not Hermitian"
        )
    return np.real(total)


def identity_component(a: PauliSum) -> complex:
    """Coefficient of the all-identity word (equals Tr(a) / 2^n)."""
    return complex(a.coefficient("I" * a.n))


def witness_observable(
    n: int,
    probe1: int,
    probe2: int,
    axes: tuple[tuple[str, str], tuple[str, str]] = (("x", "z"), ("z", "x")),
) -> PauliSum:
    """The witness both engines evaluate: the probes' two-point correlator
    summed over both axis pairs, probe1's factor first (e.g. X_A Z_D + Z_A X_D)."""
    if probe1 == probe2:
        raise ValueError("probes must be distinct qubits")
    if any(axis not in ("x", "z") for pair in axes for axis in pair):
        raise ValueError(f"witness axes must be x or z, got {axes!r}")
    (a1, a2), (b1, b2) = axes
    first = single(n, probe1, a1) * single(n, probe2, a2)
    second = single(n, probe1, b1) * single(n, probe2, b2)
    return first + second
