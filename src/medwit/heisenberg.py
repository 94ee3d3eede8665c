"""Heisenberg-picture descriptor engine.

Each qubit is tracked through a pair of evolved observables, its x- and
z-descriptors: the Heisenberg images of its initial X and Z (Deutsch and
Hayden, quant-ph/9906007), while the reference state stays fixed.  Every
unitary gate G acts the same way: each qubit q of G takes the image of
G^dagger X_q G and of G^dagger Z_q G under the current frame.  Those
conjugations are expanded into Pauli words on the gate's own qubits once per
gate kind and exponent (``gate_images``), from the matrix of the gate table
``circuits.local_unitary`` that the density engine embeds, and each word is
read in place, its letters naming the gate's qubits.  Clifford entries
are integers there, so a Clifford gate maps descriptors to exact signed
products of descriptors and evolution stays exact and symbolic; a partial
swap mixes them with rounded real weights.  The dephasing channel acts as an
effective attenuation of the dephased qubit's own descriptors.  Frames are
immutable values: every operation returns a new frame.  An observable, such
as the ``pauli.witness_observable`` witness, is read off a frame in two
steps: its Heisenberg image (``observable_image``), then the image's value
on the pseudo-pure input (``pseudo_pure_expectation``).  An image, or the
commutator behind ``nonclassicality_degree``, taken once off a frame evolved
with a symbolic intensity gives the value at any p by ``substitute``, as if
the frame had been evolved at that p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .circuits import SYMBOLIC_P, Circuit, GateOp, TimeSlice, local_unitary
from .pauli import (
    PRUNE_TOL,
    BasisState,
    PauliSum,
    commutator,
    expectation_basis,
    identity_component,
    operator_norm,
    qubit_label,
    single,
)

__all__ = [
    "ATTENUATION",
    "AttenuationPoly",
    "DescriptorFrame",
    "apply_dephasing_frame",
    "apply_gate_frame",
    "descriptor_commutator",
    "frame_observable",
    "frames_to_dict",
    "gate_images",
    "init_frame",
    "nonclassicality_degree",
    "observable_image",
    "pseudo_pure_expectation",
    "render_sum",
    "render_table",
    "run_network_frames",
    "substitute",
]


class AttenuationPoly:
    """Polynomial in the formal dephasing attenuation factor (1 - 2p).

    Used as a descriptor coefficient when the channel intensity is carried
    symbolically; substitute a numeric p to recover a plain complex number.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex]):
        clean = {}
        for k, v in coeffs.items():
            v = complex(v)
            if v != 0:
                clean[int(k)] = v
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AttenuationPoly is immutable")

    @staticmethod
    def _lift(x) -> dict[int, complex]:
        if isinstance(x, AttenuationPoly):
            return dict(x._coeffs)
        return {0: complex(x)}

    def _wrap(self, coeffs: dict[int, complex]):
        poly = AttenuationPoly(coeffs)
        # collapse to a plain number once no formal power remains
        if set(poly._coeffs) <= {0}:
            return poly._coeffs.get(0, 0j)
        return poly

    def __add__(self, other):
        try:
            lifted = self._lift(other)
        except TypeError:
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in lifted.items():
            out[k] = out.get(k, 0j) + v
        return self._wrap(out)

    __radd__ = __add__

    def __mul__(self, other):
        try:
            lifted = self._lift(other)
        except TypeError:
            return NotImplemented
        out: dict[int, complex] = {}
        for ka, va in self._coeffs.items():
            for kb, vb in lifted.items():
                out[ka + kb] = out.get(ka + kb, 0j) + va * vb
        return self._wrap(out)

    __rmul__ = __mul__

    def __abs__(self) -> float:
        return max((abs(v) for v in self._coeffs.values()), default=0.0)

    def __complex__(self) -> complex:
        if set(self._coeffs) <= {0}:
            return self._coeffs.get(0, 0j)
        raise TypeError(
            "coefficient carries a symbolic attenuation factor; substitute a numeric p first"
        )

    def __eq__(self, other) -> bool:
        try:
            return self._coeffs == self._lift(other)
        except TypeError:
            return NotImplemented

    def powers(self) -> list[tuple[int, complex]]:
        return sorted(self._coeffs.items())

    def at(self, p: float) -> complex:
        """Numeric value with the channel intensity substituted.

        A power of (1 - 2p) at or below ``PRUNE_TOL`` in modulus counts as 0,
        as in a frame evolved at that p, where a descriptor term is a unit
        phase times such a power and is pruned as soon as the channel or a
        product makes it that small, before a commutator or a sum of terms
        could double it back above the tolerance.
        """
        base = 1.0 - 2.0 * p
        return sum(
            v * base ** k
            for k, v in self._coeffs.items()
            if k == 0 or abs(base ** k) > PRUNE_TOL
        )

    def __repr__(self) -> str:
        return f"AttenuationPoly({self._coeffs!r})"


#: the bare formal factor (1 - 2p)
ATTENUATION = AttenuationPoly({1: 1.0})


@dataclass(frozen=True)
class DescriptorFrame:
    """Per-qubit {x-descriptor, z-descriptor} pairs at one time slice."""

    time_index: int
    x: tuple[PauliSum, ...]
    z: tuple[PauliSum, ...]

    @property
    def n(self) -> int:
        return len(self.x)

    def descriptor(self, qubit: int, axis: str) -> PauliSum:
        axis = axis.lower()
        if axis == "x":
            return self.x[qubit]
        if axis == "z":
            return self.z[qubit]
        if axis == "y":
            return 1j * (self.x[qubit] * self.z[qubit])
        raise ValueError(f"axis must be x, y or z, got {axis!r}")


def init_frame(n: int) -> DescriptorFrame:
    """Canonical initial frame: bare X and Z on each qubit."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    return DescriptorFrame(
        time_index=0,
        x=tuple(single(n, q, "x") for q in range(n)),
        z=tuple(single(n, q, "z") for q in range(n)),
    )


@lru_cache(maxsize=256)
def gate_images(kind: str, alpha: float | None = None) -> tuple[tuple[PauliSum, PauliSum], ...]:
    """(G^dagger X_q G, G^dagger Z_q G) for each qubit q of a unitary gate
    kind, as Pauli sums on the gate's own qubits in their order.

    With (m, s) the kind's ``local_unitary``, the coefficient of word w in
    the image of P is Tr(P_w m^dagger P m) / (s 2^k) on k qubits.  It is real,
    since the image is Hermitian; and for integer m every step is exact, so a
    Clifford kind's images are signed single words.
    """
    matrix, scale = local_unitary(kind, alpha)
    k = len(matrix).bit_length() - 1
    paulis = {word: PauliSum(k, {word: 1}).dense()
              for word in map("".join, product("IXYZ", repeat=k))}

    def image(letters: str) -> PauliSum:
        conjugated = matrix.conj().T @ paulis[letters] @ matrix / scale
        return PauliSum(k, {w: np.vdot(p, conjugated).real / 2 ** k for w, p in paulis.items()})

    def letter(q: int, axis: str) -> str:
        return "I" * q + axis + "I" * (k - q - 1)

    return tuple((image(letter(q, "X")), image(letter(q, "Z"))) for q in range(k))


def apply_gate_frame(frame: DescriptorFrame, gate: GateOp) -> DescriptorFrame:
    """Advance every descriptor through one unitary gate G: each qubit q of
    G takes ``observable_image`` of G^dagger X_q G and of G^dagger Z_q G
    (``gate_images``, whose letters act on G's qubits in their order) under
    the frame before the gate; the descriptors of every other qubit are
    unchanged.  A phase flip is a channel, not a gate.
    The images of a two-qubit gate share their words, so each descriptor
    product is taken once per gate.
    """
    if gate.kind == "PHASE_FLIP":
        raise ValueError("phase flip is a channel, not a unitary; use apply_dephasing_frame")
    if any(q >= frame.n for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for n={frame.n}")
    product_of = cache(partial(frame_observable, frame))
    x = list(frame.x)
    z = list(frame.z)
    for q, (x_image, z_image) in zip(gate.qubits, gate_images(gate.kind, gate.alpha)):
        x[q] = _image(x_image, gate.qubits, frame.n, product_of)
        z[q] = _image(z_image, gate.qubits, frame.n, product_of)
    return DescriptorFrame(frame.time_index, tuple(x), tuple(z))


def _attenuate(descriptor: PauliSum, qubit: int, factor) -> PauliSum:
    terms = {}
    for word, coeff in descriptor.items():
        terms[word] = coeff * factor if word[qubit] in "XY" else coeff
    return PauliSum(descriptor.n, terms)


def apply_dephasing_frame(frame: DescriptorFrame, qubit: int, p) -> DescriptorFrame:
    """Effective dephasing of one qubit's own descriptor pair.

    Every term of the target qubit's descriptors whose letter on that qubit
    is X or Y is attenuated by (1 - 2p); letters I and Z pass through, and all
    other qubits' descriptors are untouched.  This is the effective "dressed
    mediator" description: the physically exact channel lives in the density
    engine, and both agree on the built-in witness of the symmetric network at
    every slice, for any p, purity and basis input.  They can differ once a
    gate has changed the dephased qubit's own letters: after a Hadamard on
    qubit q its x-descriptor is Z_q, which this map leaves alone, so H(q) then
    a phase flip of intensity p gives <X_q> = 1 from |0>, where the exact
    channel gives 1 - 2p.  ``p`` may be "symbolic" to carry the attenuation
    factor formally for table rendering.
    """
    if not 0 <= qubit < frame.n:
        raise ValueError(f"qubit {qubit} out of range for n={frame.n}")
    if p == SYMBOLIC_P:
        factor = ATTENUATION
    else:
        if not 0 <= p <= 1:
            raise ValueError(f"dephasing intensity must lie in [0, 1], got {p!r}")
        factor = 1.0 - 2.0 * p
    x = list(frame.x)
    z = list(frame.z)
    x[qubit] = _attenuate(x[qubit], qubit, factor)
    z[qubit] = _attenuate(z[qubit], qubit, factor)
    return DescriptorFrame(frame.time_index, tuple(x), tuple(z))


def run_network_frames(circuit: Circuit) -> list[DescriptorFrame]:
    """Descriptor frames at every labelled time of the circuit, t_0 included."""
    current = init_frame(circuit.n)
    frames = [current]
    t = 0
    for op in circuit.ops:
        if isinstance(op, TimeSlice):
            t += 1
            current = replace(current, time_index=t)
            frames.append(current)
        elif op.kind == "PHASE_FLIP":
            current = apply_dephasing_frame(current, op.qubits[0], op.p)
        else:
            current = apply_gate_frame(current, op)
    return frames


def frame_observable(frame: DescriptorFrame, factors: Sequence[tuple[int, str]]) -> PauliSum:
    """Product of descriptors, one factor per (qubit, axis) in the given order;
    the empty product is the identity."""
    out = None
    for qubit, axis in factors:
        d = frame.descriptor(qubit, axis)
        out = d if out is None else out * d
    return PauliSum(frame.n, {"I" * frame.n: 1}) if out is None else out


def observable_image(frame: DescriptorFrame, obs: PauliSum) -> PauliSum:
    """Heisenberg-picture image O_H of ``obs`` at the frame's time: each Pauli
    word of ``obs`` maps to the product of its letters' descriptors."""
    return _image(obs, range(obs.n), obs.n, partial(frame_observable, frame))


def _image(obs: PauliSum, qubits: Sequence[int], n: int, product_of) -> PauliSum:
    """Sum over the words of ``obs``, whose letters act on ``qubits`` of an
    n-qubit register, of coefficient times ``product_of`` the word's
    (qubit, axis) factors, in word order."""
    image = PauliSum.zero(n)
    for word, coeff in obs.items():
        factors = tuple((q, letter.lower()) for q, letter in zip(qubits, word) if letter != "I")
        image = image + coeff * product_of(factors)
    return image


def pseudo_pure_expectation(image: PauliSum, basis: BasisState, epsilon: float) -> float:
    """Value of a numeric Heisenberg image on the pseudo-pure state
    eps * |basis><basis| + (1 - eps) * I / 2^n: eps * <basis|O_H|basis> +
    (1 - eps) * Tr(O_H) / 2^n."""
    mixed = identity_component(image).real
    return epsilon * expectation_basis(basis, image) + (1.0 - epsilon) * mixed


def descriptor_commutator(frame: DescriptorFrame, qubit: int) -> PauliSum:
    """Commutator of one qubit's descriptor pair, [x, z]."""
    if not 0 <= qubit < frame.n:
        raise ValueError(f"qubit {qubit} out of range for n={frame.n}")
    return commutator(frame.x[qubit], frame.z[qubit])


def nonclassicality_degree(frame: DescriptorFrame, qubit: int) -> float:
    """Spectral norm of the commutator of one qubit's descriptor pair."""
    return operator_norm(descriptor_commutator(frame, qubit))


def substitute(operator: PauliSum, p: float) -> PauliSum:
    """Replace symbolic attenuation factors by their value at intensity ``p``."""
    return operator.map_coefficients(lambda c: c.at(p) if isinstance(c, AttenuationPoly) else c)


# ---------------------------------------------------------------------------
# rendering of the canonical table format
# ---------------------------------------------------------------------------

_NUM_FMT = "{:.12g}"


def _fmt_number(value: complex) -> str:
    if abs(value.imag) <= 1e-14:
        return _NUM_FMT.format(value.real)
    if abs(value.real) <= 1e-14:
        return _NUM_FMT.format(value.imag) + "j"
    return "(" + _NUM_FMT.format(value.real) + ("+" if value.imag >= 0 else "-") + _NUM_FMT.format(
        abs(value.imag)
    ) + "j)"


def _render_numeric_prefix(value: complex) -> str:
    # unit factors attach directly to the word; anything else gets a space
    if value == 1:
        return ""
    if value == -1:
        return "-"
    if value == 1j:
        return "i"
    if value == -1j:
        return "-i"
    return _fmt_number(value) + " "


def _render_coefficient(coeff) -> str:
    if isinstance(coeff, AttenuationPoly):
        powers = coeff.powers()
        if len(powers) == 1:
            k, v = powers[0]
            factor = "(1-2p)" if k == 1 else f"(1-2p)^{k}"
            prefix = _render_numeric_prefix(v)
            if prefix.endswith(" "):
                prefix = prefix[:-1]
            return prefix + factor
        return "(" + " + ".join(
            (_render_numeric_prefix(v).strip() or "1") + ("" if k == 0 else f"(1-2p)^{k}")
            for k, v in powers
        ) + ") "
    return _render_numeric_prefix(complex(coeff))


def _render_word(word: str) -> str:
    body = " ".join(f"q_{l.lower()}{qubit_label(q)}" for q, l in enumerate(word) if l != "I")
    return body or "id"


def render_sum(descriptor: PauliSum) -> str:
    """Canonical text form of a descriptor, e.g. '(1-2p)q_xB q_zC q_xD'."""
    if not descriptor:
        return "0"
    parts = [_render_coefficient(c) + _render_word(w) for w, c in descriptor.items()]
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def render_table(frames: Sequence[DescriptorFrame]) -> str:
    """Text table: one row per time slice, one {x, z} cell per qubit."""
    if not frames:
        raise ValueError("at least one frame is required")
    n = frames[0].n
    rows = [[""] + [f"Qubit {qubit_label(q)}" for q in range(n)]]
    for frame in frames:
        cells = [f"t{frame.time_index}"]
        for q in range(n):
            cells.append("{" + render_sum(frame.x[q]) + ", " + render_sum(frame.z[q]) + "}")
        rows.append(cells)
    widths = [max(len(row[col]) for row in rows) for col in range(n + 1)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


def frames_to_dict(frames: Sequence[DescriptorFrame]) -> dict:
    """Structured dump: per slice, per qubit, the (coefficient, word) pairs."""
    if not frames:
        raise ValueError("at least one frame is required")
    n = frames[0].n

    def coeff_terms(coeff) -> list[dict]:
        if isinstance(coeff, AttenuationPoly):
            return [{"power": k, "re": v.real, "im": v.imag} for k, v in coeff.powers()]
        c = complex(coeff)
        return [{"power": 0, "re": c.real, "im": c.imag}]

    def dump(descriptor: PauliSum) -> list[dict]:
        return [
            {"word": word, "coefficient": coeff_terms(coeff)}
            for word, coeff in descriptor.items()
        ]

    return {
        "slices": [
            {
                "time": frame.time_index,
                "qubits": [
                    {"label": qubit_label(q), "x": dump(frame.x[q]), "z": dump(frame.z[q])}
                    for q in range(n)
                ],
            }
            for frame in frames
        ]
    }

