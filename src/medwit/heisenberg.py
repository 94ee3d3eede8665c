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
effective attenuation of the dephased qubit's own descriptors, always by the
formal factor (1 - 2p), so a frame holds every intensity at once and a
coefficient is a complex number or one power of that factor times one
(``Attenuated``).  Frames are immutable values: every operation returns a
new frame.  An observable, such as the ``pauli.witness_observable`` witness,
is read off a frame in two steps: its Heisenberg image (``observable_image``),
then the image's value on the pseudo-pure input (``pseudo_pure_expectation``).
A frame, an image or a descriptor commutator gives its value at any p as if
the attenuation had been applied at that p, each term's value read by
``_terms_at``: ``substitute`` gives the numeric frame or sum at one p, and
``pseudo_pure_expectation_at`` and ``operator_norm_at``
(``nonclassicality_degree``) read the values at a whole array of intensities
at once, each point with the bytes that ``substitute`` then
``pseudo_pure_expectation`` or ``operator_norm`` give it.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from itertools import product
from typing import Sequence

import numpy as np

from . import _Record
from .circuits import Circuit, GateOp, TimeSlice, local_unitary
from .pauli import (
    PRUNE_TOL,
    BasisState,
    PauliSum,
    basis_sign,
    commutator,
    expectation_basis,
    hermitian_value,
    identity_component,
    operator_norm,
    qubit_label,
    single,
)

__all__ = [
    "ATTENUATION",
    "Attenuated",
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
    "operator_norm_at",
    "pseudo_pure_expectation",
    "pseudo_pure_expectation_at",
    "render_sum",
    "render_table",
    "run_network_frames",
    "substitute",
]


class Attenuated(_Record):
    """A descriptor coefficient that a dephasing channel has attenuated:
    ``coeff`` times the formal factor (1 - 2p) to the ``power``, at least 1.
    A product multiplies the coefficients and adds the powers, and a sum
    keeps the power; a sum with another power, or with a nonzero number, is
    a ValueError.  A result of 0 is the plain number 0."""

    __slots__ = ("coeff", "power")

    def __init__(self, coeff: complex, power: int):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "power", power)

    def __add__(self, other):
        if isinstance(other, Attenuated) and other.power == self.power:
            total = self.coeff + other.coeff
            return Attenuated(total, self.power) if total != 0 else 0j
        if not isinstance(other, Attenuated) and complex(other) == 0:
            return self
        raise ValueError(f"cannot add powers {self.power} and {getattr(other, 'power', 0)} "
                         "of (1 - 2p): a coefficient holds one power")

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return NotImplemented
        if isinstance(other, Attenuated):
            coeff, power = other.coeff, self.power + other.power
        else:
            coeff, power = complex(other), self.power
        product = 0j + self.coeff * coeff
        return Attenuated(product, power) if product != 0 else 0j

    __rmul__ = __mul__

    def __abs__(self) -> float:
        return abs(self.coeff)

    def __complex__(self) -> complex:
        raise TypeError(
            "coefficient carries a symbolic attenuation factor; substitute a numeric p first"
        )

    def at(self, p: np.ndarray) -> np.ndarray:
        """Numeric value at every intensity of the array ``p``.  A power of
        (1 - 2p) at or below ``PRUNE_TOL`` in modulus counts as 0, as in a
        frame evolved at that p, where a descriptor term is a unit phase times
        such a power and is pruned as soon as the channel or a product makes
        it that small, before a commutator or a sum of terms could double it
        back above the tolerance."""
        power = np.power(1.0 - 2.0 * p, self.power)
        total = np.zeros(power.shape, dtype=complex)
        np.add(total, self.coeff * power, out=total, where=np.abs(power) > PRUNE_TOL)
        return total


#: the bare formal factor (1 - 2p)
ATTENUATION = Attenuated(1 + 0j, 1)


class DescriptorFrame(_Record):
    """Per-qubit {x-descriptor, z-descriptor} pairs at one time slice, whose
    time is the frame's place in the list ``run_network_frames`` returns."""

    __slots__ = ("x", "z")

    def __init__(self, x: tuple[PauliSum, ...], z: tuple[PauliSum, ...]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

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
    return DescriptorFrame(tuple(single(n, q, "x") for q in range(n)),
                           tuple(single(n, q, "z") for q in range(n)))


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
    return DescriptorFrame(tuple(x), tuple(z))


def _attenuate(descriptor: PauliSum, qubit: int) -> PauliSum:
    terms = {}
    for word, coeff in descriptor.items():
        terms[word] = coeff * ATTENUATION if word[qubit] in "XY" else coeff
    return PauliSum(descriptor.n, terms)


def apply_dephasing_frame(frame: DescriptorFrame, qubit: int) -> DescriptorFrame:
    """Effective dephasing of one qubit's own descriptor pair.

    Every term of the target qubit's descriptors whose letter on that qubit
    is X or Y gains one power of the formal factor (1 - 2p), ``ATTENUATION``,
    whose intensity ``substitute`` or the array reads set later; letters I
    and Z pass through, and all other qubits' descriptors are untouched.
    This is the effective "dressed mediator" description; the exact channel
    lives in the density engine.  Tests in ``tests/test_heisenberg.py`` show
    where the two agree: on every Pauli word, slice and basis input of the
    symmetric network (``test_agree_on_every_word_from_every_basis_input``),
    not after a Hadamard on the dephased qubit (``test_differ_on_x_after_hadamard``).
    """
    if not 0 <= qubit < frame.n:
        raise ValueError(f"qubit {qubit} out of range for n={frame.n}")
    x = list(frame.x)
    z = list(frame.z)
    x[qubit] = _attenuate(x[qubit], qubit)
    z[qubit] = _attenuate(z[qubit], qubit)
    return DescriptorFrame(tuple(x), tuple(z))


def run_network_frames(circuit: Circuit) -> list[DescriptorFrame]:
    """Descriptor frames at every labelled time of the circuit, t_0 included."""
    current = init_frame(circuit.n)
    frames = [current]
    for op in circuit.ops:
        if isinstance(op, TimeSlice):
            frames.append(current)
        elif op.kind == "PHASE_FLIP":
            current = apply_dephasing_frame(current, op.qubits[0])
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


def nonclassicality_degree(frame: DescriptorFrame, qubit: int, p: np.ndarray) -> np.ndarray:
    """Spectral norm of one qubit's descriptor commutator at each intensity of ``p``."""
    return operator_norm_at(descriptor_commutator(frame, qubit), p)


def _terms_at(operator: PauliSum, p: np.ndarray):
    """Each term of ``operator`` in ``items()`` order: its word and its value
    at every intensity of the array ``p``, 0 where PauliSum's prune drops it."""
    for word, coeff in operator.items():
        values = coeff.at(p) if isinstance(coeff, Attenuated) else np.full(p.shape, complex(coeff))
        np.copyto(values, 0, where=np.hypot(values.real, values.imag) <= PRUNE_TOL)
        yield word, values


def substitute(operator: PauliSum | DescriptorFrame, p: float) -> PauliSum | DescriptorFrame:
    """Replace symbolic attenuation factors by their ``_terms_at`` value at
    intensity ``p``, in a sum or in every descriptor of a frame."""
    if isinstance(operator, DescriptorFrame):
        return DescriptorFrame(tuple(substitute(d, p) for d in operator.x),
                               tuple(substitute(d, p) for d in operator.z))
    return PauliSum(operator.n, {w: v[0] for w, v in _terms_at(operator, np.array([p], float))})


def pseudo_pure_expectation_at(
    image: PauliSum, basis: BasisState, epsilon: float, p: np.ndarray
) -> np.ndarray:
    """``pseudo_pure_expectation`` of ``substitute(image, p)`` at every
    intensity of the array ``p``, with the bytes of each point alone: the
    I/Z words' ``_terms_at`` values, signed, are summed in ``items()``
    order, each skipped where it reads 0.  As ``expectation_basis`` does, it
    refuses a basis state of another size, and an imaginary residue at any
    point (``hermitian_value``)."""
    if basis.n != image.n:
        raise ValueError(f"qubit count mismatch: state n={basis.n}, operator n={image.n}")
    total = np.zeros(p.shape, dtype=complex)
    mixed = np.zeros(p.shape)
    for word, values in _terms_at(image, p):
        sign = basis_sign(basis, word)
        if sign:
            np.add(total, sign * values, out=total, where=values != 0)
            if word == "I" * image.n:
                mixed = values.real
    return epsilon * hermitian_value(total) + (1.0 - epsilon) * mixed


def operator_norm_at(operator: PauliSum, p: np.ndarray) -> np.ndarray:
    """``operator_norm`` of ``substitute(operator, p)`` at every intensity of
    the array ``p``: 0 where every ``_terms_at`` value is 0, and where one is
    left its modulus, ``hypot`` of its real and imaginary parts, which is
    what ``operator_norm`` returns for a one-word sum.  Where several are
    left it is ``operator_norm`` of that point's substituted sum."""
    norms = np.zeros(p.shape)
    left = np.zeros(p.shape, dtype=int)
    for _, values in _terms_at(operator, p):
        kept = values != 0
        np.copyto(norms, np.hypot(values.real, values.imag), where=kept)
        left += kept
    for i in np.flatnonzero(left > 1):
        norms[i] = operator_norm(substitute(operator, p[i]))
    return norms


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
    if isinstance(coeff, Attenuated):
        factor = "(1-2p)" if coeff.power == 1 else f"(1-2p)^{coeff.power}"
        return _render_numeric_prefix(coeff.coeff).removesuffix(" ") + factor
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
    """Text table of a walk's frames: row t for frame t, one {x, z} cell per qubit."""
    if not frames:
        raise ValueError("at least one frame is required")
    n = frames[0].n
    rows = [[""] + [f"Qubit {qubit_label(q)}" for q in range(n)]]
    for t, frame in enumerate(frames):
        cells = [f"t{t}"]
        for q in range(n):
            cells.append("{" + render_sum(frame.x[q]) + ", " + render_sum(frame.z[q]) + "}")
        rows.append(cells)
    widths = [max(len(row[col]) for row in rows) for col in range(n + 1)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


def frames_to_dict(frames: Sequence[DescriptorFrame]) -> dict:
    """Structured dump of a walk's frames: per slice t, frame t's (coefficient,
    word) pairs per qubit."""
    if not frames:
        raise ValueError("at least one frame is required")
    n = frames[0].n

    def coeff_terms(coeff) -> list[dict]:
        power, c = ((coeff.power, coeff.coeff) if isinstance(coeff, Attenuated)
                    else (0, complex(coeff)))
        return [{"power": power, "re": c.real, "im": c.imag}]

    def dump(descriptor: PauliSum) -> list[dict]:
        return [
            {"word": word, "coefficient": coeff_terms(coeff)}
            for word, coeff in descriptor.items()
        ]

    return {
        "slices": [
            {
                "time": t,
                "qubits": [
                    {"label": qubit_label(q), "x": dump(frame.x[q]), "z": dump(frame.z[q])}
                    for q in range(n)
                ],
            }
            for t, frame in enumerate(frames)
        ]
    }

