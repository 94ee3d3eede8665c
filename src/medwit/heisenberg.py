"""Heisenberg-picture descriptor engine.

Each qubit is tracked through a pair of evolved observables, its x- and
z-descriptors, while the reference state stays fixed.  Clifford gates act by
substitution rules on the descriptor pairs, so evolution stays exact and
symbolic; the dephasing channel acts as an effective attenuation of the
dephased qubit's own descriptors.  Frames are immutable values: every
operation returns a new frame.  ``frame_expectation`` reads any
observable, such as the ``pauli.witness_observable`` witness, off a frame.
Its two steps, the observable's Heisenberg image (``observable_image``) and
the image's value on the pseudo-pure input (``pseudo_pure_expectation``), are
public too, as is the commutator behind ``nonclassicality_degree``: an image or
commutator taken once off a frame evolved with a symbolic intensity gives the
value at any p by ``substitute``, as if the frame had been evolved at that p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .circuits import SYMBOLIC_P, Circuit, GateOp, TimeSlice
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
    "UnsupportedGateError",
    "apply_dephasing_frame",
    "apply_gate_frame",
    "descriptor_commutator",
    "frame_expectation",
    "frame_observable",
    "frames_to_dict",
    "init_frame",
    "nonclassicality_degree",
    "observable_image",
    "parse_word",
    "pseudo_pure_expectation",
    "render_sum",
    "render_table",
    "run_network_frames",
    "substitute",
]


class UnsupportedGateError(ValueError):
    """Raised when a circuit element cannot be tracked by the descriptor engine."""


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

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return (-1) * self + other

    def __neg__(self):
        return self._wrap({k: -v for k, v in self._coeffs.items()})

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

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

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


def apply_gate_frame(frame: DescriptorFrame, gate: GateOp) -> DescriptorFrame:
    """Advance every descriptor through one Clifford gate.

    Substitution rules, expressed in current-frame descriptors:
    H(a) swaps the pair; CNOT(c,t) maps x_c -> x_c*x_t and z_t -> z_c*z_t;
    CPHASE(a,b) maps x_a -> x_a*z_b and x_b -> z_a*x_b; Z(a) negates x_a;
    SWAP exchanges the two descriptor pairs.
    """
    if gate.kind == "PARTIAL_SWAP":
        raise UnsupportedGateError(
            "partial swap is not a Clifford gate and cannot be tracked by descriptors; "
            "run it on the density engine instead"
        )
    if gate.kind == "PHASE_FLIP":
        raise UnsupportedGateError(
            "phase flip is a channel, not a unitary; use apply_dephasing_frame"
        )
    if any(q >= frame.n for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for n={frame.n}")
    x = list(frame.x)
    z = list(frame.z)
    if gate.kind == "H":
        (q,) = gate.qubits
        x[q], z[q] = z[q], x[q]
    elif gate.kind == "Z":
        (q,) = gate.qubits
        x[q] = -x[q]
    elif gate.kind == "CNOT":
        c, t = gate.qubits
        x[c] = frame.x[c] * frame.x[t]
        z[t] = frame.z[c] * frame.z[t]
    elif gate.kind == "CPHASE":
        a, b = gate.qubits
        x[a] = frame.x[a] * frame.z[b]
        x[b] = frame.z[a] * frame.x[b]
    elif gate.kind == "SWAP":
        a, b = gate.qubits
        x[a], x[b] = x[b], x[a]
        z[a], z[b] = z[b], z[a]
    else:  # pragma: no cover - kinds are validated upstream
        raise UnsupportedGateError(f"unhandled gate kind {gate.kind!r}")
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
    image = PauliSum.zero(frame.n)
    for word, coeff in obs.items():
        factors = [(q, letter.lower()) for q, letter in enumerate(word) if letter != "I"]
        image = image + coeff * frame_observable(frame, factors)
    return image


def pseudo_pure_expectation(image: PauliSum, basis: BasisState, epsilon: float) -> float:
    """Value of a numeric Heisenberg image on the pseudo-pure state
    eps * |basis><basis| + (1 - eps) * I / 2^n: eps * <basis|O_H|basis> +
    (1 - eps) * Tr(O_H) / 2^n."""
    mixed = identity_component(image).real
    return epsilon * expectation_basis(basis, image) + (1.0 - epsilon) * mixed


def frame_expectation(
    frame: DescriptorFrame, obs: PauliSum, basis: BasisState, epsilon: float
) -> float:
    """Expectation of ``obs`` at the frame's time, from the pseudo-pure state
    eps * |basis><basis| + (1 - eps) * I / 2^n."""
    return pseudo_pure_expectation(observable_image(frame, obs), basis, epsilon)


def descriptor_commutator(frame: DescriptorFrame, qubit: int) -> PauliSum:
    """Commutator of one qubit's descriptor pair, [x, z]."""
    if not 0 <= qubit < frame.n:
        raise ValueError(f"qubit {qubit} out of range for n={frame.n}")
    return commutator(frame.x[qubit], frame.z[qubit])


def nonclassicality_degree(frame: DescriptorFrame, qubit: int) -> float:
    """Spectral norm of the commutator of one qubit's descriptor pair."""
    return operator_norm(descriptor_commutator(frame, qubit))


def substitute(obj, p: float):
    """Replace symbolic attenuation factors by their value at intensity ``p``."""

    def numeric(c):
        return c.at(p) if isinstance(c, AttenuationPoly) else c

    if isinstance(obj, PauliSum):
        return obj.map_coefficients(numeric)
    if isinstance(obj, DescriptorFrame):
        return DescriptorFrame(
            obj.time_index,
            tuple(s.map_coefficients(numeric) for s in obj.x),
            tuple(s.map_coefficients(numeric) for s in obj.z),
        )
    raise TypeError(f"cannot substitute into {type(obj).__name__}")


# ---------------------------------------------------------------------------
# rendering and parsing of the canonical table format
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
    return AttenuationPoly({power: value}) if power else value


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
