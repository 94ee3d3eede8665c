"""NMR-style detection emulation: locate an entangled pair by multiplet signatures.

A Hadamard readout pulse on one spin turns a shared two-spin coherence into
antiphase doublets on both members of the pair, while uninvolved spins stay
silent.  Amplitudes are reported as quadrature-invariant magnitudes, so they
do not depend on the x/y detection convention and are unchanged by z-rotations
of spins outside the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import hypot

from .circuits import h
from .density import DensityMatrix, apply_gate, expectation
from .pauli import PauliSum, qubit_label, single

__all__ = ["MultipletLine", "MultipletReport", "antiphase_amplitudes"]

#: classification threshold, 10% of the maximal antiphase amplitude 2
DEFAULT_THRESHOLD = 0.1


@dataclass(frozen=True)
class MultipletLine:
    inphase: float
    antiphase: float


@dataclass(frozen=True)
class MultipletReport:
    """Per-spin multiplet amplitudes after the readout pulse, with classification."""

    readout: int
    threshold: float
    lines: dict[str, dict[str, MultipletLine]]
    classification: dict[str, str]

    def to_dict(self) -> dict:
        out: dict = {
            spin: {
                partner: {"inphase": line.inphase, "antiphase": line.antiphase}
                for partner, line in partners.items()
            }
            for spin, partners in self.lines.items()
        }
        out["classification"] = dict(self.classification)
        return out


@lru_cache(maxsize=None)
def _readout_observables(n: int) -> tuple[tuple[PauliSum, PauliSum, tuple], ...]:
    """Per spin r: X_r, Y_r and, for every other spin s, (s, X_r Z_s, Y_r Z_s)."""
    return tuple(
        (
            single(n, r, "x"),
            single(n, r, "y"),
            tuple(
                (s, single(n, r, "x") * single(n, s, "z"), single(n, r, "y") * single(n, s, "z"))
                for s in range(n) if s != r
            ),
        )
        for r in range(n)
    )


def antiphase_amplitudes(rho: DensityMatrix, readout: int) -> MultipletReport:
    """Apply a Hadamard readout to one state and report every spin's multiplet amplitudes.

    For spin r with partner s, the antiphase amplitude is the quadrature
    magnitude of the two-spin coherences 2<X_r Z_s> and 2<Y_r Z_s>; the
    in-phase amplitude is the magnitude of <X_r> and <Y_r> (the same for
    every partner).  A spin is classified "antiphase(S)" when its strongest
    antiphase partner S exceeds ``DEFAULT_THRESHOLD`` while its in-phase
    signal stays below it; "silent" when everything is below that threshold;
    "other" otherwise.
    """
    n = rho.n
    if len(rho) != 1:
        raise ValueError(f"the multiplet reads one state, got a stack of {len(rho)}")
    if not 0 <= readout < n:
        raise ValueError(f"readout qubit {readout} out of range for n={n}")
    pulsed = apply_gate(rho, h(readout))

    lines: dict[str, dict[str, MultipletLine]] = {}
    classification: dict[str, str] = {}
    for r, (x_obs, y_obs, pairs) in enumerate(_readout_observables(n)):
        x_r, = expectation(pulsed, x_obs)
        y_r, = expectation(pulsed, y_obs)
        inphase = hypot(x_r, y_r)
        partners: dict[str, MultipletLine] = {}
        best_partner, best_amp = None, 0.0
        for s, xz_obs, yz_obs in pairs:
            xz, = expectation(pulsed, xz_obs)
            yz, = expectation(pulsed, yz_obs)
            amp = hypot(2.0 * xz, 2.0 * yz)
            partners[qubit_label(s)] = MultipletLine(inphase, amp)
            if amp > best_amp:
                best_partner, best_amp = qubit_label(s), amp
        lines[qubit_label(r)] = partners
        if best_amp > DEFAULT_THRESHOLD and inphase < DEFAULT_THRESHOLD:
            classification[qubit_label(r)] = f"antiphase({best_partner})"
        elif best_amp < DEFAULT_THRESHOLD and inphase < DEFAULT_THRESHOLD:
            classification[qubit_label(r)] = "silent"
        else:
            classification[qubit_label(r)] = "other"
    return MultipletReport(readout, DEFAULT_THRESHOLD, lines, classification)
