"""NMR-style detection emulation: locate an entangled pair by multiplet signatures.

A Hadamard readout pulse on one spin turns a shared two-spin coherence into
antiphase doublets on both members of the pair, while uninvolved spins stay
silent.  Amplitudes are reported as quadrature-invariant magnitudes, so they
do not depend on the x/y detection convention and are unchanged by z-rotations
of spins outside the pair.  Like the CLI's witness and negativity reads, the
readout takes a stack of states at once: one pulse on the stack, each readout
observable read once, one report per state.
"""

from __future__ import annotations

from functools import lru_cache
from math import hypot

from .circuits import h
from .density import DensityMatrix, apply_gate, expectation
from .pauli import PauliSum, qubit_label, single

__all__ = ["antiphase_amplitudes"]

#: classification threshold, 10% of the maximal antiphase amplitude 2
DEFAULT_THRESHOLD = 0.1


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


def antiphase_amplitudes(states: DensityMatrix, readout: int) -> list[dict]:
    """Apply a Hadamard readout to each state of the stack and report every
    spin's multiplet amplitudes, one dict per state:
    ``{spin: {partner: {"inphase": ..., "antiphase": ...}}, "classification": {spin: ...}}``.

    For spin r with partner s, the antiphase amplitude is the quadrature
    magnitude of the two-spin coherences 2<X_r Z_s> and 2<Y_r Z_s>; the
    in-phase amplitude is the magnitude of <X_r> and <Y_r> (the same for
    every partner).  A spin is classified "antiphase(S)" when its strongest
    antiphase partner S (the first strictly largest) exceeds
    ``DEFAULT_THRESHOLD`` while its in-phase signal stays below it; "silent"
    when everything is below that threshold; "other" otherwise.
    """
    n = states.n
    if not 0 <= readout < n:
        raise ValueError(f"readout qubit {readout} out of range for n={n}")
    pulsed = apply_gate(states, h(readout))

    def read(obs: PauliSum) -> list[float]:
        return expectation(pulsed, obs).tolist()

    reports: list[dict] = [{"classification": {}} for _ in range(len(states))]
    for r, (x_obs, y_obs, pairs) in enumerate(_readout_observables(n)):
        spin = qubit_label(r)
        inphases = [hypot(x, y) for x, y in zip(read(x_obs), read(y_obs))]
        antiphases = {
            qubit_label(s): [hypot(2.0 * xz, 2.0 * yz)
                             for xz, yz in zip(read(xz_obs), read(yz_obs))]
            for s, xz_obs, yz_obs in pairs
        }
        for k, (report, inphase) in enumerate(zip(reports, inphases)):
            amps = {partner: values[k] for partner, values in antiphases.items()}
            report[spin] = {partner: {"inphase": inphase, "antiphase": amp}
                            for partner, amp in amps.items()}
            best = max(amps, key=amps.get)
            if amps[best] > DEFAULT_THRESHOLD and inphase < DEFAULT_THRESHOLD:
                report["classification"][spin] = f"antiphase({best})"
            elif amps[best] < DEFAULT_THRESHOLD and inphase < DEFAULT_THRESHOLD:
                report["classification"][spin] = "silent"
            else:
                report["classification"][spin] = "other"
    return reports
