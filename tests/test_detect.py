"""Detection-emulation tests: multiplet amplitudes and classification."""

import numpy as np
import pytest

from helpers import basis_density
from medwit.circuits import SLICE, Circuit, build_asymmetric, build_staged, cnot, h
from medwit.density import DensityMatrix, pseudo_pure, run_network_density
from medwit.detect import antiphase_amplitudes
from medwit.pauli import BasisState


def singlet_prep(initial_bits: str = "1100") -> DensityMatrix:
    circuit = Circuit(4, (h(0), cnot(0, 1), SLICE))
    return run_network_density(circuit, basis_density(BasisState.from_string(initial_bits)))[-1]


class TestSingletDetection:
    def test_reads_a_stack_as_its_states_one_by_one(self):
        """A stack of three mixed states, A paired with B, C and D in turn
        (the slices of a one-stage staged run), reads exactly as each state
        does alone."""
        initial = pseudo_pure(0.3, BasisState.from_string("0110"))
        stack = run_network_density(build_staged(1), initial)[1:]
        reports = antiphase_amplitudes(stack, readout=0)
        assert reports == [antiphase_amplitudes(stack[k], readout=0)[0] for k in range(3)]
        assert [report["classification"]["A"] for report in reports] == [
            "antiphase(B)", "antiphase(C)", "antiphase(D)"
        ]

    def test_pair_members_show_antiphase_others_silent(self):
        report, = antiphase_amplitudes(singlet_prep(), readout=0)
        assert report["classification"] == {
            "A": "antiphase(B)",
            "B": "antiphase(A)",
            "C": "silent",
            "D": "silent",
        }
        assert report["A"]["B"]["antiphase"] == pytest.approx(2.0, abs=1e-10)
        assert report["B"]["A"]["antiphase"] == pytest.approx(2.0, abs=1e-10)
        assert report["A"]["B"]["inphase"] < 1e-10

    def test_after_entanglement_transfer(self):
        final = run_network_density(
            build_asymmetric(), basis_density(BasisState.from_string("1100"))
        )[-1]
        report, = antiphase_amplitudes(final, readout=0)
        assert report["classification"] == {
            "A": "antiphase(D)",
            "B": "silent",
            "C": "silent",
            "D": "antiphase(A)",
        }


class TestEmbeddedBellPairs:
    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    @pytest.mark.parametrize("pair_bits", ["00", "01", "10", "11"])
    def test_readout_locates_the_pair(self, pair, pair_bits):
        a, b = pair
        bits = list("0000")
        bits[a], bits[b] = pair_bits  # all four Bell states, one per seed pair
        circuit = Circuit(4, (h(a), cnot(a, b), SLICE))
        rho = run_network_density(circuit, basis_density(BasisState.from_string("".join(bits))))[
            -1
        ]
        report, = antiphase_amplitudes(rho, readout=a)
        labels = "ABCD"
        for q in range(4):
            if q == a:
                assert report["classification"][labels[q]] == f"antiphase({labels[b]})"
            elif q == b:
                assert report["classification"][labels[q]] == f"antiphase({labels[a]})"
            else:
                assert report["classification"][labels[q]] == "silent"


class TestInvariances:
    def test_z_rotations_outside_the_pair_leave_amplitudes_unchanged(self):
        rho = singlet_prep()
        report, = antiphase_amplitudes(rho, readout=0)
        rng = np.random.default_rng(17)
        for _ in range(5):
            rotated = rho.entries
            for q in (2, 3):
                theta = float(rng.uniform(0, 2 * np.pi))
                local = np.diag([1.0, np.exp(1j * theta)]).astype(complex)
                full = np.kron(
                    np.kron(np.eye(2 ** q, dtype=complex), local),
                    np.eye(2 ** (3 - q), dtype=complex),
                )
                rotated = full @ rotated @ full.conj().T
            other, = antiphase_amplitudes(DensityMatrix(rotated), readout=0)
            for spin in "ABCD":
                for partner in "ABCD":
                    if spin == partner:
                        continue
                    assert other[spin][partner]["antiphase"] == pytest.approx(
                        report[spin][partner]["antiphase"], abs=1e-10
                    )
                    assert other[spin][partner]["inphase"] == pytest.approx(
                        report[spin][partner]["inphase"], abs=1e-10
                    )

    def test_readout_validation(self):
        with pytest.raises(ValueError):
            antiphase_amplitudes(singlet_prep(), readout=7)


class TestSerialization:
    def test_json_schema(self):
        data, = antiphase_amplitudes(singlet_prep(), readout=0)
        assert set(data) == {"A", "B", "C", "D", "classification"}
        assert set(data["A"]) == {"B", "C", "D"}
        assert set(data["A"]["B"]) == {"inphase", "antiphase"}
        assert data["classification"]["A"] == "antiphase(B)"
