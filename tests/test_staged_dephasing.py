"""Staged-swap dephasing regressions against the exhaustive dense oracle.

The constants below were computed once by the dense engine by averaging over
the complete balanced pattern population (70 x 70 pairs, 8 stages, initial
|1100>, Z applied after each dephased partial swap) and are pinned here as
regression values.  Every exhaustive pin is checked against both the
brute-force oracle (``helpers.brute_force_average``: ``temporal_average``,
the state-vector walk, over every pattern pair) and the dynamic-programming
``density.exhaustive_average``.  Tolerance 1e-12 guards against
summation-order variation between the two; exact bit-stability across
repeated runs is asserted separately.  The one-circuit-per-pattern reference
is ``helpers.per_circuit_average``, which ``test_density.py`` compares the
walk with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import basis_density, brute_force_average, dense_branch_average, random_density
from medwit.circuits import (
    SLICE,
    Circuit,
    build_staged,
    cnot,
    h,
    partial_swap,
    phase_flip,
    sample_patterns,
)
from medwit.density import (
    exhaustive_average,
    expectation,
    negativity,
    partial_trace,
    pseudo_pure,
    run_network_density,
    temporal_average,
)
from medwit.detect import antiphase_amplitudes
from medwit.pauli import BasisState, single, witness_observable

PIN_TOL = 1e-12
XX_ZZ = (("x", "x"), ("z", "z"))
INITIAL = BasisState.from_string("1100")

# exhaustive balanced average, 8 stages
EXH_WITNESS_XX_ZZ = -0.064970495727871336
EXH_NEGATIVITY_AD = 0.00022950494902373997
EXH_XA_YB = -0.88151829520136671
EXH_YA_XB = 0.88151829520136671
EXH_ZA_ZB = -0.79019583569978791
EXH_XA_XD = -0.020952708370148284
EXH_ZA_ZD = -0.044017787357723104
EXH_B_ANTIPHASE_A = 1.7630365904027332
EXH_A_ANTIPHASE_B = 1.5803916713995756
EXH_D_ANTIPHASE_A = 0.041905416740296561

# 16 patterns sampled at seed 0
S16_WITNESS_XX_ZZ = 0.040066864643694577
S16_SAMPLING_ERROR = 0.10503736037156591
S16_NEGATIVITY_AD = 0.0074863693264743958
S16_D_ANTIPHASE_A = 0.23684368634243375
S16_B_ANTIPHASE_A = 1.6500164305700118

# per-stage phase-flip channel at full strength (the factorized limit of
# unconstrained temporal averaging)
CHAN_ZA_ZB = -0.76539502147247729


def observable(a_axis: str, a_qubit: int, b_axis: str, b_qubit: int):
    return single(4, a_qubit, a_axis) * single(4, b_qubit, b_axis)


def staged_with_channels(stages: int) -> Circuit:
    alpha = 1.0 / stages
    ops = [h(0), cnot(0, 1), SLICE]
    for _ in range(stages):
        ops += [partial_swap(1, 2, alpha), phase_flip(2)]
    ops.append(SLICE)
    for _ in range(stages):
        ops += [partial_swap(2, 3, alpha), phase_flip(2)]
    ops.append(SLICE)
    return Circuit(4, tuple(ops))


class TestExhaustiveAverage:
    def test_zeno_suppression_of_transferred_entanglement(self, exhaustive_average_1100):
        undephased = run_network_density(build_staged(8), basis_density(INITIAL))[-1]
        neg_undephased = negativity(partial_trace(undephased, [0, 3]), [0])
        assert neg_undephased == pytest.approx(0.5, abs=1e-10)
        neg = negativity(partial_trace(exhaustive_average_1100, [0, 3]), [0])
        assert neg <= neg_undephased / 10
        assert neg == pytest.approx(EXH_NEGATIVITY_AD, abs=PIN_TOL)

    def test_pinned_witness(self, exhaustive_average_1100):
        got = expectation(exhaustive_average_1100, witness_observable(4, 0, 3, XX_ZZ))
        assert got == pytest.approx(EXH_WITNESS_XX_ZZ, abs=PIN_TOL)

    def test_probe_mediator_correlations_survive_while_probe_probe_die(
        self, exhaustive_average_1100
    ):
        avg = exhaustive_average_1100
        assert expectation(avg, observable("x", 0, "y", 1)) == pytest.approx(EXH_XA_YB, abs=PIN_TOL)
        assert expectation(avg, observable("y", 0, "x", 1)) == pytest.approx(EXH_YA_XB, abs=PIN_TOL)
        assert expectation(avg, observable("z", 0, "z", 1)) == pytest.approx(EXH_ZA_ZB, abs=PIN_TOL)
        # the A-B correlation involving Z_B stays macroscopic ...
        assert abs(EXH_ZA_ZB) > 0.5
        # ... while every A-D correlation is two orders of magnitude down
        assert expectation(avg, observable("x", 0, "x", 3)) == pytest.approx(EXH_XA_XD, abs=PIN_TOL)
        assert expectation(avg, observable("z", 0, "z", 3)) == pytest.approx(EXH_ZA_ZD, abs=PIN_TOL)
        for a_axis in "xyz":
            for d_axis in "xyz":
                assert abs(expectation(avg, observable(a_axis, 0, d_axis, 3))) < 0.05

    def test_multiplet_report(self, exhaustive_average_1100):
        report, = antiphase_amplitudes(exhaustive_average_1100, readout=0)
        assert report["classification"]["D"] == "silent"
        assert report["classification"]["B"] == "antiphase(A)"
        assert report["B"]["A"]["antiphase"] == pytest.approx(EXH_B_ANTIPHASE_A, abs=PIN_TOL)
        assert report["A"]["B"]["antiphase"] == pytest.approx(EXH_A_ANTIPHASE_B, abs=PIN_TOL)
        assert report["D"]["A"]["antiphase"] == pytest.approx(EXH_D_ANTIPHASE_A, abs=PIN_TOL)

    def test_average_is_bit_stable(self):
        first = exhaustive_average(8, basis_density(INITIAL))
        again = exhaustive_average(8, basis_density(INITIAL))
        assert np.array_equal(again.entries, first.entries)


class TestDynamicProgrammingAverage:
    def test_matches_the_oracle_and_every_pin(self, exhaustive_average_1100):
        dp = exhaustive_average(8, basis_density(INITIAL))
        assert np.max(np.abs(dp.entries - exhaustive_average_1100.entries)) < PIN_TOL
        assert expectation(dp, witness_observable(4, 0, 3, XX_ZZ)) == pytest.approx(
            EXH_WITNESS_XX_ZZ, abs=PIN_TOL
        )
        assert negativity(partial_trace(dp, [0, 3]), [0]) == pytest.approx(
            EXH_NEGATIVITY_AD, abs=PIN_TOL
        )
        for (a_axis, a_qubit, b_axis, b_qubit), pin in (
            (("x", 0, "y", 1), EXH_XA_YB),
            (("y", 0, "x", 1), EXH_YA_XB),
            (("z", 0, "z", 1), EXH_ZA_ZB),
            (("x", 0, "x", 3), EXH_XA_XD),
            (("z", 0, "z", 3), EXH_ZA_ZD),
        ):
            got = expectation(dp, observable(a_axis, a_qubit, b_axis, b_qubit))
            assert got == pytest.approx(pin, abs=PIN_TOL)
        report, = antiphase_amplitudes(dp, readout=0)
        assert report["B"]["A"]["antiphase"] == pytest.approx(EXH_B_ANTIPHASE_A, abs=PIN_TOL)
        assert report["A"]["B"]["antiphase"] == pytest.approx(EXH_A_ANTIPHASE_B, abs=PIN_TOL)
        assert report["D"]["A"]["antiphase"] == pytest.approx(EXH_D_ANTIPHASE_A, abs=PIN_TOL)

    @settings(max_examples=10, deadline=None)
    @given(
        stages=st.sampled_from([2, 4, 6]),
        bits=st.text(alphabet="01", min_size=4, max_size=4),
        epsilon=st.floats(0.0, 1.0),
    )
    def test_equals_brute_force(self, stages, bits, epsilon):
        basis = BasisState.from_string(bits)
        dp = exhaustive_average(stages, pseudo_pure(epsilon, basis))
        oracle = brute_force_average(stages, epsilon, basis)
        assert np.max(np.abs(dp.entries - oracle.entries)) < 1e-12

    @pytest.mark.parametrize(
        "initial",
        [basis_density(INITIAL), pseudo_pure(0.7, BasisState.from_string("0110")),
         pseudo_pure(0.3, BasisState.from_string("1011")),
         random_density(np.random.default_rng(7), 4, rank=3)],
        ids=["1100", "0110-pp0.7", "1011-pp0.3", "mixed-rank-3"],
    )
    # 16 and 34 stages grow each link's count stack to its 9 and 18 rows,
    # and cut rows above stages/2 over many partial swaps
    @pytest.mark.parametrize("stages", [2, 4, 6, 8, 10, 12, 16, 34])
    def test_bytes_equal_dense_branch_reference(self, stages, initial):
        """The per-link count stacks and their sign-flip branches give the
        bytes of the count-keyed table with dense Z-on-C branch unitaries."""
        dp = exhaustive_average(stages, initial)
        reference = dense_branch_average(stages, initial)
        # tobytes, not array_equal, which would pass -0.0 for 0.0
        assert dp.entries.tobytes() == reference.entries.tobytes()

    @pytest.mark.parametrize("stages", [0, 3])
    def test_stage_count_must_be_even_and_positive(self, stages):
        with pytest.raises(ValueError, match="even stage count"):
            exhaustive_average(stages, basis_density(INITIAL))


@pytest.fixture(scope="module")
def sampled_average():
    patterns = sample_patterns(8, 16, seed=0)
    return temporal_average(8, patterns, 1.0, INITIAL)


class TestSampledAverage:
    def test_pinned_witness_and_sampling_error(self, sampled_average, exhaustive_average_1100):
        obs = witness_observable(4, 0, 3, XX_ZZ)
        sampled = expectation(sampled_average, obs)
        exhaustive = expectation(exhaustive_average_1100, obs)
        assert sampled == pytest.approx(S16_WITNESS_XX_ZZ, abs=PIN_TOL)
        assert abs(sampled - exhaustive) == pytest.approx(S16_SAMPLING_ERROR, abs=PIN_TOL)

    def test_pinned_negativity(self, sampled_average):
        neg = negativity(partial_trace(sampled_average, [0, 3]), [0])
        assert neg == pytest.approx(S16_NEGATIVITY_AD, abs=PIN_TOL)
        assert neg < 0.5 / 10

    def test_transfer_suppressed_in_multiplet(self, sampled_average):
        undephased = run_network_density(build_staged(8), basis_density(INITIAL))[-1]
        full = antiphase_amplitudes(undephased, readout=0)[0]["D"]["A"]["antiphase"]
        assert full == pytest.approx(2.0, abs=1e-10)
        report, = antiphase_amplitudes(sampled_average, readout=0)
        got = report["D"]["A"]["antiphase"]
        assert got == pytest.approx(S16_D_ANTIPHASE_A, abs=PIN_TOL)
        # a 16-sample average suppresses D's signal roughly eightfold but
        # leaves it above the silence threshold; exhaustive averaging (above)
        # silences it completely
        assert got < full / 8
        assert report["B"]["A"]["antiphase"] == pytest.approx(S16_B_ANTIPHASE_A, abs=PIN_TOL)


class TestChannelizedLimit:
    def test_full_strength_channels_kill_the_transfer_exactly(self):
        final = run_network_density(staged_with_channels(8), basis_density(INITIAL), 0.5)[-1]
        assert negativity(partial_trace(final, [0, 3]), [0]) == 0.0
        report, = antiphase_amplitudes(final, readout=0)
        assert report["classification"]["D"] == "silent"
        assert report["classification"]["C"] == "silent"
        assert report["classification"]["B"] == "antiphase(A)"
        assert expectation(final, observable("z", 0, "z", 1)) == pytest.approx(
            CHAN_ZA_ZB, abs=PIN_TOL
        )
