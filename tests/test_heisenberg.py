"""Descriptor-engine tests: gate rules, the gate table's Pauli images,
dephasing, witness, cross-engine checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    REF_LOCAL,
    basis_density,
    one_word,
    parse_word,
    random_clifford_circuit,
    random_unitary_circuit,
    ref_partial_swap,
)
from medwit.circuits import (
    SLICE,
    Circuit,
    build_asymmetric,
    build_symmetric,
    cnot,
    cphase,
    h,
    partial_swap,
    phase_flip,
    swap,
    z,
)
from medwit.density import (
    expectation,
    pseudo_pure,
    run_network_density,
)
from medwit.heisenberg import (
    ATTENUATION,
    AttenuationPoly,
    apply_dephasing_frame,
    apply_gate_frame,
    frame_observable,
    frames_to_dict,
    gate_images,
    init_frame,
    nonclassicality_degree,
    observable_image,
    pseudo_pure_expectation,
    render_sum,
    run_network_frames,
    substitute,
)
from medwit.pauli import BasisState, PauliSum, expectation_basis, single, witness_observable

P_GRID = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]


class TestInitFrame:
    def test_four_qubit_canonical_row(self):
        frame = init_frame(4)
        for q, label in enumerate("ABCD"):
            assert render_sum(frame.x[q]) == f"q_x{label}"
            assert render_sum(frame.z[q]) == f"q_z{label}"

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_registers(self, n):
        frame = init_frame(n)
        for q in range(n):
            assert frame.x[q] == single(n, q, "x")
            assert frame.z[q] == single(n, q, "z")

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError):
            init_frame(0)


class TestGateRules:
    def test_bell_stage_gives_t1_row(self):
        frame = init_frame(4)
        for gate in (h(0), cnot(0, 1), h(3), cnot(3, 2)):
            frame = apply_gate_frame(frame, gate)
        assert render_sum(frame.x[0]) == "q_zA q_xB"
        assert render_sum(frame.z[0]) == "q_xA"
        assert render_sum(frame.x[1]) == "q_xB"
        assert render_sum(frame.z[1]) == "q_xA q_zB"

    def test_cphase_gives_t2_row(self):
        frame = init_frame(4)
        for gate in (h(0), cnot(0, 1), h(3), cnot(3, 2), cphase(1, 2)):
            frame = apply_gate_frame(frame, gate)
        assert render_sum(frame.x[1]) == "q_xB q_zC q_xD"
        assert render_sum(frame.x[2]) == "q_xA q_zB q_xC"

    def test_hadamard_is_an_involution(self):
        frame = init_frame(2)
        twice = apply_gate_frame(apply_gate_frame(frame, h(0)), h(0))
        assert twice.x == frame.x and twice.z == frame.z

    def test_z_negates_x_descriptor(self):
        frame = apply_gate_frame(init_frame(2), z(0))
        assert frame.x[0] == -single(2, 0, "x")
        assert frame.z[0] == single(2, 0, "z")

    def test_swap_exchanges_pairs(self):
        frame = apply_gate_frame(apply_gate_frame(init_frame(2), h(0)), swap(0, 1))
        assert frame.x[1] == single(2, 0, "z")
        assert frame.x[0] == single(2, 1, "x")

    def test_partial_swaps_compose_to_the_swap(self):
        frame = apply_gate_frame(init_frame(4), h(1))
        half = partial_swap(1, 2, 0.5)
        halves = apply_gate_frame(apply_gate_frame(frame, half), half)
        whole = apply_gate_frame(frame, swap(1, 2))
        for got, want in zip(halves.x + halves.z, whole.x + whole.z):
            assert not got - want  # every coefficient within PRUNE_TOL

    def test_phase_flip_rejected_as_gate(self):
        with pytest.raises(ValueError, match="channel"):
            apply_gate_frame(init_frame(4), phase_flip(1, 0.2))


class TestGateImages:
    @pytest.mark.parametrize("kind", sorted(REF_LOCAL))
    def test_clifford_images_are_exact_signed_words(self, kind):
        for x_image, z_image in gate_images(kind):
            for image in (x_image, z_image):
                ((_, coeff),) = image.items()
                assert coeff in (1, -1, 1j, -1j)

    @pytest.mark.parametrize("kind, alpha", [(kind, None) for kind in sorted(REF_LOCAL)]
                             + [("PARTIAL_SWAP", alpha) for alpha in (0.125, 1 / 3, 0.5, 1.0)])
    def test_images_equal_dense_conjugation(self, kind, alpha):
        u = ref_partial_swap(alpha) if kind == "PARTIAL_SWAP" else REF_LOCAL[kind]
        k = len(u).bit_length() - 1
        for q, images in enumerate(gate_images(kind, alpha)):
            for axis, image in zip("xz", images):
                letter = single(k, q, axis).dense()
                assert np.abs(image.dense() - u.conj().T @ letter @ u).max() <= 1e-15


class TestDephasing:
    def _t2_frame(self):
        frames = run_network_frames(build_symmetric())
        return frames[2]

    def test_scales_only_xy_supported_terms_of_own_descriptors(self):
        frame = self._t2_frame()
        p = 0.2
        dephased = apply_dephasing_frame(apply_dephasing_frame(frame, 1, p), 2, p)
        assert dephased.x[1] == (1 - 2 * p) * frame.x[1]
        assert dephased.z[1] == frame.z[1]  # letter on B is Z: untouched
        assert dephased.x[2] == (1 - 2 * p) * frame.x[2]
        assert dephased.z[2] == frame.z[2]
        assert dephased.x[0] == frame.x[0] and dephased.x[3] == frame.x[3]

    def test_p_zero_is_identity(self):
        frame = self._t2_frame()
        dephased = apply_dephasing_frame(frame, 1, 0.0)
        assert dephased.x == frame.x and dephased.z == frame.z

    def test_full_dephasing_erases_xy_supported_terms(self):
        frame = apply_dephasing_frame(self._t2_frame(), 1, 0.5)
        assert not frame.x[1]
        assert frame.z[1] == self._t2_frame().z[1]

    def test_intensity_range_checked(self):
        with pytest.raises(ValueError):
            apply_dephasing_frame(init_frame(2), 0, 1.5)


XZ_ZX = (("x", "z"), ("z", "x"))
XX_ZZ = (("x", "x"), ("z", "z"))


def descriptor_witness(frame, state, axes=XZ_ZX):
    """The A-D witness evaluated by the descriptor engine from a basis state."""
    return pseudo_pure_expectation(
        observable_image(frame, witness_observable(4, 0, 3, axes)), state, 1.0
    )


class TestWitness:
    def test_symmetric_network_reaches_two(self):
        frames = run_network_frames(build_symmetric())
        state = BasisState.from_string("0000")
        assert descriptor_witness(frames[-1], state) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_dephased_witness_follows_attenuation(self, p):
        frames = run_network_frames(build_symmetric(p))
        state = BasisState.from_string("0000")
        got = descriptor_witness(frames[-1], state)
        assert got == pytest.approx(2 * (1 - 2 * p), abs=1e-12)

    def test_asymmetric_axes_cross_checked_against_density(self):
        frames = run_network_frames(build_asymmetric())
        state = BasisState.from_string("0000")
        final = run_network_density(build_asymmetric(), basis_density(state))[-1]
        for axes in (XZ_ZX, XX_ZZ):
            (a1, a2), (b1, b2) = axes
            obs = single(4, 0, a1) * single(4, 3, a2) + single(4, 0, b1) * single(4, 3, b2)
            assert witness_observable(4, 0, 3, axes) == obs
            dense_value = expectation(final, obs)
            frame_value = descriptor_witness(frames[-1], state, axes)
            assert frame_value == pytest.approx(dense_value, abs=1e-10)
        assert descriptor_witness(frames[-1], state, XX_ZZ) == pytest.approx(2.0, abs=1e-12)
        assert descriptor_witness(frames[-1], state, XZ_ZX) == pytest.approx(0.0, abs=1e-12)

    def test_probe_and_axis_validation(self):
        with pytest.raises(ValueError):
            witness_observable(4, 2, 2)
        with pytest.raises(ValueError):
            witness_observable(4, 0, 3, (("x", "y"), ("z", "x")))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
        epsilon=st.one_of(st.just(1.0), st.floats(0, 1)),
        probes=st.permutations(range(4)),
        letters=st.tuples(st.sampled_from("IXYZ"), st.sampled_from("IXYZ")),
    )
    def test_engines_agree_on_random_clifford_circuits(self, seed, bits, epsilon, probes, letters):
        # epsilon 1 is a basis input, anything below a pseudo-pure one; the
        # identity term is the one the maximally mixed part contributes to
        circuit = random_clifford_circuit(np.random.default_rng(seed), 4, 20)
        basis = BasisState(tuple(bits))
        frame = run_network_frames(circuit)[-1]
        final = run_network_density(circuit, pseudo_pure(epsilon, basis))[-1]
        word = ["I"] * 4
        word[probes[0]], word[probes[1]] = letters
        correlator = one_word("".join(word))
        identity = one_word("IIII")
        for obs in (correlator, witness_observable(4, 0, 3, XZ_ZX) + identity,
                    witness_observable(4, 0, 3, XX_ZZ)):
            got = pseudo_pure_expectation(observable_image(frame, obs), basis, epsilon)
            assert abs(got - expectation(final, obs)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
        epsilon=st.one_of(st.just(1.0), st.floats(0, 1)),
        probes=st.permutations(range(4)),
        letters=st.tuples(st.sampled_from("XYZ"), st.sampled_from("XYZ")),
    )
    def test_engines_agree_at_every_slice_on_every_unitary_kind(
        self, seed, bits, epsilon, probes, letters
    ):
        # both witnesses, and a correlator that may hold Y: real observables
        # on a real input cannot tell an evolution from its complex conjugate
        circuit = random_unitary_circuit(np.random.default_rng(seed), 4, 10)
        basis = BasisState(tuple(bits))
        word = ["I"] * 4
        word[probes[0]], word[probes[1]] = letters
        observables = [witness_observable(4, 0, 3, XZ_ZX), witness_observable(4, 0, 3, XX_ZZ),
                       one_word("".join(word))]
        frames = run_network_frames(circuit)
        states = run_network_density(circuit, pseudo_pure(epsilon, basis))
        assert len(frames) == len(states)
        for frame, rho in zip(frames, states):
            for obs in observables:
                got = pseudo_pure_expectation(observable_image(frame, obs), basis, epsilon)
                assert abs(got - expectation(rho, obs)) <= 1e-12


class TestEffectiveDephasingAgainstChannel:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(0, 1),
        epsilon=st.floats(0, 1),
        bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
        axes=st.sampled_from([XZ_ZX, XX_ZZ]),
    )
    def test_agree_on_witness_at_every_slice(self, p, epsilon, bits, axes):
        circuit = build_symmetric(p)
        basis = BasisState(tuple(bits))
        obs = witness_observable(4, 0, 3, axes)
        states = run_network_density(circuit, pseudo_pure(epsilon, basis))
        for frame, rho in zip(run_network_frames(circuit), states):
            got = pseudo_pure_expectation(observable_image(frame, obs), basis, epsilon)
            assert abs(got - expectation(rho, obs)) <= 1e-12

    def test_differ_on_x_after_hadamard(self):
        # after H(B) the x-descriptor of B is Z_B, which the effective map leaves
        # alone; the exact channel dephases the |+> state it stands for
        p = 0.2
        circuit = Circuit(4, (h(1), phase_flip(1, p), SLICE))
        obs = single(4, 1, "x")
        frame = run_network_frames(circuit)[-1]
        rho = run_network_density(circuit, basis_density(BasisState((0,) * 4)))[-1]
        image = observable_image(frame, obs)
        assert pseudo_pure_expectation(image, BasisState.from_string("0000"), 1.0) == 1.0
        assert expectation(rho, obs) == pytest.approx(1 - 2 * p, abs=1e-12)


class TestNonclassicality:
    def test_canonical_frame_has_degree_two(self):
        frame = init_frame(4)
        for q in range(4):
            assert nonclassicality_degree(frame, q) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_dephased_degree_follows_attenuation(self, p):
        frames = run_network_frames(build_symmetric(p))
        for q in (1, 2):
            assert nonclassicality_degree(frames[-1], q) == pytest.approx(
                2 * abs(1 - 2 * p), abs=1e-12
            )

    def test_fully_dephased_qubit_is_classical(self):
        frames = run_network_frames(build_symmetric(0.5))
        assert nonclassicality_degree(frames[-1], 1) == 0.0


class TestCliffordInvariants:
    def test_descriptors_stay_single_signed_words(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            circuit = random_clifford_circuit(rng, 4, 20)
            frame = run_network_frames(circuit)[-1]
            for descriptor in frame.x + frame.z:
                terms = descriptor.items()
                assert len(terms) == 1
                coeff = complex(terms[0][1])
                assert coeff in (1 + 0j, -1 + 0j)

    def test_descriptor_pairs_square_to_identity_and_anticommute(self):
        rng = np.random.default_rng(29)
        identity = one_word("I" * 4)
        for _ in range(100):
            circuit = random_clifford_circuit(rng, 4, 20)
            for frame in run_network_frames(circuit):
                for q in range(4):
                    x, zq = frame.x[q], frame.z[q]
                    assert x * x == identity
                    assert zq * zq == identity
                    assert not (x * zq + zq * x)  # anticommute

    def test_expectations_match_density_engine(self):
        rng = np.random.default_rng(31)
        state = BasisState.from_string("0000")
        initial = basis_density(state)
        for _ in range(50):
            circuit = random_clifford_circuit(rng, 4, 20)
            frame = run_network_frames(circuit)[-1]
            final = run_network_density(circuit, initial)[-1]
            for q in range(4):
                for axis in "xyz":
                    got = expectation_basis(state, frame_observable(frame, [(q, axis)]))
                    want = expectation(final, single(4, q, axis))
                    assert abs(got - want) < 1e-10


class TestSymbolicAttenuation:
    def test_polynomial_arithmetic(self):
        two = ATTENUATION + ATTENUATION
        assert two == AttenuationPoly({1: 2.0})
        assert ATTENUATION * ATTENUATION == AttenuationPoly({2: 1.0})
        assert complex(AttenuationPoly({0: 2.5})) == 2.5
        with pytest.raises(TypeError, match="substitute"):
            complex(ATTENUATION)

    def test_substitution_matches_numeric_run(self):
        symbolic = run_network_frames(build_symmetric("symbolic"))[-1]
        for p in (0.0, 0.2, 0.5):
            numeric = run_network_frames(build_symmetric(p))[-1]
            assert [substitute(d, p) for d in symbolic.x] == list(numeric.x)
            assert [substitute(d, p) for d in symbolic.z] == list(numeric.z)

    def test_attenuation_value(self):
        poly = AttenuationPoly({2: 3.0})
        assert poly.at(0.25) == pytest.approx(3 * 0.5 ** 2)


class TestRenderingAndParsing:
    def test_render_empty_sum(self):
        assert render_sum(PauliSum.zero(4)) == "0"

    def test_parse_round_trip(self):
        frames = run_network_frames(build_symmetric("symbolic"))
        for frame in frames:
            for descriptor in frame.x + frame.z:
                text = render_sum(descriptor)
                assert parse_word(text, 4) == descriptor

    def test_parse_reordered_factors(self):
        assert parse_word("q_zB q_zD q_xA", 4) == parse_word("q_xA q_zB q_zD", 4)

    def test_parse_repeated_qubit_picks_up_phase(self):
        # q_zA q_xA = i q_yA
        assert parse_word("q_zA q_xA", 2) == PauliSum(2, {"YI": 1j})

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("q_wA", 4)
        with pytest.raises(ValueError):
            parse_word("(1-3p)q_xA", 4)

    def test_structured_dump(self):
        frames = run_network_frames(build_symmetric("symbolic"))
        dump = frames_to_dict(frames)
        assert len(dump["slices"]) == 4
        cell = dump["slices"][3]["qubits"][1]  # qubit B at the final time
        assert cell["label"] == "B"
        assert cell["x"][0]["word"] == "IXZX"
        assert cell["x"][0]["coefficient"] == [{"power": 1, "re": 1.0, "im": 0.0}]


class TestRunNetworkFrames:
    def test_slice_count_and_time_labels(self):
        frames = run_network_frames(build_symmetric())
        assert [f.time_index for f in frames] == [0, 1, 2, 3]

    def test_partial_swap_network_matches_density_at_every_slice(self):
        circuit = Circuit(4, (h(1), partial_swap(1, 2, 0.5), SLICE, partial_swap(2, 3, 0.3), SLICE))
        state = BasisState.from_string("0110")
        states = run_network_density(circuit, basis_density(state))
        frames = run_network_frames(circuit)
        assert [f.time_index for f in frames] == [0, 1, 2]
        for frame, rho in zip(frames, states):
            for q in range(4):
                for axis in "xyz":
                    got = expectation_basis(state, frame_observable(frame, [(q, axis)]))
                    assert abs(got - expectation(rho, single(4, q, axis))) <= 1e-12
