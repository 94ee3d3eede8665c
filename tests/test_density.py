"""Density-engine tests: gates, channels, expectations, negativity, averaging."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_phase_flip,
    basis_density,
    eigvalsh_validate,
    one_word,
    per_circuit_average,
    ref_gate_unitary,
    random_clifford_gates,
    random_density,
    random_sum,
    ref_sum_matrix,
)
from medwit.circuits import (
    SLICE,
    Circuit,
    GateOp,
    build_staged,
    build_symmetric,
    cnot,
    exhaustive_patterns,
    h,
    partial_swap,
    phase_flip,
    sample_patterns,
    swap,
    z,
)
from medwit import density
from medwit.cli import _parse_grid
from medwit.density import (
    DensityMatrix,
    apply_gate,
    exhaustive_average,
    expectation,
    gate_unitary,
    negativity,
    partial_trace,
    pseudo_pure,
    run_intensity_grid,
    run_network_density,
    state_to_bytes,
    temporal_average,
)
from medwit.pauli import BasisState, PauliSum, hermitian_value, single, witness_observable

ZERO4 = BasisState.from_string("0000")
XX_ZZ = (("x", "x"), ("z", "z"))


class TestDensityMatrixType:
    def test_basis_density_projector(self):
        rho = basis_density(ZERO4)
        assert rho.entries[0, 0, 0] == 1.0
        assert np.trace(rho.entries[0]) == pytest.approx(1.0)
        rho12 = basis_density(BasisState.from_string("1100"))
        assert rho12.entries[0, 12, 12] == 1.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_entries_are_read_only(self):
        rho = basis_density(ZERO4)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

    def test_report_does_not_depend_on_the_input_layout(self):
        """The same values passed Fortran-ordered, or with the stack axis
        innermost, are stored C-ordered, so ``expectation``'s einsum sums
        them in the same order: the first 16-point stack of the sweep over
        0:0.5:0.0005 reads the witness 1.9999999999999993 every way."""
        grid = _parse_grid("0:0.5:0.0005")[:16]
        stack = next(run_intensity_grid(build_symmetric(), pseudo_pure(1.0, ZERO4), grid)).entries
        innermost = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
        witness = witness_observable(4, 0, 3)
        for layout in (stack, np.asfortranarray(stack), innermost):
            rho = DensityMatrix(layout)
            assert rho.entries.flags.c_contiguous
            assert rho.entries.tobytes() == stack.tobytes()
            assert expectation(rho, witness)[0].hex() == (1.9999999999999993).hex()


def decision(check, entries: np.ndarray):
    """What a positivity check does with a stack: None where it passes, else
    the type and message of what it raises (``LinAlgError`` is a ValueError)."""
    try:
        check(entries)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def frame_state(rng: np.random.Generator, lowest: float, dim: int = 16) -> np.ndarray:
    """A Hermitian trace-one dim x dim matrix with eigenvalue ``lowest`` and
    dim - 1 positive ones, in a random unitary frame."""
    values = np.concatenate([[lowest], rng.dirichlet(np.ones(dim - 1)) * (1 - lowest)])
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    rho = (u * values) @ u.conj().T
    return (rho + rho.conj().T) / 2


class TestPositivityDecisions:
    """The constructor passes or raises on a finite, Hermitian, trace-one
    stack exactly where ``eigvalsh`` alone does, with the same message,
    whether or not its Cholesky certificate of rho + _PSD_TOL/2 I completes."""

    TOL = density._PSD_TOL

    @staticmethod
    def certified(entries: np.ndarray) -> bool:
        try:
            factor = np.linalg.cholesky(entries + density._PSD_TOL / 2 * np.eye(entries.shape[-1]))
        except np.linalg.LinAlgError:
            return False
        return bool(np.isfinite(factor).all())

    def test_lowest_eigenvalue_around_the_tolerance(self):
        rng = np.random.default_rng(2201)
        outcomes = {"certified": 0, "passed": 0, "raised": 0}
        for s in np.linspace(0.2, 3.0, 301) * self.TOL:
            entries = frame_state(rng, -s)[np.newaxis]
            want = decision(eigvalsh_validate, entries)
            assert decision(DensityMatrix, entries) == want
            outcomes["certified" if self.certified(entries) else
                     "raised" if want else "passed"] += 1
        # each way to decide is taken: the certificate, eigvalsh passing, eigvalsh raising
        assert min(outcomes.values()) > 20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)],
                             ids=["nan", "inf", "-inf", "nan-imaginary"])
    @pytest.mark.parametrize("places", [[(3, 3)], [(5, 2)], [(2, 5)], [(5, 2), (2, 5)]],
                             ids=["diagonal", "lower", "upper", "both-triangles"])
    def test_non_finite_entries(self, value, places):
        entries = np.repeat(pseudo_pure(0.5, ZERO4).entries, 3, axis=0)
        for row, col in places:
            entries[1, row, col] = value
        with pytest.raises(ValueError, match="^density matrix has a non-finite"):
            DensityMatrix(entries)

    def test_nan_state_is_refused(self):
        """The constructor refuses a NaN state before its positivity check,
        for which ``cholesky`` can return a NaN factor without raising."""
        entries = np.eye(16, dtype=complex) / 16
        entries[3, 3] = np.nan
        with pytest.raises(ValueError, match="^density matrix has a non-finite"):
            DensityMatrix(entries)

    @pytest.mark.parametrize("s", [0.4, 0.8, 1.5, 5e9], ids=["certified", "eigvalsh-passes",
                                                             "just-below", "far-below"])
    def test_bad_state_last_of_a_stack_of_32(self, s):
        rng = np.random.default_rng(2202)
        entries = np.stack([frame_state(rng, 0.0) for _ in range(31)]
                           + [frame_state(rng, -s * self.TOL)])
        want = decision(eigvalsh_validate, entries)
        assert (want is None) == (s < 1)
        assert decision(DensityMatrix, entries) == want

    def test_imaginary_diagonal(self):
        """An imaginary diagonal that the Hermiticity and trace checks let
        through: at most 5e-11 on each entry, summing to 0."""
        rng = np.random.default_rng(2203)
        for s in np.linspace(0.2, 3.0, 57) * self.TOL:
            entries = frame_state(rng, -s)[np.newaxis]
            imaginary = rng.uniform(-2.5e-11, 2.5e-11, 16)
            entries[0] += np.diag(1j * (imaginary - imaginary.mean()))
            assert decision(DensityMatrix, entries) == decision(eigvalsh_validate, entries)


class TestStacks:
    """A stack of k states reads as its k states one at a time, byte for byte."""

    def test_report_layer_and_indexing_match_each_state(self):
        rng = np.random.default_rng(47)
        states = [random_density(rng, 4) for _ in range(7)]
        stack = DensityMatrix(np.concatenate([rho.entries for rho in states]))
        assert len(stack) == 7 and stack.entries.shape == (7, 16, 16)
        obs = witness_observable(4, 0, 3, XX_ZZ) + single(4, 1, "y") * single(4, 2, "x")

        def each(read):
            return np.concatenate([read(rho) for rho in states]).tobytes()

        for i, rho in enumerate(states):
            assert stack[i].entries.tobytes() == rho.entries.tobytes()
        assert stack[2:5].entries.tobytes() == np.concatenate(
            [rho.entries for rho in states[2:5]]
        ).tobytes()
        assert expectation(stack, obs).tobytes() == each(lambda rho: expectation(rho, obs))
        reduced = partial_trace(stack, [0, 3])
        assert reduced.entries.tobytes() == each(lambda rho: partial_trace(rho, [0, 3]).entries)
        assert negativity(reduced, [0]).tobytes() == each(
            lambda rho: negativity(partial_trace(rho, [0, 3]), [0])
        )
        assert negativity(stack, [1, 2]).tobytes() == each(lambda rho: negativity(rho, [1, 2]))

    def test_each_state_is_checked(self):
        good = pseudo_pure(0.5, ZERO4).entries
        bad = np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)[np.newaxis]
        with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
            DensityMatrix(np.concatenate([good, good, bad]))
        DensityMatrix(np.concatenate([good, good]))
        with pytest.raises(ValueError, match="nonempty stack"):
            DensityMatrix(np.zeros((0, 16, 16), dtype=complex))

    @pytest.mark.parametrize(
        "evolve",
        [
            lambda rho: run_network_density(build_staged(2), rho),
            lambda rho: next(run_intensity_grid(build_symmetric(), rho, [0.1])),
            lambda rho: temporal_average(2, np.array([[[True, False], [False, True]]]), rho),
            lambda rho: exhaustive_average(2, rho),
        ],
        ids=["run_network_density", "run_intensity_grid", "temporal_average",
             "exhaustive_average"],
    )
    def test_evolutions_take_one_initial_state(self, evolve):
        one = pseudo_pure(0.5, BasisState.from_string("1100"))
        evolve(one)
        two = DensityMatrix(np.concatenate([one.entries, one.entries]))
        with pytest.raises(ValueError, match="initial state must be one state, got a stack of 2"):
            evolve(two)


class TestGateUnitaries:
    def test_partial_swap_full_power_is_swap(self):
        u = gate_unitary(partial_swap(0, 1, 1.0), 2)
        assert np.max(np.abs(u - gate_unitary(swap(0, 1), 2))) < 1e-14

    def test_eighth_root_composes_to_swap(self):
        u = gate_unitary(partial_swap(0, 1, 0.125), 2)
        assert np.max(np.abs(np.linalg.matrix_power(u, 8) - gate_unitary(swap(0, 1), 2))) < 1e-10

    def test_small_exponent_approaches_identity(self):
        u = gate_unitary(partial_swap(0, 1, 1e-12), 2)
        assert np.max(np.abs(u - np.eye(4))) < 1e-10

    def test_cnot_action_on_basis_states(self):
        u = gate_unitary(cnot(0, 1), 2)
        # |10> -> |11>, |11> -> |10>, control untouched otherwise
        assert u[3, 2] == 1.0 and u[2, 3] == 1.0 and u[0, 0] == 1.0 and u[1, 1] == 1.0

    def test_reversed_control_target_embedding(self):
        u = gate_unitary(cnot(1, 0), 2)
        assert u[3, 1] == 1.0 and u[1, 3] == 1.0 and u[0, 0] == 1.0 and u[2, 2] == 1.0

    def test_channel_is_not_a_unitary(self):
        with pytest.raises(ValueError, match="channel"):
            gate_unitary(phase_flip(0), 2)

    def test_embedding_matches_kronecker_reference(self):
        checked = 0
        for n in range(2, 6):
            gates = [GateOp(kind, (q,)) for kind in ("H", "Z") for q in range(n)]
            for pair in itertools.permutations(range(n), 2):
                gates += [GateOp(kind, pair) for kind in ("CNOT", "CPHASE", "SWAP")]
                gates += [partial_swap(*pair, 1.0 / s) for s in range(1, 35)]
            for gate in gates:
                u = gate_unitary(gate, n)
                assert np.array_equal(u, ref_gate_unitary(gate, n)), (gate, n)
                zeros = np.concatenate([u.real[u.real == 0], u.imag[u.imag == 0]])
                assert not np.signbit(zeros).any(), (gate, n)
            checked += len(gates)
        assert checked == 1508

    def test_all_gate_unitaries_are_unitary(self):
        for gate in (h(1), z(2), cnot(0, 3), cnot(3, 1), swap(1, 3), partial_swap(2, 0, 0.37)):
            u = gate_unitary(gate, 4)
            assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12


SIGNED_PERMUTATIONS = {
    "Z": [z(q) for q in range(4)],
    "CNOT": [cnot(*pair) for pair in itertools.permutations(range(4), 2)],
    "CPHASE": [GateOp("CPHASE", pair) for pair in itertools.permutations(range(4), 2)],
    "SWAP": [swap(*pair) for pair in itertools.permutations(range(4), 2)],
}


@st.composite
def stacks_with_zeros(draw) -> np.ndarray:
    """A (k, 16, 16) complex stack, not a state, with exact +0 entries: whole
    entries, real parts or imaginary parts, at a drawn density; no -0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 4))
    entries = rng.normal(size=(k, 16, 16)) + 1j * rng.normal(size=(k, 16, 16))
    for part in draw(st.sets(st.sampled_from(["entry", "real", "imag"]), min_size=1)):
        zero = rng.random(entries.shape) < draw(st.floats(0, 1))
        if part == "entry":
            entries[zero] = 0
        else:
            getattr(entries, part)[zero] = 0
    return entries


class TestSignedPermutationKernels:
    """``_apply_raw`` applies Z, CNOT, CPHASE and SWAP by index arithmetic,
    and must give the bytes of the dense product, in C order."""

    @pytest.mark.parametrize("kind", sorted(SIGNED_PERMUTATIONS))
    @settings(max_examples=25, deadline=None)
    @given(entries=stacks_with_zeros())
    def test_index_action_equals_dense_product(self, kind, entries):
        for gate in SIGNED_PERMUTATIONS[kind]:
            u = gate_unitary(gate, 4)
            assert isinstance(density._gate_action(gate, 4), density._SignedPermutation)
            got = density._apply_raw(gate, entries, 4)
            assert got.flags.c_contiguous, gate
            assert got.tobytes() == (u @ entries @ u.conj().T).tobytes(), gate

    @settings(max_examples=25, deadline=None)
    @given(entries=stacks_with_zeros(), p=st.floats(0, 1))
    def test_phase_flip_channel_equals_dense_product(self, entries, p):
        for q in range(4):
            u = gate_unitary(z(q), 4)
            got = density._apply_raw(phase_flip(q), entries, 4, p)
            assert got.flags.c_contiguous, q
            want = (1.0 - p) * entries + p * (u @ entries @ u.conj().T)
            assert got.tobytes() == want.tobytes(), q

    @pytest.mark.parametrize("gate", [h(0), h(3), partial_swap(1, 2, 0.5), partial_swap(2, 3, 1.0),
                                      partial_swap(0, 3, 1 / 34)],
                             ids=["H-A", "H-D", "pswap-BC-half", "pswap-CD-full", "pswap-AD-34th"])
    def test_other_gates_keep_the_dense_product(self, gate):
        u = gate_unitary(gate, 4)
        action = density._gate_action(gate, 4)
        assert isinstance(action, np.ndarray) and action.tobytes() == u.tobytes()
        rho = random_density(np.random.default_rng(5), 4)
        got = density._apply_raw(gate, rho.entries, 4)
        assert got.tobytes() == (u @ rho.entries @ u.conj().T).tobytes()
        assert apply_gate(rho, gate).entries.tobytes() == got.tobytes()

    def test_a_flip_builds_no_gate_once_its_action_is_cached(self, monkeypatch):
        """A phase flip's action is its Z's, cached on the flip op itself,
        so after one warm-up call a flip constructs no ``GateOp``."""
        flips = [phase_flip(q) for q in range(4)]
        entries = random_density(np.random.default_rng(9), 4).entries
        for op in flips:
            density._apply_raw(op, entries, 4, 0.3)
        built = []
        post_init = GateOp.__post_init__
        monkeypatch.setattr(GateOp, "__post_init__", lambda op: built.append(op) or post_init(op))
        for op in flips:
            density._apply_raw(op, entries, 4, 0.3)
        assert built == []
        assert z(0) is built[0]

    def test_the_rule_reads_the_unitary_entries(self):
        """A gate is a signed permutation exactly when its unitary has one
        nonzero entry per row, each exactly +1 or -1; a full-power partial
        swap is SWAP up to rounding, so it stays dense."""
        gates = [gate for kind in SIGNED_PERMUTATIONS.values() for gate in kind]
        gates += [h(q) for q in range(4)] + [partial_swap(0, 1, 1.0), partial_swap(2, 1, 0.25)]
        for gate in gates:
            u = ref_gate_unitary(gate, 4)
            signed = (np.count_nonzero(u, axis=1) == 1).all() and np.isin(u[u != 0], [1, -1]).all()
            action = density._gate_action(gate, 4)
            assert isinstance(action, density._SignedPermutation) == signed, gate
            assert signed == (gate.kind in SIGNED_PERMUTATIONS), gate


class TestApplyGate:
    def test_phase_flip_needs_an_intensity(self):
        rho = basis_density(ZERO4)
        for q in range(4):
            with pytest.raises(ValueError, match="a phase flip needs a dephasing intensity p"):
                apply_gate(rho, phase_flip(q))

    def test_bell_pair_correlations(self):
        rho = apply_gate(apply_gate(basis_density(ZERO4), h(0)), cnot(0, 1))
        xx = single(4, 0, "x") * single(4, 1, "x")
        zz = single(4, 0, "z") * single(4, 1, "z")
        assert expectation(rho, xx) == pytest.approx(1.0, abs=1e-12)
        assert expectation(rho, zz) == pytest.approx(1.0, abs=1e-12)
        # each Bell-pair member alone is maximally mixed; D is still pure |0>
        assert np.max(np.abs(partial_trace(rho, [0]).entries - np.eye(2) / 2)) < 1e-12
        reduced_ad = partial_trace(rho, [0, 3])
        assert np.max(np.abs(reduced_ad.entries - np.diag([0.5, 0, 0.5, 0]))) < 1e-12

    def test_singlet_from_flipped_bits(self):
        rho = apply_gate(
            apply_gate(basis_density(BasisState.from_string("1100")), h(0)), cnot(0, 1)
        )
        xx = single(4, 0, "x") * single(4, 1, "x")
        zz = single(4, 0, "z") * single(4, 1, "z")
        assert expectation(rho, xx) == pytest.approx(-1.0, abs=1e-12)
        assert expectation(rho, zz) == pytest.approx(-1.0, abs=1e-12)

    def test_z_gate_is_an_involution_on_states(self):
        rho = apply_gate(apply_gate(basis_density(ZERO4), h(2)), h(1))
        twice = apply_gate(apply_gate(rho, z(2)), z(2))
        assert np.max(np.abs(twice.entries - rho.entries)) < 1e-14

    def test_unitary_dual_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            rho = random_density(rng, int(rng.integers(1, 5)))
            n = rho.n
            gate = random_clifford_gates(rng, n, 1)[0] if n > 1 else h(0)
            a = random_sum(rng, n)
            u = gate_unitary(gate, n)
            evolved = apply_gate(rho, gate)
            assert evolved.entries.tobytes() == density._apply_raw(gate, rho.entries, n).tobytes()
            assert evolved.entries.tobytes() == (u @ rho.entries @ u.conj().T).tobytes()
            lhs = np.einsum("ij,ji->", evolved.entries[0], ref_sum_matrix(a))
            rhs = np.einsum(
                "ij,ji->", rho.entries[0], u.conj().T @ ref_sum_matrix(a) @ u
            )
            assert abs(lhs - rhs) < 1e-10


class TestPhaseFlip:
    def test_zero_intensity_is_identity(self):
        rho = apply_gate(basis_density(BasisState.from_string("0")), h(0))
        assert np.max(np.abs(apply_phase_flip(rho, 0, 0.0).entries - rho.entries)) < 1e-14

    def test_full_strength_dephases_plus_state(self):
        rho = apply_gate(basis_density(BasisState.from_string("0")), h(0))
        x = single(1, 0, "x")
        assert expectation(rho, x) == pytest.approx(1.0, abs=1e-12)
        dephased = apply_phase_flip(rho, 0, 0.5)
        assert expectation(dephased, x) == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(dephased.entries - np.eye(2) / 2)) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.9])
    def test_x_expectation_scales_by_attenuation(self, p):
        rng = np.random.default_rng(43)
        for _ in range(10):
            rho = random_density(rng, 2)
            x = single(2, 1, "x")
            before = expectation(rho, x)
            after = expectation(apply_phase_flip(rho, 1, p), x)
            assert after == pytest.approx((1 - 2 * p) * before, abs=1e-12)

    def test_intensity_validated(self):
        with pytest.raises(ValueError):
            apply_phase_flip(basis_density(ZERO4), 1, 1.2)


class TestExpectation:
    def test_bell_pair(self):
        rho = apply_gate(apply_gate(basis_density(BasisState.from_string("00")), h(0)), cnot(0, 1))
        assert expectation(rho, one_word("XX")) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_network_witness(self):
        obs = witness_observable(4, 0, 3)
        final = run_network_density(build_symmetric(), basis_density(ZERO4), 0.0)[-1]
        assert expectation(final, obs) == pytest.approx(2.0, abs=1e-10)
        dephased = run_network_density(build_symmetric(), basis_density(ZERO4), 0.25)[-1]
        assert expectation(dephased, obs) == pytest.approx(1.0, abs=1e-10)

    def test_non_hermitian_reported(self):
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(basis_density(BasisState.from_string("0")), PauliSum(1, {"Z": 1j}))

    def test_each_residue_bound_is_its_own(self):
        """A state may carry a skew up to 1e-10, so ``expectation`` accepts a
        witness residue of 5e-11, which ``hermitian_value`` at its default
        bound, the one for descriptor images, refuses."""
        witness = witness_observable(4, 0, 3)
        entries = np.eye(16, dtype=complex) / 16
        row, col = np.argwhere(witness.dense() != 0)[0]
        # Tr(rho W) gains rho[col, row] W[row, col], an imaginary 5e-11 times +-1
        entries[col, row] += 5e-11j
        value = np.trace(entries @ witness.dense())
        assert abs(value.imag) == 5e-11
        assert expectation(DensityMatrix(entries), witness).tolist() == [0.0]
        with pytest.raises(ValueError, match="imaginary residue -?5e-11; operator is not"):
            hermitian_value(value)


class TestNegativity:
    def test_bell_pair_value(self):
        rho = apply_gate(apply_gate(basis_density(BasisState.from_string("00")), h(0)), cnot(0, 1))
        assert negativity(rho, [0]) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_value(self):
        rho = apply_gate(basis_density(BasisState.from_string("00")), h(0))
        assert negativity(rho, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_fully_dephased_network_output_is_separable(self):
        final = run_network_density(build_symmetric(), basis_density(ZERO4), 0.5)[-1]
        reduced = partial_trace(final, [0, 3])
        assert negativity(reduced, [0]) <= 1e-10

    def test_partition_validation(self):
        rho = basis_density(ZERO4)
        with pytest.raises(ValueError):
            negativity(rho, [])
        with pytest.raises(ValueError):
            negativity(rho, [0, 1, 2, 3])


class TestPseudoPure:
    def test_full_purity_is_projector(self):
        assert np.max(np.abs(pseudo_pure(1.0, ZERO4).entries - basis_density(ZERO4).entries)) == 0

    def test_maximally_mixed_gives_zero_witness(self):
        rho = pseudo_pure(0.0, ZERO4)
        final = run_network_density(build_symmetric(), rho, 0.0)[-1]
        assert expectation(final, witness_observable(4, 0, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_witness_scales_linearly_with_purity(self):
        obs = witness_observable(4, 0, 3)
        pure = expectation(run_network_density(build_symmetric(), basis_density(ZERO4), 0.0)[-1], obs)
        for eps in (0.0, 0.3, 1.0):
            mixed = expectation(
                run_network_density(build_symmetric(), pseudo_pure(eps, ZERO4), 0.0)[-1], obs
            )
            assert mixed == pytest.approx(eps * pure, abs=1e-12)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            pseudo_pure(1.5, ZERO4)


#: one B-C stage quiet or dephased, the C-D stage quiet in both
BRANCHES = np.array([
    [[False, False], [False, False]],
    [[True, False], [False, False]],
])
#: one pattern that dephases no stage of the 8-stage network
QUIET_8 = np.zeros((1, 2, 8), dtype=bool)


class TestTemporalAverage:
    def test_two_branch_average_equals_half_intensity_channel(self):
        initial = pseudo_pure(0.8, BasisState.from_string("1100"))
        averaged = temporal_average(2, BRANCHES, initial)
        u_bc, u_cd = partial_swap(1, 2, 0.5), partial_swap(2, 3, 0.5)
        channel = Circuit(4, (
            h(0), cnot(0, 1), SLICE, u_bc, phase_flip(2), u_bc, SLICE, u_cd, u_cd, SLICE,
        ))
        expected = run_network_density(channel, initial, 0.5)[-1]
        assert np.max(np.abs(averaged.entries - expected.entries)) < 1e-12
        undephased = run_network_density(build_staged(2), initial)[-1]
        assert np.max(np.abs(averaged.entries - undephased.entries)) > 0.1

    def test_single_all_quiet_pattern_matches_undephased_run(self):
        initial = basis_density(BasisState.from_string("1100"))
        averaged = temporal_average(8, QUIET_8, initial)
        undephased = run_network_density(build_staged(8), initial)[-1]
        assert np.max(np.abs(averaged.entries - undephased.entries)) < 1e-14

    def test_circuit_size_must_match_initial_state(self):
        with pytest.raises(ValueError, match="initial state has n=3, circuit has n=4"):
            temporal_average(8, QUIET_8, basis_density(BasisState.from_string("110")))

    @pytest.mark.parametrize(
        "patterns, described",
        [
            (QUIET_8.astype(int), "int64 of shape (1, 2, 8)"),
            (np.zeros((3, 2, 4), dtype=bool), "bool of shape (3, 2, 4)"),
            (np.zeros((3, 16), dtype=bool), "bool of shape (3, 16)"),
            (np.zeros((0, 2, 8), dtype=bool), "bool of shape (0, 2, 8)"),
        ],
        ids=["wrong-dtype", "wrong-stage-count", "flat-rows", "empty"],
    )
    def test_patterns_must_be_a_nonempty_bool_array_of_the_stage_count(self, patterns, described):
        message = f"patterns must be a nonempty (k, 2, 8) bool array, got {described}"
        with pytest.raises(ValueError, match=re.escape(message)):
            temporal_average(8, patterns, basis_density(BasisState.from_string("1100")))


def _unbalanced_patterns(rng: np.random.Generator, stages: int, count: int) -> np.ndarray:
    return np.array(
        [[rng.integers(2, size=stages), rng.integers(2, size=stages)] for _ in range(count)]
    ).astype(bool)


#: largest entry gap allowed between ``temporal_average`` and the per-circuit
#: reference: the vector walk sums in another order, and the cases below,
#: with 2000 random lists of the last test, measured at most 7.8e-16 apart
REFERENCE_TOL = 2e-15


class TestAgainstPerCircuitReference:
    """The vector walk of ``temporal_average`` matches evolving each pattern's
    circuit alone on its density matrix, to within ``REFERENCE_TOL``."""

    @pytest.mark.parametrize(
        "stages, patterns",
        [
            (8, sample_patterns(8, 16, seed=0)),
            (24, sample_patterns(24, 69, seed=1)),
            (4, exhaustive_patterns(4)),
            # per-link dephased counts other than stages/2
            (6, _unbalanced_patterns(np.random.default_rng(5), 6, 40)),
        ],
        ids=["sampled-16", "sampled-69", "exhaustive-4", "unbalanced"],
    )
    def test_equals_per_circuit_reference(self, stages, patterns):
        initial = pseudo_pure(0.7, BasisState.from_string("1100"))
        averaged = temporal_average(stages, patterns, initial)
        reference = per_circuit_average(stages, patterns, initial)
        assert np.max(np.abs(averaged.entries - reference.entries)) <= REFERENCE_TOL

    @pytest.mark.parametrize(
        "initial",
        [
            # three weighted eigenvalues above the smallest, and twelve that
            # differ from it by rounding alone: the general split keeps three
            random_density(np.random.default_rng(7), 4, rank=3),
            pseudo_pure(1.0, BasisState.from_string("0110")),
        ],
        ids=["mixed-rank-3", "basis-0110"],
    )
    def test_any_initial_state_equals_per_circuit_reference(self, initial):
        patterns = sample_patterns(8, 16, seed=0)
        averaged = temporal_average(8, patterns, initial)
        reference = per_circuit_average(8, patterns, initial)
        assert np.max(np.abs(averaged.entries - reference.entries)) <= REFERENCE_TOL

    @pytest.mark.parametrize(
        "initial, columns",
        [
            (random_density(np.random.default_rng(7), 4, rank=3), 3),
            (pseudo_pure(1e-12, BasisState.from_string("1100")), 1),
            (pseudo_pure(0.0, BasisState.from_string("1100")), 0),
        ],
        ids=["mixed-rank-3", "pseudo-pure-1e-12", "maximally-mixed"],
    )
    def test_walk_keeps_one_column_per_weighted_eigenvector(self, monkeypatch, initial, columns):
        """Columns walked per pattern: a rank-3 mixed state's twelve
        eigenvalues within rounding of the smallest go into its multiple of
        I, while a weight of 1e-12 is kept."""
        widths = []
        unitary = density.gate_unitary

        class Counted:
            def __init__(self, u):
                self.u = u

            def __matmul__(self, psi):
                widths.append(psi.shape[1])
                return self.u @ psi

        monkeypatch.setattr(density, "gate_unitary", lambda op, n: Counted(unitary(op, n)))
        temporal_average(8, sample_patterns(8, 16, seed=0), initial)
        assert set(widths) == {columns * 16}

    def test_maximally_mixed_state_is_fixed_exactly(self):
        """I/16 keeps no eigenvector: the result is its smallest eigenvalue times I."""
        initial = pseudo_pure(0.0, BasisState.from_string("1100"))
        averaged = temporal_average(8, sample_patterns(8, 16, seed=0), initial)
        assert np.array_equal(averaged.entries[0], np.eye(16) / 16)

    @settings(max_examples=10, deadline=None)
    @given(
        stages=st.sampled_from([2, 4, 6]),
        ranks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=40),
    )
    def test_random_balanced_pattern_lists(self, stages, ranks):
        population = exhaustive_patterns(stages)
        patterns = population[np.array(ranks) % len(population)]
        initial = basis_density(BasisState.from_string("1100"))
        averaged = temporal_average(stages, patterns, initial)
        reference = per_circuit_average(stages, patterns, initial)
        assert np.max(np.abs(averaged.entries - reference.entries)) <= REFERENCE_TOL


class TestRunNetworkDensity:
    def test_snapshots_satisfy_invariants(self):
        for p in (0.0, 0.3):
            states = run_network_density(build_symmetric(), basis_density(ZERO4), p)
            assert len(states) == 4
            for rho in states:
                assert abs(np.trace(rho.entries[0]) - 1) < 1e-10

    def test_flip_without_intensity_rejected(self):
        with pytest.raises(ValueError, match="phase flip needs a dephasing intensity p"):
            run_network_density(build_symmetric(), basis_density(ZERO4))

    @pytest.mark.parametrize("p", [1.5, -0.2, float("nan")])
    def test_intensity_outside_unit_interval_is_named(self, p):
        with pytest.raises(ValueError, match=re.escape(f"must lie in [0, 1], got {p!r}")):
            run_network_density(build_symmetric(), basis_density(ZERO4), p)
        # the grid is checked before its first stack, also where the bad
        # point lies in a later stack
        for grid in ([p], [0.1] * density._BATCH + [p]):
            with pytest.raises(ValueError, match=re.escape(f"must lie in [0, 1], got {p!r}")):
                next(run_intensity_grid(build_symmetric(), basis_density(ZERO4), grid))


class TestStateBytes:
    def test_round_trip_and_size(self):
        rho = run_network_density(build_symmetric(), basis_density(ZERO4), 0.0)[-1]
        blob = state_to_bytes(rho)
        assert len(blob) == 16 * 4 ** 4
        back = np.frombuffer(blob, dtype="<f8").reshape(16, 16, 2)
        assert np.array_equal(back[..., 0] + 1j * back[..., 1], rho.entries[0])
