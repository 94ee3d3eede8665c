"""Unit tests for the symbolic Pauli algebra, checked against a dense oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_sum, random_term, ref_basis_vector, ref_sum_matrix, ref_term_matrix
from medwit.heisenberg import ATTENUATION, render_sum
from medwit.pauli import (
    PHASES,
    BasisState,
    PauliSum,
    PauliTerm,
    commutator,
    expectation_basis,
    identity_component,
    mul,
    operator_norm,
    single,
)


class TestPauliTerm:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauliTerm("XQ")
        with pytest.raises(ValueError):
            PauliTerm("XX", phase=2)
        with pytest.raises(ValueError):
            PauliTerm("")

    def test_render(self):
        assert render_sum(PauliTerm("ZXII").to_sum()) == "q_zA q_xB"
        assert render_sum(PauliTerm("IIII").to_sum()) == "id"
        assert render_sum(PauliTerm("YI", -1j).to_sum()) == "-iq_yA"
        assert render_sum(PauliTerm("II", -1).to_sum()) == "-id"

    def test_single(self):
        assert single(4, 0, "z") == PauliTerm("ZIII")
        assert single(4, 3, "x") == PauliTerm("IIIX")
        with pytest.raises(ValueError):
            single(4, 4, "x")


class TestMul:
    def test_z_times_x_gives_i_y(self):
        a = PauliTerm("ZI")
        b = PauliTerm("XI")
        assert mul(a, b) == PauliTerm("YI", 1j)

    def test_letter_squares_to_identity(self):
        for letter in "XYZ":
            t = PauliTerm(letter + "I")
            assert mul(t, t) == PauliTerm("II", 1)

    def test_disjoint_supports_commute(self):
        a = PauliTerm("XI")
        b = PauliTerm("IZ")
        assert mul(a, b) == mul(b, a) == PauliTerm("XZ")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            mul(PauliTerm("X"), PauliTerm("XX"))

    def test_single_qubit_products_match_dense(self):
        for la in "IXYZ":
            for lb in "IXYZ":
                product = mul(PauliTerm(la), PauliTerm(lb))
                dense = ref_term_matrix(PauliTerm(la)) @ ref_term_matrix(PauliTerm(lb))
                assert np.allclose(ref_term_matrix(product), dense, atol=1e-14)

    def test_associativity_and_distributivity_against_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            a, b, c = (random_term(rng, n) for _ in range(3))
            left = mul(mul(a, b), c)
            right = mul(a, mul(b, c))
            assert left == right
            dense = ref_term_matrix(a) @ ref_term_matrix(b) @ ref_term_matrix(c)
            assert np.max(np.abs(ref_term_matrix(left) - dense)) < 1e-12
            # distributivity over sums
            sb, sc = b.to_sum(), c.to_sum()
            assert a.to_sum() * (sb + sc) == a.to_sum() * sb + a.to_sum() * sc


class TestPauliSum:
    def test_canonicalization_merges_and_prunes(self):
        s = PauliSum(2, {"XX": 1.0, "ZZ": 1e-16})
        assert len(s) == 1
        t = PauliTerm("XX").to_sum() - PauliTerm("XX").to_sum()
        assert not t and len(t) == 0

    def test_scalar_and_term_arithmetic(self):
        s = 2.0 * PauliTerm("XI").to_sum()
        assert s.coefficient("XI") == 2.0
        assert (-s).coefficient("XI") == -2.0
        assert (s - PauliTerm("XI")).coefficient("XI") == 1.0

    def test_identity_component(self):
        s = PauliSum(2, {"II": 0.25, "XZ": 1.0})
        assert identity_component(s) == 0.25
        assert identity_component(PauliTerm("XZ")) == 0


class TestCommutator:
    def test_z_x(self):
        got = commutator(PauliTerm("Z"), PauliTerm("X"))
        assert got == PauliSum(1, {"Y": 2j})

    def test_scaling_is_bilinear(self):
        p = 0.3
        scaled = commutator((1 - 2 * p) * PauliTerm("X").to_sum(), PauliTerm("Z").to_sum())
        plain = commutator(PauliTerm("X"), PauliTerm("Z"))
        assert scaled == (1 - 2 * p) * plain

    def test_disjoint_supports_give_zero(self):
        assert not commutator(PauliTerm("XI"), PauliTerm("IZ"))

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_sum(rng, int(rng.integers(1, 5)))
            assert not commutator(s, s)


class TestOperatorNorm:
    def test_pauli_words_are_unit_norm(self):
        assert operator_norm(PauliSum(1, {"Y": 2j})) == pytest.approx(2.0, abs=1e-12)
        assert operator_norm(PauliTerm("XZY", 1j)) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(2 * PauliTerm("XZ").to_sum()) == pytest.approx(2.0, abs=1e-12)

    def test_attenuated_commutator_norm(self):
        p = 0.25
        scaled = (1 - 2 * p) * PauliSum(1, {"Y": 2j})
        assert operator_norm(scaled) == pytest.approx(1.0, abs=1e-12)

    def test_empty_sum(self):
        assert operator_norm(PauliSum.zero(3)) == 0.0

    def test_cap_rejected_with_limit_message(self):
        with pytest.raises(ValueError, match="limited to 6 qubits"):
            operator_norm(PauliTerm("I" * 7))

    @pytest.mark.parametrize("max_words", [1, 4])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), data=st.data())
    def test_matches_dense_svd(self, max_words, n, data):
        terms = data.draw(
            st.dictionaries(
                st.text("IXYZ", min_size=n, max_size=n),
                st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=max_words,
            )
        )
        psum = PauliSum(n, terms)
        assert abs(operator_norm(psum) - np.linalg.norm(ref_sum_matrix(psum), 2)) <= 1e-12

    def test_single_word_needs_numeric_coefficient(self):
        # abs() of a symbolic coefficient is its largest power's modulus, not a norm
        with pytest.raises(TypeError, match="substitute a numeric p"):
            operator_norm(PauliSum(2, {"XZ": 2 * ATTENUATION}))


class TestDense:
    def test_every_word_matches_reference_bytes(self):
        # tobytes, not array_equal, which would pass -0.0 for 0.0
        rng = np.random.default_rng(17)
        for n in range(1, 5):
            for letters in itertools.product("IXYZ", repeat=n):
                word = "".join(letters)
                term = PauliTerm(word, PHASES[rng.integers(4)])
                psum = PauliSum(n, {word: complex(rng.normal(), rng.normal())})
                assert term.dense().tobytes() == ref_sum_matrix(term.to_sum()).tobytes()
                assert psum.dense().tobytes() == ref_sum_matrix(psum).tobytes()

    def test_sums_match_reference_bytes(self):
        # terms accumulate in insertion order and the reference in word order,
        # so the sums are built in word order
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            psum = PauliSum(n, dict(random_sum(rng, n, max_terms=8).items()))
            assert psum.dense().tobytes() == ref_sum_matrix(psum).tobytes()


class TestExpectationBasis:
    def test_diagonal_words(self):
        zz = PauliTerm("ZZ").to_sum()
        assert expectation_basis(BasisState.from_string("00"), zz) == 1.0
        assert expectation_basis(BasisState.from_string("01"), zz) == -1.0

    def test_off_diagonal_words_vanish(self):
        xx = PauliTerm("XX").to_sum()
        assert expectation_basis(BasisState.from_string("00"), xx) == 0.0

    def test_two_qubit_correlation_in_four_qubit_register(self):
        # oracle: dense <0000| Z x I x Z x I |0000>
        word = PauliTerm("ZIZI").to_sum()
        state = BasisState.from_string("0000")
        vec = ref_basis_vector(state.bits)
        oracle = float((vec.conj() @ ref_sum_matrix(word) @ vec).real)
        assert oracle == 1.0
        assert expectation_basis(state, word) == oracle

    def test_non_hermitian_reported(self):
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation_basis(BasisState.from_string("0"), PauliSum(1, {"Z": 2j}))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation_basis(BasisState.from_string("00"), PauliTerm("Z").to_sum())

    def test_agrees_with_dense_oracle_on_random_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            s = random_sum(rng, n)
            # words are Hermitian, so conjugating coefficients gives A^dagger
            hermitian = s + s.map_coefficients(lambda c: complex(c).conjugate())
            dense = ref_sum_matrix(hermitian)
            bits = BasisState(tuple(int(b) for b in rng.integers(0, 2, size=n)))
            vec = ref_basis_vector(bits.bits)
            oracle = float((vec.conj() @ dense @ vec).real)
            assert abs(expectation_basis(bits, hermitian) - oracle) < 1e-12


class TestBasisState:
    def test_index_is_msb_first(self):
        assert BasisState.from_string("1100").index == 12
        assert BasisState.from_string("0001").index == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BasisState((0, 2))
