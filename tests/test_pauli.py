"""Unit tests for the symbolic Pauli algebra, checked against a dense oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PHASES,
    one_word,
    random_sum,
    random_term,
    ref_basis_vector,
    ref_sum_matrix,
    ref_term_matrix,
)
from medwit.heisenberg import ATTENUATION, render_sum
from medwit.pauli import (
    BasisState,
    PauliSum,
    commutator,
    expectation_basis,
    identity_component,
    operator_norm,
    single,
)


class TestPauliTerm:
    def test_validation(self):
        with pytest.raises(ValueError):
            one_word("XQ")
        with pytest.raises(ValueError):
            one_word("")

    def test_render(self):
        assert render_sum(one_word("ZXII")) == "q_zA q_xB"
        assert render_sum(one_word("IIII")) == "id"
        assert render_sum(one_word("YI", -1j)) == "-iq_yA"
        assert render_sum(one_word("II", -1)) == "-id"

    def test_single_is_a_one_word_sum(self):
        got = single(4, 0, "z")
        want = PauliSum(4, {"ZIII": 1})
        assert isinstance(got, PauliSum) and got == want
        assert got.dense().tobytes() == ref_sum_matrix(want).tobytes()

    def test_single(self):
        assert single(4, 0, "z") == one_word("ZIII")
        assert single(4, 3, "x") == one_word("IIIX")
        with pytest.raises(ValueError):
            single(4, 4, "x")


class TestMul:
    def test_z_times_x_gives_i_y(self):
        a = one_word("ZI")
        b = one_word("XI")
        assert a * b == one_word("YI", 1j)

    def test_letter_squares_to_identity(self):
        for letter in "XYZ":
            t = one_word(letter + "I")
            assert t * t == one_word("II", 1)

    def test_disjoint_supports_commute(self):
        a = one_word("XI")
        b = one_word("IZ")
        assert a * b == b * a == one_word("XZ")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            one_word("X") * one_word("XX")

    def test_single_qubit_products_match_dense(self):
        for la in "IXYZ":
            for lb in "IXYZ":
                product = one_word(la) * one_word(lb)
                dense = ref_term_matrix(one_word(la)) @ ref_term_matrix(one_word(lb))
                assert np.allclose(ref_term_matrix(product), dense, atol=1e-14)

    def test_associativity_and_distributivity_against_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            a, b, c = (random_term(rng, n) for _ in range(3))
            left = (a * b) * c
            right = a * (b * c)
            assert left == right
            dense = ref_term_matrix(a) @ ref_term_matrix(b) @ ref_term_matrix(c)
            assert np.max(np.abs(ref_term_matrix(left) - dense)) < 1e-12
            # distributivity over sums
            assert a * (b + c) == a * b + a * c


class TestPauliSum:
    def test_canonicalization_merges_and_prunes(self):
        s = PauliSum(2, {"XX": 1.0, "ZZ": 1e-16})
        assert len(s) == 1
        t = one_word("XX") - one_word("XX")
        assert not t and len(t) == 0

    def test_scalar_and_term_arithmetic(self):
        s = 2.0 * one_word("XI")
        assert s.coefficient("XI") == 2.0
        assert (-s).coefficient("XI") == -2.0
        assert (s - one_word("XI")).coefficient("XI") == 1.0

    def test_identity_component(self):
        s = PauliSum(2, {"II": 0.25, "XZ": 1.0})
        assert identity_component(s) == 0.25
        assert identity_component(one_word("XZ")) == 0


class TestCommutator:
    def test_z_x(self):
        got = commutator(one_word("Z"), one_word("X"))
        assert got == PauliSum(1, {"Y": 2j})

    def test_scaling_is_bilinear(self):
        p = 0.3
        scaled = commutator((1 - 2 * p) * one_word("X"), one_word("Z"))
        plain = commutator(one_word("X"), one_word("Z"))
        assert scaled == (1 - 2 * p) * plain

    def test_disjoint_supports_give_zero(self):
        assert not commutator(one_word("XI"), one_word("IZ"))

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_sum(rng, int(rng.integers(1, 5)))
            assert not commutator(s, s)


class TestOperatorNorm:
    def test_pauli_words_are_unit_norm(self):
        assert operator_norm(PauliSum(1, {"Y": 2j})) == pytest.approx(2.0, abs=1e-12)
        assert operator_norm(one_word("XZY", 1j)) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(2 * one_word("XZ")) == pytest.approx(2.0, abs=1e-12)

    def test_attenuated_commutator_norm(self):
        p = 0.25
        scaled = (1 - 2 * p) * PauliSum(1, {"Y": 2j})
        assert operator_norm(scaled) == pytest.approx(1.0, abs=1e-12)

    def test_empty_sum(self):
        assert operator_norm(PauliSum.zero(3)) == 0.0

    def test_cap_rejected_with_limit_message(self):
        with pytest.raises(ValueError, match="limited to 6 qubits"):
            operator_norm(one_word("I" * 7))

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
                term = one_word(word, PHASES[rng.integers(4)])
                psum = PauliSum(n, {word: complex(rng.normal(), rng.normal())})
                assert term.dense().tobytes() == ref_sum_matrix(term).tobytes()
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
        zz = one_word("ZZ")
        assert expectation_basis(BasisState.from_string("00"), zz) == 1.0
        assert expectation_basis(BasisState.from_string("01"), zz) == -1.0

    def test_off_diagonal_words_vanish(self):
        xx = one_word("XX")
        assert expectation_basis(BasisState.from_string("00"), xx) == 0.0

    def test_two_qubit_correlation_in_four_qubit_register(self):
        # oracle: dense <0000| Z x I x Z x I |0000>
        word = one_word("ZIZI")
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
            expectation_basis(BasisState.from_string("00"), one_word("Z"))

    def test_agrees_with_dense_oracle_on_random_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            s = random_sum(rng, n)
            # words are Hermitian, so conjugating coefficients gives A^dagger
            hermitian = s + PauliSum(n, {w: complex(c).conjugate() for w, c in s.items()})
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
