"""Builder and pattern-machinery tests."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from helpers import (
    basis_density,
    is_balanced,
    random_density,
    scalar_pattern,
    scalar_sample_patterns,
    slice_count,
    undephased_symmetric,
)
from medwit.circuits import (
    _PCG64,
    Circuit,
    GateOp,
    build_asymmetric,
    build_staged,
    build_symmetric,
    cnot,
    exhaustive_patterns,
    partial_swap,
    pattern_population,
    sample_patterns,
)
from medwit.density import partial_trace, pseudo_pure, run_network_density
from medwit.pauli import BasisState

ZERO4 = BasisState.from_string("0000")


class TestGateOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (1, 1))
        with pytest.raises(ValueError):
            GateOp("H", (0, 1))
        with pytest.raises(ValueError):
            partial_swap(0, 1, 0.0)

    def test_circuit_range_check(self):
        with pytest.raises(ValueError):
            Circuit(2, (cnot(0, 2),))


class TestBuildSymmetric:
    def test_shape_with_dephasing(self):
        circuit = build_symmetric()
        assert len(circuit.gates) == 9
        assert slice_count(circuit) == 4
        kinds = [g.kind for g in circuit.gates]
        assert kinds.count("PHASE_FLIP") == 2
        # channels precede the closing CNOTs
        assert kinds.index("PHASE_FLIP") < kinds.index("CNOT", kinds.index("CPHASE"))

    def test_p_zero_matches_undephased_outputs(self):
        """At p = 0 the flips leave the bytes of the seven-gate circuit, on
        mixed states and on every pseudo-pure basis input."""
        rng = np.random.default_rng(47)
        initials = [random_density(rng, 4, rank=int(rng.integers(1, 17))) for _ in range(40)]
        initials += [pseudo_pure(eps, BasisState(tuple(int(b) for b in f"{i:04b}")))
                     for i in range(16) for eps in (0.3, 1.0)]
        for initial in initials:
            flipped = run_network_density(build_symmetric(), initial, 0.0)
            plain = run_network_density(undephased_symmetric(), initial)
            assert flipped.entries.tobytes() == plain.entries.tobytes()

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_intensity_validated(self, p):
        with pytest.raises(ValueError, match=r"intensity must lie in \[0, 1\]"):
            run_network_density(build_symmetric(), basis_density(ZERO4), p)


class TestBuildAsymmetric:
    def test_shape(self):
        circuit = build_asymmetric()
        kinds = [g.kind for g in circuit.gates]
        assert kinds == ["H", "CNOT", "SWAP", "SWAP"]
        assert slice_count(circuit) == 4


class TestBuildStaged:
    @pytest.mark.parametrize("stages", [1, 2, 4, 8])
    def test_unpatterned_matches_asymmetric_final_state(self, stages):
        initial = basis_density(ZERO4)
        staged = run_network_density(build_staged(stages), initial)[-1]
        asym = run_network_density(build_asymmetric(), initial)[-1]
        diff = np.max(
            np.abs(
                partial_trace(staged, [0, 3]).entries - partial_trace(asym, [0, 3]).entries
            )
        )
        assert diff < 1e-10

    def test_sequential_ordering(self):
        # every B-C stage precedes every C-D stage, the order in which
        # temporal_average reads a pattern's flattened rows
        circuit = build_staged(2)
        links = [g.qubits for g in circuit.gates if g.kind == "PARTIAL_SWAP"]
        assert links == [(1, 2), (1, 2), (2, 3), (2, 3)]
        assert slice_count(circuit) == 4


class TestPatterns:
    def test_population_counts(self):
        assert pattern_population(8) == comb(8, 4) ** 2 == 4900
        with pytest.raises(ValueError):
            pattern_population(3)

    def test_sampled_patterns_are_distinct_and_balanced(self):
        patterns = sample_patterns(8, 16, seed=5)
        assert len(np.unique(patterns.reshape(16, -1), axis=0)) == 16
        for pattern in patterns:
            assert is_balanced(pattern)

    def test_sampling_is_deterministic_in_seed(self):
        a = sample_patterns(8, 16, seed=3)
        b = sample_patterns(8, 16, seed=3)
        c = sample_patterns(8, 16, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_full_population_request_is_exhaustive(self):
        patterns = sample_patterns(8, 4900, seed=0)
        assert np.array_equal(patterns, exhaustive_patterns(8))
        assert len(np.unique(patterns.reshape(4900, -1), axis=0)) == 4900

    def test_count_beyond_population_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            sample_patterns(2, 5)

    @pytest.mark.parametrize("stages", [2, 4, 6, 8, 10])
    def test_every_rank_equals_scalar_unranking(self, stages):
        got = exhaustive_patterns(stages)
        assert got.dtype == bool
        assert got.shape == (pattern_population(stages), 2, stages)
        for i, row in enumerate(got):
            assert np.array_equal(row, scalar_pattern(i, stages))

    @pytest.mark.parametrize(
        "stages, count, seed",
        [(24, 1000, 1), (24, 1000, 2), (24, 1000, 3),
         # the largest stage count, whose pair indices need all of int64
         (34, 200, 5),
         # the whole population, returned by exhaustive_patterns
         (4, 36, 0)],
    )
    def test_samples_equal_scalar_reference(self, stages, count, seed):
        got = sample_patterns(stages, count, seed)
        assert got.dtype == bool
        assert got.shape == (count, 2, stages)
        for row, want in zip(got, scalar_sample_patterns(stages, count, seed), strict=True):
            assert np.array_equal(row, want)

    def test_population_beyond_int64_indices_rejected(self):
        with pytest.raises(ValueError, match="beyond int64 indices"):
            sample_patterns(36, 5)

    def test_exhaustive_enumeration_matches_itertools(self):
        got = {tuple(p[0]) for p in exhaustive_patterns(4)}
        want = set()
        for positions in combinations(range(4), 2):
            want.add(tuple(k in positions for k in range(4)))
        assert got == want


#: seeds of one to eleven 32-bit words: the seed hash's pool holds four, and
#: 2**200 and larger mix their extra words in after it
SEEDS = [0, 1, 5, 39, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 + 1, 2 ** 128 + 3,
         2 ** 200, 2 ** 200 + 5, 10 ** 40]
#: one value (no draw), small ranges, both ends of the 32-bit bounded draw,
#: the first 64-bit one, and the pattern population of every even stage count
#: the sampler takes, 36 at 4 stages up to 5.4e18 at 34
RANGES = sorted({1, 2, 36, 4900, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1}
                | {pattern_population(stages) for stages in range(2, 35, 2)})


class TestSeededDraw:
    """``sample_patterns``' draw against numpy's ``default_rng(seed)
    .integers(n)``, one value at a time.  This pins the stream of numpy
    2.4.6, which the output digests were taken with; NEP 19 keeps the PCG64
    bit stream across releases, but not ``Generator.integers``."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_range_alone(self, seed):
        for n in RANGES:
            draw, reference = _PCG64(seed), np.random.default_rng(seed)
            got = [draw.integers(n) for _ in range(100)]
            assert got == [int(reference.integers(n)) for _ in range(100)], n

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ranges_alternating_in_one_stream(self, seed):
        # 32- and 64-bit draws interleave, so a buffered 32-bit half is
        # held across 64-bit draws
        draw, reference = _PCG64(seed), np.random.default_rng(seed)
        ranges = RANGES * 10
        assert ([draw.integers(n) for n in ranges]
                == [int(reference.integers(n)) for n in ranges])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            _PCG64(-1)
