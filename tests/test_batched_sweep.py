"""The sweep against one circuit per grid point, and its checks.

``sweep`` walks the symmetric network once, to the states of its final slice
per count of the phase flips applied (``density.flip_count_states``), and
reads its density columns at each grid point as Bernstein mixes of those
states' reads (``density.bernstein_mix``), a chunk of ``cli.SWEEP_CHUNK``
points at a time.  It reads the descriptor engine off one run, a chunk of
intensities at a time.  ``helpers.per_point_sweep`` evolves the circuit once
per point, its frames attenuated by the float 1 - 2p
(``helpers.numeric_frames``).  The p and descriptor columns must be equal
as strings, and the stacked descriptor reads must give the bytes of
``substitute`` at every point; the density columns agree within
``helpers.SWEEP_DENSITY_TOL``, and as strings at p = 0 and p = 1.
"""

import io
import itertools
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PRUNE_WINDOW,
    assert_sweep_matches,
    near_prune,
    numeric_frames,
    per_point_sweep,
    unchecked_density,
    undephased_symmetric,
)
from medwit import cli, density, heisenberg, pauli
from medwit.circuits import B, Circuit, GateOp, build_asymmetric, build_symmetric, phase_flip, z
from medwit.cli import EXIT_OK, SWEEP_CHUNK, _parse_grid, main
from medwit.density import (
    DensityMatrix,
    bernstein_mix,
    flip_count_states,
    pseudo_pure,
    run_network_density,
)
from medwit.heisenberg import (
    ATTENUATION,
    DescriptorFrame,
    descriptor_commutator,
    observable_image,
    operator_norm_at,
    pseudo_pure_expectation,
    pseudo_pure_expectation_at,
    run_network_frames,
    substitute,
)
from medwit.pauli import BasisState, PauliSum, operator_norm, single

def sweep_csv(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["sweep", *argv])
    assert code == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize(
    "grid, extra, points",
    [
        ("0.25", (), 1),
        (",".join(repr(k / (2 * SWEEP_CHUNK)) for k in range(SWEEP_CHUNK)), (), SWEEP_CHUNK),
        (f"0:1:{1 / SWEEP_CHUNK!r}", (), SWEEP_CHUNK + 1),
        ("0:0.5:0.0005", (), 1001),
        (",".join(map(repr, [0.5, 0.1, *PRUNE_WINDOW, 1.0, 0.0, 0.3])), (), 7),
        ("0:1:0.01", ("--epsilon", "0.3", "--axes", "xx-zz"), 101),
    ],
    ids=["one-point", "chunk", "chunk-plus-one", "sweep-fine", "comma-list", "epsilon-axes"],
)
def test_csv_equals_per_point_reference(grid, extra, points):
    out = sweep_csv("--p-grid", grid, *extra)
    assert len(out.splitlines()) == points + 1
    epsilon = float(extra[1]) if extra else 1.0
    axes = extra[3] if extra else "xz-zx"
    assert_sweep_matches(out, per_point_sweep(_parse_grid(grid), epsilon=epsilon, axes=axes))


@settings(max_examples=30, deadline=None)
@given(
    ps=st.lists(
        st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 1.0, *PRUNE_WINDOW])),
        min_size=1,
        max_size=35,
    ),
    epsilon=st.floats(0, 1),
    bits=st.sampled_from(["0000", "1111", "1010", "0110", "1001"]),
    axes=st.sampled_from(sorted(cli.AXES_CHOICES)),
)
def test_random_grids_match_per_point_reference(ps, epsilon, bits, axes):
    out = sweep_csv(
        "--p-grid", ",".join(map(repr, ps)), "--epsilon", repr(epsilon),
        "--initial-bits", bits, "--axes", axes,
    )
    assert_sweep_matches(out, per_point_sweep(ps, epsilon=epsilon, bits=bits, axes=axes))


@pytest.mark.parametrize("bits", ["0000", "1111", "1010", "0110", "1001"])
@pytest.mark.parametrize("epsilon, axes", [(1.0, "xz-zx"), (0.3, "xx-zz"), (0.0, "xz-zx"),
                                           (1e-05, "xx-zz")])
def test_ends_of_the_grid_read_the_bytes_of_one_circuit(bits, epsilon, axes):
    """At p = 0 and p = 1 the mix's weights are one 1 and zeros, so the
    density cells are the bytes of ``run_network_density`` at that p, which
    ``assert_sweep_matches`` compares as strings."""
    grid = [0.0, 1.0, 0.0, 0.5, 1.0]
    out = sweep_csv("--p-grid", ",".join(map(repr, grid)), "--epsilon", repr(epsilon),
                    "--initial-bits", bits, "--axes", axes)
    assert_sweep_matches(out, per_point_sweep(grid, epsilon=epsilon, bits=bits, axes=axes))


def test_one_descriptor_run_one_count_walk_and_no_per_point_density_run(monkeypatch):
    calls = {"frames": 0, "counts": 0, "density": 0}
    frames, counts = heisenberg.run_network_frames, density.flip_count_states

    def counted_frames(circuit):
        calls["frames"] += 1
        return frames(circuit)

    def counted_counts(circuit, initial):
        calls["counts"] += 1
        return counts(circuit, initial)

    def counted_density(circuit, initial):
        calls["density"] += 1
        raise AssertionError("sweep evolved one circuit on its own")

    monkeypatch.setattr(heisenberg, "run_network_frames", counted_frames)
    monkeypatch.setattr(density, "flip_count_states", counted_counts)
    monkeypatch.setattr(density, "run_network_density", counted_density)
    out = sweep_csv("--p-grid", "0:0.5:0.005")
    assert len(out.splitlines()) == 102
    assert calls == {"frames": 1, "counts": 1, "density": 0}


def test_no_per_point_descriptor_read(monkeypatch):
    """The 1001-point grid reads the descriptor engine once for the grid,
    with no substituted PauliSum, no basis expectation and no norm per point."""
    targets = [(heisenberg, "substitute"), (heisenberg, "operator_norm"),
               (pauli, "operator_norm"), (heisenberg, "expectation_basis"),
               (pauli, "expectation_basis")]
    calls = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        # a renamed or removed target fails the test rather than going unpatched
        assert hasattr(module, name), f"{module.__name__}.{name} is gone"
        function = getattr(module, name)

        def counted(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(module, name, counted)
    out = sweep_csv("--p-grid", "0:0.5:0.0005")
    assert len(out.splitlines()) == 1002
    assert calls == {"substitute": 0, "operator_norm": 0, "expectation_basis": 0}


def branch_circuits(circuit: Circuit) -> dict[tuple[bool, ...], Circuit]:
    """Per pattern of the circuit's phase flips (True where a flip acts as Z),
    the circuit with each flip replaced by its Z or dropped."""
    flips = [i for i, op in enumerate(circuit.ops)
             if isinstance(op, GateOp) and op.kind == "PHASE_FLIP"]
    branches = {}
    for pattern in itertools.product([False, True], repeat=len(flips)):
        ops = list(circuit.ops)
        for i, applied in zip(reversed(flips), reversed(pattern)):
            if applied:
                ops[i] = z(ops[i].qubits[0])
            else:
                del ops[i]
        branches[pattern] = Circuit(circuit.n, ops)
    return branches


COUNT_INPUTS = [(1.0, "0000"), (0.8, "0110"), (0.3, "1010"), (0.0, "1111"), (1e-05, "1001")]


@pytest.mark.parametrize("epsilon, bits", COUNT_INPUTS)
def test_each_count_state_is_the_mean_of_its_branches_and_a_state(epsilon, bits):
    """State j of the symmetric network is the mean of the C(2, j) branch
    circuits that apply j of its two flips as Z, and passes the constructor
    on its own."""
    initial = pseudo_pure(epsilon, BasisState.from_string(bits))
    counts = flip_count_states(build_symmetric(), initial)
    assert len(counts) == 3
    finals = {pattern: run_network_density(branch, initial)[-1].entries[0]
              for pattern, branch in branch_circuits(build_symmetric()).items()}
    for j, state in enumerate(counts.entries):
        DensityMatrix(state)
        branches = [final for pattern, final in finals.items() if sum(pattern) == j]
        assert len(branches) == math.comb(2, j)
        assert np.abs(state - sum(branches) / len(branches)).max() <= 1e-15


@pytest.mark.parametrize("epsilon, bits", COUNT_INPUTS)
def test_half_intensity_is_the_plain_average_over_z_patterns(epsilon, bits):
    """The NMR emulation of a dephased mediator: at p = 1/2 the channel is
    the uniform average over the 2^k circuits that apply each flip as Z or
    not, the temporal average over every Z pattern."""
    initial = pseudo_pure(epsilon, BasisState.from_string(bits))
    counts = flip_count_states(build_symmetric(), initial)
    mixed = bernstein_mix(counts.entries.view(float), np.array([0.5])).view(complex)[0]
    branches = branch_circuits(build_symmetric()).values()
    average = sum(run_network_density(branch, initial)[-1].entries[0]
                  for branch in branches) / len(branches)
    assert len(branches) == 4
    assert np.abs(mixed - average).max() <= 1e-15
    channel = run_network_density(build_symmetric(), initial, 0.5)[-1].entries[0]
    assert np.abs(mixed - channel).max() <= 1e-15


@pytest.mark.parametrize(
    "circuit",
    [undephased_symmetric(), build_asymmetric(),
     Circuit(4, undephased_symmetric().ops + (phase_flip(B),))],
    ids=["undephased-symmetric", "asymmetric", "flip-after-last-slice"]
)
def test_no_flip_ahead_of_the_last_slice_is_one_count_state(circuit):
    """A circuit with no phase flip ahead of its last slice has one final
    state at every p: one count state, the bytes of one run."""
    initial = pseudo_pure(0.8, BasisState.from_string("0110"))
    counts = flip_count_states(circuit, initial)
    assert len(counts) == 1
    final = run_network_density(circuit, initial, 0.3)[-1]
    assert counts.entries.tobytes() == final.entries.tobytes()


@pytest.mark.parametrize("points", [1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 7])
def test_one_walk_per_grid_and_one_check_per_chunk(monkeypatch, points):
    """(constructor checks of four- and of two-qubit stacks, gate_unitary
    reads, dense products, index actions) over one sweep: the input and the
    three count states are checked once per grid, as are their A-D reduced
    states, and each chunk's mixed reduced states once.  Each of the 7 ops
    is read off ``gate_unitary`` once into ``_gate_action``'s cache, each
    flip by its Z.  The two H gates are the only dense products, and the
    CNOTs, the CPHASE and the flips' sign flips 7 index actions, all once
    per grid."""
    calls = {"checks": [], "gate_unitary": 0, "dense": 0, "index": 0}
    post_init, gate_unitary = DensityMatrix.__post_init__, density.gate_unitary
    gate_action = density._gate_action

    def counted_post_init(self):
        calls["checks"].append(self.entries.shape[-1])
        return post_init(self)

    def counted_gate_unitary(gate, n):
        calls["gate_unitary"] += 1
        return gate_unitary(gate, n)

    def counted_gate_action(gate, n):
        action = gate_action(gate, n)
        calls["dense" if isinstance(action, np.ndarray) else "index"] += 1
        return action

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(density, "gate_unitary", counted_gate_unitary)
    monkeypatch.setattr(density, "_gate_action", counted_gate_action)
    gate_action.cache_clear()
    out = sweep_csv("--p-grid", ",".join(repr(k / (2 * points)) for k in range(points)),
                    "--epsilon", "0.8", "--initial-bits", "0110")
    assert len(out.splitlines()) == points + 1
    chunks = -(-points // SWEEP_CHUNK)
    assert calls == {"checks": [16, 16, 4] + [4] * chunks, "gate_unitary": 7, "dense": 2,
                     "index": 7}


@pytest.mark.parametrize("p", PRUNE_WINDOW)
def test_substituted_commutator_matches_a_frame_evolved_at_p(p):
    symbolic = run_network_frames(build_symmetric())[-1]
    numeric = numeric_frames(build_symmetric(), p)[-1]
    for q in (1, 2):
        image = substitute(descriptor_commutator(symbolic, q), p)
        assert operator_norm(image) == operator_norm(descriptor_commutator(numeric, q)) == 0.0


class TestBatchedChecks:
    """A stack with one bad slice raises what that slice raises on its own."""

    @staticmethod
    def stack_with(bad: np.ndarray) -> np.ndarray:
        good = pseudo_pure(0.5, BasisState.from_string("0101")).entries[0]
        stack = np.repeat(good[np.newaxis], 5, axis=0)
        stack[3] = bad
        return stack

    @staticmethod
    def message(action) -> str:
        with pytest.raises(ValueError) as info:
            action()
        return str(info.value)

    def test_non_hermitian_slice(self):
        bad = np.eye(16, dtype=complex) / 16
        bad[0, 1] = 0.25
        stack = self.stack_with(bad)
        expected = self.message(lambda: DensityMatrix(bad))
        assert "not Hermitian" in expected
        assert self.message(lambda: DensityMatrix(stack)) == expected
        # partial_trace checks the reduced states itself, even of a stack
        # that never passed the constructor
        unchecked = unchecked_density(stack)
        assert self.message(lambda: density.partial_trace(unchecked, [0, 3])) == expected

    def test_off_trace_slice(self):
        bad = np.eye(16, dtype=complex) / 8
        expected = self.message(lambda: DensityMatrix(bad))
        assert "trace is 2" in expected
        stack = self.stack_with(bad)
        assert self.message(lambda: DensityMatrix(stack)) == expected

    def test_non_positive_slice(self):
        bad = np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)
        expected = self.message(lambda: DensityMatrix(bad))
        assert "negative eigenvalue -5.000e-01" in expected
        stack = self.stack_with(bad)
        assert self.message(lambda: DensityMatrix(stack)) == expected

    def test_non_positive_initial_state_stops_the_count_walk(self):
        bad = unchecked_density(np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)[np.newaxis])
        assert "negative eigenvalue" in self.message(
            lambda: flip_count_states(build_symmetric(), bad))


def hand_built_frame() -> DescriptorFrame:
    """A two-qubit symbolic frame whose sums the symmetric network never
    makes.  Qubit 0's commutator keeps five words of five moduli and four
    powers, so several survive the prune at most p and fewer near p = 1/2;
    its z-descriptor gives four I/Z words of three powers, the identity among
    them, inserted out of word order.  Qubit 1's commutator is one word,
    -0.6i (1-2p) IY, which the prune drops where its power of (1 - 2p) alone
    is kept.  Every coefficient has modulus below 1, so the prune of a term
    and of its power differ."""
    a = ATTENUATION
    x0 = PauliSum(2, {"XI": 0.5 * a, "ZY": 0.75})
    z0 = PauliSum(2, {"ZZ": 0.1 * a * a * a, "ZI": 0.7, "IZ": 0.35 * a * a,
                      "II": 0.05 * a, "YZ": 0.25 * a})
    return DescriptorFrame((x0, 0.3 * a * single(2, 1, "x")), (z0, single(2, 1, "z")))


def assert_grid_reads_equal_substitute(image, commutators, basis, epsilon, ps):
    """The stacked reads against ``substitute`` at each point, as float.hex."""
    p = np.array(ps, dtype=float)
    got = [list(map(float.hex, pseudo_pure_expectation_at(image, basis, epsilon, p).tolist()))]
    got += [list(map(float.hex, operator_norm_at(c, p).tolist())) for c in commutators]
    want = [[pseudo_pure_expectation(substitute(image, x), basis, epsilon).hex() for x in ps]]
    want += [[operator_norm(substitute(c, x)).hex() for x in ps] for c in commutators]
    assert got == want


SYMMETRIC = run_network_frames(build_symmetric())[-1]


@pytest.mark.parametrize("axes", sorted(cli.AXES_CHOICES))
@pytest.mark.parametrize("bits, epsilon", [("0000", 1.0), ("1010", 0.3), ("0110", 0.0)])
def test_symmetric_grid_reads_equal_substitute(axes, bits, epsilon):
    image = observable_image(SYMMETRIC, cli.WITNESSES[axes])
    commutators = [descriptor_commutator(SYMMETRIC, q) for q in cli.MEDIATORS]
    ps = [*PRUNE_WINDOW, 0.0, 0.5, 1.0, *near_prune([(1.0, 1), (2.0, 1)]),
          *np.linspace(0, 1, 101).tolist()]
    assert_grid_reads_equal_substitute(image, commutators, BasisState.from_string(bits),
                                       epsilon, ps)


@settings(max_examples=40, deadline=None)
@given(
    ps=st.lists(st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 1.0, *PRUNE_WINDOW])),
                min_size=1, max_size=32),
    epsilon=st.floats(0, 1),
    bits=st.sampled_from(["0000", "1111", "1010", "0110", "1001"]),
    axes=st.sampled_from(sorted(cli.AXES_CHOICES)),
)
def test_symmetric_grid_reads_equal_substitute_on_random_grids(ps, epsilon, bits, axes):
    image = observable_image(SYMMETRIC, cli.WITNESSES[axes])
    commutators = [descriptor_commutator(SYMMETRIC, q) for q in cli.MEDIATORS]
    assert_grid_reads_equal_substitute(image, commutators, BasisState.from_string(bits),
                                       epsilon, ps)


@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
@pytest.mark.parametrize("epsilon", [1.0, 0.6])
def test_hand_built_grid_reads_equal_substitute(bits, epsilon):
    frame = hand_built_frame()
    commutators = [descriptor_commutator(frame, q) for q in (0, 1)]
    ps = [*PRUNE_WINDOW, 0.0, 0.5, 1.0, *np.linspace(0, 1, 201).tolist(),
          *near_prune([(0.15, 3), (0.7, 1), (0.1, 4), (0.525, 2), (0.25, 2), (0.6, 1),
                       (0.1, 3), (0.35, 2), (0.05, 1)])]
    survivors = [len(substitute(commutators[0], p)) for p in ps]
    assert max(survivors) == 5 and 1 in survivors and 0 in survivors
    assert len(commutators[1]) == 1
    assert_grid_reads_equal_substitute(observable_image(frame, single(2, 0, "z")), commutators,
                                       BasisState.from_string(bits), epsilon, ps)


def test_complex_coefficients_read_equal_substitute():
    """Coefficients with both a real and an imaginary part: a one-word sum,
    whose norm is the modulus of its coefficient, and a sum of several words
    with complex powers of (1 - 2p), read against ``substitute`` as float.hex."""
    a = ATTENUATION
    one_word = PauliSum(2, {"XY": (0.3 + 0.4j) * a})
    several = PauliSum(2, {"XY": (0.3 + 0.4j) * a, "ZX": (-0.7 + 0.1j) * a * a, "IZ": 0.2j})
    image = PauliSum(2, {"ZZ": 0.6 * a, "II": 0.4 * a * a, "XI": (0.3 + 0.4j) * a})
    ps = [*PRUNE_WINDOW, 0.0, 0.5, 1.0, *np.linspace(0, 1, 201).tolist(),
          *near_prune([(0.5, 1), (0.7071, 2), (0.6, 1), (0.4, 2)])]
    for bits in ("00", "01", "11"):
        assert_grid_reads_equal_substitute(image, [one_word, several],
                                           BasisState.from_string(bits), 0.7, ps)


class TestGridReadGuards:
    """The grid read refuses what ``expectation_basis`` refuses at one point."""

    def test_basis_of_another_size(self):
        image = observable_image(SYMMETRIC, cli.WITNESSES["xz-zx"])
        for bits in ("000", "00000"):
            basis = BasisState.from_string(bits)
            with pytest.raises(ValueError, match="qubit count mismatch"):
                pseudo_pure_expectation_at(image, basis, 1.0, np.array([0.1, 0.2]))
            with pytest.raises(ValueError, match="qubit count mismatch"):
                pseudo_pure_expectation(substitute(image, 0.1), basis, 1.0)

    def test_imaginary_residue(self):
        """A non-Hermitian I/Z word raises at any point where the prune keeps
        it, with the message of the point read alone, and not where the prune
        drops it."""
        image = PauliSum(2, {"ZI": 0.5 * ATTENUATION, "IZ": 1e-3j * ATTENUATION})
        basis = BasisState.from_string("10")
        with pytest.raises(ValueError) as alone:
            pseudo_pure_expectation(substitute(image, 0.1), basis, 1.0)
        with pytest.raises(ValueError) as stacked:
            pseudo_pure_expectation_at(image, basis, 1.0, np.array([0.5, 0.1, 0.2]))
        assert str(stacked.value) == str(alone.value)
        assert "not Hermitian" in str(stacked.value)
        got = pseudo_pure_expectation_at(image, basis, 1.0, np.array([0.5]))
        assert got.tolist() == [pseudo_pure_expectation(substitute(image, 0.5), basis, 1.0)]
