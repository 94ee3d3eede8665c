"""The batched sweep against one circuit per grid point, and its checks.

``sweep`` evolves the whole grid as stacks of ``density._BATCH`` points and
reads the descriptor engine off one run, a stack of intensities at a time;
``helpers.per_point_sweep`` evolves the circuit once per point, its frames
attenuated by the float 1 - 2p (``helpers.numeric_frames``).
The CSVs must be equal as strings, and the stacked descriptor reads must give
the bytes of ``substitute`` at every point.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import numeric_frames, per_point_sweep, unchecked_density, undephased_symmetric
from medwit import cli, density, heisenberg, pauli
from medwit.circuits import build_asymmetric, build_symmetric
from medwit.cli import EXIT_OK, _parse_grid, main
from medwit.density import _BATCH, DensityMatrix, pseudo_pure, run_intensity_grid
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
from medwit.pauli import PRUNE_TOL, BasisState, PauliSum, operator_norm, single

#: 1 - 2p lies in (PRUNE_TOL / 2, PRUNE_TOL], where a numeric frame prunes
#: the attenuated descriptors that the commutator would double
PRUNE_WINDOW = [0.5 - 5e-15, 0.5 + 4e-15]


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
        (",".join(repr(k / (2 * _BATCH)) for k in range(_BATCH)), (), _BATCH),
        (f"0:1:{1 / _BATCH!r}", (), _BATCH + 1),
        ("0:0.5:0.0005", (), 1001),
        (",".join(map(repr, [0.5, 0.1, *PRUNE_WINDOW, 1.0, 0.0, 0.3])), (), 7),
        ("0:1:0.01", ("--epsilon", "0.3", "--axes", "xx-zz"), 101),
    ],
    ids=["one-point", "batch", "batch-plus-one", "sweep-fine", "comma-list", "epsilon-axes"],
)
def test_csv_equals_per_point_reference(grid, extra, points):
    out = sweep_csv("--p-grid", grid, *extra)
    assert len(out.splitlines()) == points + 1
    epsilon = float(extra[1]) if extra else 1.0
    axes = extra[3] if extra else "xz-zx"
    assert out == per_point_sweep(_parse_grid(grid), epsilon=epsilon, axes=axes)


@settings(max_examples=30, deadline=None)
@given(
    ps=st.lists(
        st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 1.0, *PRUNE_WINDOW])),
        min_size=1,
        max_size=2 * _BATCH + 3,
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
    assert out == per_point_sweep(ps, epsilon=epsilon, bits=bits, axes=axes)


def test_one_descriptor_run_and_no_per_point_density_run(monkeypatch):
    calls = {"frames": 0, "density": 0}
    frames = heisenberg.run_network_frames

    def counted_frames(circuit):
        calls["frames"] += 1
        return frames(circuit)

    def counted_density(circuit, initial):
        calls["density"] += 1
        raise AssertionError("sweep evolved one circuit on its own")

    monkeypatch.setattr(heisenberg, "run_network_frames", counted_frames)
    monkeypatch.setattr(density, "run_network_density", counted_density)
    out = sweep_csv("--p-grid", "0:0.5:0.005")
    assert len(out.splitlines()) == 102
    assert calls == {"frames": 1, "density": 0}


def test_no_per_point_descriptor_read(monkeypatch):
    """The 1001-point grid reads the descriptor engine a stack at a time,
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


def test_grid_states_equal_one_run_per_point():
    grid = [k / (2 * _BATCH + 6) for k in range(2 * _BATCH + 7)]
    initial = pseudo_pure(0.8, BasisState.from_string("0110"))
    chunks = list(run_intensity_grid(build_symmetric(), initial, grid))
    assert [len(stack) for stack in chunks] == [_BATCH, _BATCH, 7]
    states = np.concatenate([stack.entries for stack in chunks])
    for p, state in zip(grid, states):
        alone = density.run_network_density(build_symmetric(), initial, p)[-1].entries
        assert state.tobytes() == alone.tobytes()


@pytest.mark.parametrize(
    "circuit", [undephased_symmetric(), build_asymmetric()],
    ids=["undephased-symmetric", "asymmetric"]
)
def test_grid_without_a_flip_repeats_the_one_final_state(circuit):
    """Every point of every stack is the final state of the one run."""
    initial = pseudo_pure(0.8, BasisState.from_string("0110"))
    chunks = list(run_intensity_grid(circuit, initial, [0.1] * (_BATCH + 3)))
    assert [len(stack) for stack in chunks] == [_BATCH, 3]
    alone = density.run_network_density(circuit, initial)[-1].entries.tobytes()
    assert all(state.tobytes() == alone for stack in chunks for state in stack.entries)


@pytest.mark.parametrize("points", [1, _BATCH, _BATCH + 1, 2 * _BATCH + 7])
@pytest.mark.parametrize(
    "circuit, shared, per_stack, repeats",
    [(build_symmetric(), (2, 5), (2, 2), False), (build_asymmetric(), (4, 4), (0, 0), True)],
    ids=["symmetric", "asymmetric"],
)
def test_every_slice_checked_and_shared_gates_run_once_per_grid(
    monkeypatch, points, circuit, shared, per_stack, repeats
):
    """(constructor check, gate_unitary) calls: the slices and gates ahead of
    the first flip once per grid (the symmetric network's t_0 and t_1 and its
    5 gates; every slice and gate of the asymmetric one, which has no flip),
    the later ones once per stack.  The asymmetric network's final state,
    repeated for each point of a stack of more than one, is checked again
    as that stack."""
    calls = [0, 0]
    post_init, gate_unitary = DensityMatrix.__post_init__, density.gate_unitary
    initial = pseudo_pure(0.8, BasisState.from_string("0110"))

    def counted_post_init(self):
        calls[0] += 1
        return post_init(self)

    def counted_gate_unitary(gate, n):
        calls[1] += 1
        return gate_unitary(gate, n)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(density, "gate_unitary", counted_gate_unitary)
    grid = [k / (2 * points) for k in range(points)]
    chunks = list(run_intensity_grid(circuit, initial, grid))
    stacks = -(-points // _BATCH)
    assert [len(stack) for stack in chunks] == [min(_BATCH, points - start)
                                                for start in range(0, points, _BATCH)]
    checks, gates = (once + stacks * each for once, each in zip(shared, per_stack))
    repeated = sum(len(stack) > 1 for stack in chunks) if repeats else 0
    assert calls == [checks + repeated, gates]


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

    def test_non_positive_initial_state_stops_the_grid(self):
        bad = unchecked_density(np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)[np.newaxis])
        grid = run_intensity_grid(build_symmetric(), bad, [0.1, 0.2])
        assert "negative eigenvalue" in self.message(lambda: next(grid))


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
    return DescriptorFrame(0, (x0, 0.3 * a * single(2, 1, "x")), (z0, single(2, 1, "z")))


def near_prune(coefficients) -> list[float]:
    """Intensities on both sides of where each (modulus, power) term's
    modulus, or its power of (1 - 2p), crosses ``PRUNE_TOL``, for either sign
    of 1 - 2p."""
    ps = []
    for modulus, power in coefficients:
        for scale in (1.0, modulus):
            base = (PRUNE_TOL / scale) ** (1 / power)
            ps += [(1 - sign * base * f) / 2 for sign in (1, -1) for f in (0.9, 1.1)]
    return ps


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
                min_size=1, max_size=2 * _BATCH),
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
