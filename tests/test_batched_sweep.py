"""The batched sweep against one circuit per grid point, and its checks.

``sweep`` evolves the whole grid as stacks of ``density._BATCH`` points and
reads the descriptor engine off one symbolic run; ``helpers.per_point_sweep``
builds and evolves one circuit per point.  The CSVs must be equal as strings.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_point_sweep
from medwit import cli, density
from medwit.circuits import SYMBOLIC_P, build_symmetric
from medwit.cli import EXIT_OK, _parse_grid, main
from medwit.density import _BATCH, DensityMatrix, pseudo_pure, run_intensity_grid
from medwit.heisenberg import (
    descriptor_commutator,
    nonclassicality_degree,
    run_network_frames,
    substitute,
)
from medwit.pauli import BasisState, operator_norm

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
    frames = cli.run_network_frames

    def counted_frames(circuit):
        calls["frames"] += 1
        return frames(circuit)

    def counted_density(circuit, initial):
        calls["density"] += 1
        raise AssertionError("sweep evolved one circuit on its own")

    monkeypatch.setattr(cli, "run_network_frames", counted_frames)
    monkeypatch.setattr(cli, "run_network_density", counted_density)
    monkeypatch.setattr(density, "run_network_density", counted_density)
    out = sweep_csv("--p-grid", "0:0.5:0.005")
    assert len(out.splitlines()) == 102
    assert calls == {"frames": 1, "density": 0}


def test_grid_states_equal_one_run_per_point():
    grid = [k / (2 * _BATCH + 6) for k in range(2 * _BATCH + 7)]
    initial = pseudo_pure(0.8, BasisState.from_string("0110"))
    chunks = list(run_intensity_grid(build_symmetric(SYMBOLIC_P), initial, grid))
    assert [len(stack) for stack in chunks] == [_BATCH, _BATCH, 7]
    states = np.concatenate([stack.entries for stack in chunks])
    for p, state in zip(grid, states):
        alone = density.run_network_density(build_symmetric(p), initial)[-1].entries
        assert state.tobytes() == alone.tobytes()


@pytest.mark.parametrize("p", PRUNE_WINDOW)
def test_substituted_commutator_matches_a_frame_evolved_at_p(p):
    symbolic = run_network_frames(build_symmetric(SYMBOLIC_P))[-1]
    numeric = run_network_frames(build_symmetric(p))[-1]
    for q in (1, 2):
        image = substitute(descriptor_commutator(symbolic, q), p)
        assert operator_norm(image) == nonclassicality_degree(numeric, q) == 0.0


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
        unchecked = object.__new__(DensityMatrix)
        object.__setattr__(unchecked, "entries", stack)
        assert self.message(lambda: density.partial_trace(unchecked, [0, 3])) == expected

    def test_off_trace_slice(self):
        bad = np.eye(16, dtype=complex) / 8
        expected = self.message(lambda: DensityMatrix(bad))
        assert "trace is 2" in expected
        stack = self.stack_with(bad)
        assert self.message(lambda: DensityMatrix(stack)) == expected

    def test_non_positive_slice(self):
        bad = np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)
        rho = DensityMatrix(bad)
        expected = self.message(rho.validate)
        assert "negative eigenvalue -5.000e-01" in expected
        stack = self.stack_with(bad)
        assert self.message(DensityMatrix(stack).validate) == expected

    def test_non_positive_initial_state_stops_the_grid(self):
        bad = DensityMatrix(np.diag([1.5, -0.5] + [0.0] * 14).astype(complex))
        grid = run_intensity_grid(build_symmetric(SYMBOLIC_P), bad, [0.1, 0.2])
        assert "negative eigenvalue" in self.message(lambda: next(grid))
