"""Descriptor-table regressions for the three built-in networks.

Table text is compared cell for cell against the frozen canonical strings,
and every cell is additionally compared at the operator level against a
factor-reordered spelling of the same word (ALT_*), so the regression is
insensitive to the order of commuting factors.
"""

import re

import pytest

import table_data
from medwit.circuits import build_asymmetric, build_symmetric
from helpers import parse_word
from medwit.heisenberg import render_table, run_network_frames, substitute

_CELL_RE = re.compile(r"\{([^}]*)\}")


def split_cells(table_text: str) -> list[list[tuple[str, str]]]:
    rows = []
    for line in table_text.splitlines():
        cells = _CELL_RE.findall(line)
        if not cells:
            continue
        row = []
        for cell in cells:
            x_text, z_text = cell.split(",")
            row.append((" ".join(x_text.split()), " ".join(z_text.split())))
        rows.append(row)
    return rows


def assert_table_matches(frames, canonical, alternate):
    rendered = split_cells(render_table(frames))
    assert len(rendered) == len(canonical) == len(frames)
    for frame, got_row, want_row, alt_row in zip(frames, rendered, canonical, alternate):
        for q, (got, want, alt) in enumerate(zip(got_row, want_row, alt_row)):
            # textual regression, whitespace-normalized
            assert got == want, f"t{frame.time_index} qubit {q}: {got} != {want}"
            # operator-level regression against both spellings
            for slot, descriptor in ((0, frame.x[q]), (1, frame.z[q])):
                assert parse_word(want[slot], 4) == descriptor
                assert parse_word(alt[slot], 4) == descriptor


class TestSymmetricTable:
    def test_matches_frozen_cells(self):
        frames = run_network_frames(build_symmetric())
        assert_table_matches(frames, table_data.CANONICAL_SYMMETRIC, table_data.ALT_SYMMETRIC)

    def test_header_and_row_labels(self):
        text = render_table(run_network_frames(build_symmetric()))
        lines = text.splitlines()
        assert lines[0].split() == ["Qubit", "A", "Qubit", "B", "Qubit", "C", "Qubit", "D"]
        assert [line.split()[0] for line in lines[1:]] == ["t0", "t1", "t2", "t3"]


class TestDephasedTable:
    def test_symbolic_cells_carry_attenuation_factors(self):
        frames = run_network_frames(build_symmetric("symbolic"))
        assert_table_matches(frames, table_data.CANONICAL_DEPHASED, table_data.ALT_DEPHASED)

    def test_symbolic_table_substitutes_to_numeric_runs(self):
        symbolic = run_network_frames(build_symmetric("symbolic"))
        for p in (0.0, 0.15, 0.5):
            numeric = run_network_frames(build_symmetric(p))
            for sym_frame, num_frame in zip(symbolic, numeric):
                sub = substitute(sym_frame, p)
                assert sub.x == num_frame.x and sub.z == num_frame.z

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_numeric_cells_show_plain_numbers(self, p):
        frames = run_network_frames(build_symmetric(p))
        cells = split_cells(render_table(frames))
        assert cells[3][1][0].startswith(f"{1 - 2 * p:.12g} q_xB")


class TestAsymmetricTable:
    def test_matches_frozen_cells(self):
        frames = run_network_frames(build_asymmetric())
        assert_table_matches(frames, table_data.CANONICAL_ASYMMETRIC, table_data.ALT_ASYMMETRIC)

    def test_single_frame_table(self):
        frames = run_network_frames(build_asymmetric())[:1]
        text = render_table(frames)
        assert len(text.splitlines()) == 2  # header plus the single row
