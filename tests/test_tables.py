"""Descriptor-table regressions for the three built-in networks.

Table text is compared cell for cell against the frozen canonical strings,
and every cell is additionally compared at the operator level against a
factor-reordered spelling of the same word (ALT_*), so the regression is
insensitive to the order of commuting factors.  The symmetric network's
frames carry the formal factor (1 - 2p); its frames at a numeric p are
those ``substitute`` gives, which ``helpers.numeric_frames`` pins to a run
that attenuates by the float 1 - 2p, and which ``table --p`` renders.
"""

import io
import re
from contextlib import redirect_stdout

import pytest

import table_data
from medwit.circuits import build_asymmetric, build_symmetric
from helpers import numeric_frames, parse_word
from medwit.cli import EXIT_OK, main
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


def frames_at(p: float) -> list:
    """The symmetric network's frames with the intensity substituted."""
    return [substitute(frame, p) for frame in run_network_frames(build_symmetric())]


def assert_table_matches(frames, canonical, alternate):
    rendered = split_cells(render_table(frames))
    assert len(rendered) == len(canonical) == len(frames)
    for t, (frame, got_row, want_row, alt_row) in enumerate(zip(frames, rendered, canonical,
                                                                 alternate)):
        for q, (got, want, alt) in enumerate(zip(got_row, want_row, alt_row)):
            # textual regression, whitespace-normalized
            assert got == want, f"t{t} qubit {q}: {got} != {want}"
            # operator-level regression against both spellings
            for slot, descriptor in ((0, frame.x[q]), (1, frame.z[q])):
                assert parse_word(want[slot], 4) == descriptor
                assert parse_word(alt[slot], 4) == descriptor


class TestSymmetricTable:
    def test_matches_frozen_cells(self):
        assert_table_matches(frames_at(0.0), table_data.CANONICAL_SYMMETRIC,
                             table_data.ALT_SYMMETRIC)

    def test_header_and_row_labels(self):
        text = render_table(run_network_frames(build_symmetric()))
        lines = text.splitlines()
        assert lines[0].split() == ["Qubit", "A", "Qubit", "B", "Qubit", "C", "Qubit", "D"]
        assert [line.split()[0] for line in lines[1:]] == ["t0", "t1", "t2", "t3"]


class TestDephasedTable:
    def test_symbolic_cells_carry_attenuation_factors(self):
        frames = run_network_frames(build_symmetric())
        assert_table_matches(frames, table_data.CANONICAL_DEPHASED, table_data.ALT_DEPHASED)

    def test_symbolic_table_substitutes_to_numeric_runs(self):
        for p in (0.0, 0.15, 0.5, 1.0):
            numeric = numeric_frames(build_symmetric(), p)
            assert frames_at(p) == numeric
            assert render_table(frames_at(p)) == render_table(numeric)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_numeric_cells_show_plain_numbers(self, p):
        cells = split_cells(render_table(frames_at(p)))
        assert cells[3][1][0].startswith(f"{1 - 2 * p:.12g} q_xB")


@pytest.mark.parametrize("p, argv", [(0.0, []), (0.0, ["--p", "0"]), (0.5, ["--p", "0.5"]),
                                     (1.0, ["--p", "1"])])
def test_cli_table_renders_the_substituted_frames(p, argv):
    """``table`` renders the frames at its --p, and at p = 0 without one."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["table", *argv]) == EXIT_OK
    assert out.getvalue() == render_table(frames_at(p)) + "\n"


class TestAsymmetricTable:
    def test_matches_frozen_cells(self):
        frames = run_network_frames(build_asymmetric())
        assert_table_matches(frames, table_data.CANONICAL_ASYMMETRIC, table_data.ALT_ASYMMETRIC)

    def test_single_frame_table(self):
        frames = run_network_frames(build_asymmetric())[:1]
        text = render_table(frames)
        assert len(text.splitlines()) == 2  # header plus the single row
