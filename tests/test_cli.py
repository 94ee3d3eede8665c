"""CLI tests: commands, exit codes, determinism, config-file precedence."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import table_data
from helpers import unchecked_density
from medwit import cli, density
from medwit.circuits import build_staged, sample_patterns
from medwit.cli import EXIT_CONFIG, EXIT_OK, _parse_grid, main
from medwit.density import (
    _BATCH,
    DensityMatrix,
    exhaustive_average,
    pseudo_pure,
    run_network_density,
    temporal_average,
)
from medwit.detect import antiphase_amplitudes
from medwit.pauli import BasisState
from test_tables import split_cells
from test_tooling import ROOT, _load, same_bytes

#: the benchmark's output checks, whose ENGINE_TOL bounds the engines' gap
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableCommand:
    def test_symmetric_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--network", "symmetric")
        assert code == EXIT_OK
        cells = split_cells(out)
        want = [[cell for pair in row for cell in [pair]] for row in table_data.CANONICAL_SYMMETRIC]
        assert cells == want

    def test_symbolic_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--p", "symbolic")
        assert code == EXIT_OK
        assert split_cells(out) == table_data.CANONICAL_DEPHASED

    def test_asymmetric_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--network", "asymmetric")
        assert code == EXIT_OK
        assert split_cells(out) == table_data.CANONICAL_ASYMMETRIC

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["slices"]) == 4

    def test_staged_network_is_a_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "table", "--network", "staged")
        assert code == EXIT_CONFIG
        assert "--network staged does not apply to table" in err and out == ""
        assert "run --network staged" in err
        config = tmp_path / "table.cfg"
        config.write_text("network = staged\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "table", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "--network staged does not apply to table" in err and out == ""

    def test_bad_intensity_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--p", "1.5")
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_asymmetric_takes_no_intensity(self, capsys):
        code, _, err = run_cli(capsys, "table", "--network", "asymmetric", "--p", "0.2")
        assert code == EXIT_CONFIG


class TestSweepCommand:
    def test_columns_and_degradation_law(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p-grid", "0:0.5:0.05")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == (
            "p,witness_heisenberg,witness_density,negativity_AD,"
            "nonclassicality_B,nonclassicality_C"
        )
        assert len(lines) == 12
        for line in lines[1:]:
            p, w_h, w_d, neg, nc_b, nc_c = map(float, line.split(","))
            assert abs(w_h - 2 * (1 - 2 * p)) < 1e-10
            assert abs(w_d - 2 * (1 - 2 * p)) < 1e-10
            assert abs(nc_b - 2 * abs(1 - 2 * p)) < 1e-10
            assert abs(nc_c - 2 * abs(1 - 2 * p)) < 1e-10
        final = lines[-1].split(",")
        assert float(final[0]) == 0.5
        assert abs(float(final[2])) < 1e-10 and abs(float(final[3])) < 1e-10

    def test_pseudo_pure_scaling(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p-grid", "0", "--epsilon", "0.3")
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[1]) - 0.6) < 1e-10
        assert abs(float(row[2]) - 0.6) < 1e-10

    def test_deterministic_output_file(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(capsys, "sweep", "--p-grid", "0:0.5:0.1", "--out", str(path))
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_non_symmetric_network_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--network", "asymmetric")
        assert code == EXIT_CONFIG

    def test_bad_grid_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--p-grid", "0:2:0.5")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "grid, points", [("0:0.5:0.3", [0.0, 0.3]), ("0:1:0.35", [0.0, 0.35, 0.7])]
    )
    def test_grid_stops_at_or_before_stop(self, capsys, grid, points):
        code, out, _ = run_cli(capsys, "sweep", "--p-grid", grid)
        assert code == EXIT_OK
        got = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert got == pytest.approx(points, abs=1e-15)

    @pytest.mark.parametrize("grid, last", [("0.09:1:0.07", 1.0), ("0:0.3:0.1", 0.3)])
    def test_stop_on_the_grid_up_to_rounding_is_the_last_point(self, capsys, grid, last):
        """0.09 + 13 * 0.07 and 3 * 0.1 round past stop; the point is stop."""
        code, out, err = run_cli(capsys, "sweep", "--p-grid", grid)
        assert code == EXIT_OK and err == ""
        assert float(out.splitlines()[-1].split(",")[0]) == last

    @pytest.mark.parametrize("grid", ["0:1:inf", "0:0:inf"])
    def test_infinite_step_is_named(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", "--p-grid", grid)
        assert code == EXIT_CONFIG and out == ""
        assert f"bad --p-grid {grid!r}: step must be finite" in err
        assert "must lie in [0, 1]" not in err

    def test_stop_below_start_is_named(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--p-grid", "0.5:0:0.1")
        assert code == EXIT_CONFIG
        assert "stop 0.0 is below start 0.5" in err
        assert "must lie in [0, 1]" not in err

    @pytest.mark.parametrize("grid", ["0:inf:0.1", "nan:1:0.1", "-inf:0.5:0.1"])
    def test_non_finite_bounds_are_named(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", f"--p-grid={grid}")
        assert code == EXIT_CONFIG
        assert f"p-grid values must lie in [0, 1], got {grid!r}" in err
        assert out == ""

    @pytest.mark.parametrize("p", ["0.3", "symbolic"])
    def test_intensity_flag_rejected(self, capsys, p):
        """--p is not expanded to --p-grid, which would run a one-point grid."""
        code, out, err = run_cli(capsys, "sweep", "--p", p)
        assert code == EXIT_CONFIG and out == ""
        assert f"unrecognized arguments: --p {p}" in err

    def test_intensity_from_config_file_rejected(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("p = 0.3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        assert "config key 'p' does not apply to sweep" in err

    @pytest.mark.parametrize("grid, points", [("0:1:1e-9", "1000000000"), ("0:1:5e-324", "inf")])
    def test_point_count_is_capped_before_the_grid_is_built(self, capsys, grid, points):
        code, out, err = run_cli(capsys, "sweep", "--p-grid", grid)
        assert code == EXIT_CONFIG
        assert f"--p-grid {grid!r} gives {points} points" in err and out == ""

    def test_a_long_point_count_is_cut(self, capsys):
        """A tiny finite step's exact count runs to 300 digits, echoed as
        ``_shown`` cuts a value."""
        code, out, err = run_cli(capsys, "sweep", "--p-grid", "0:1:1e-300")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "gives 9999999999999999038030694074261139688982... (300 characters) points" in err
        assert len(err.encode()) < 200

    def test_cap_is_one_past_the_limit_in_both_grid_forms(self):
        with pytest.raises(cli.ConfigError, match="gives 1000001 points"):
            _parse_grid("0:1:1e-6")
        at_cap = ",".join(["0"] * cli.MAX_GRID_POINTS)
        assert len(_parse_grid(at_cap)) == cli.MAX_GRID_POINTS
        with pytest.raises(cli.ConfigError, match=f"gives {cli.MAX_GRID_POINTS + 1} points"):
            _parse_grid(at_cap + ",0")

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("", "--p-grid '' gives no points"),
            (",,", "--p-grid ',,' gives no points"),
            ("0:0.5", "--p-grid range '0:0.5' needs three fields start:stop:step, got 2"),
            ("0:0.5:0.1:2",
             "--p-grid range '0:0.5:0.1:2' needs three fields start:stop:step, got 4"),
        ],
        ids=["empty", "commas-only", "two-fields", "four-fields"],
    )
    def test_malformed_grid_is_named(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "sweep", f"--p-grid={grid}")
        assert code == EXIT_CONFIG and out == ""
        assert message in err
        assert "must lie in [0, 1]" not in err and "unpack" not in err

    def test_fine_grid_keeps_its_stop(self):
        grid = _parse_grid("0:0.5:0.0005")
        assert len(grid) == 1001
        assert grid == [0.0 + i * 0.0005 for i in range(1001)]


class _Discard(io.TextIOBase):
    """A text stream that drops what is written to it."""

    def write(self, text):
        return len(text)


class TestSweepStreaming:
    """The sweep writes its CSV one stack of grid points at a time."""

    #: 101 points, seven stacks
    GRID = "0:1:0.01"

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--p-grid", self.GRID)
        assert code == EXIT_OK and len(out.splitlines()) > 2 * _BATCH + 1
        code, nothing, _ = run_cli(capsys, "sweep", "--p-grid", self.GRID, "--out", str(path))
        assert (code, nothing) == (EXIT_OK, "")
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_engine_error_on_a_later_stack_keeps_the_whole_rows_before_it(
        self, capsys, monkeypatch, tmp_path, to_file
    ):
        """A check that fails on the third stack gives exit 3, after the header
        and every row of the first two stacks, and no part of a later row."""
        code, whole, _ = run_cli(capsys, "sweep", "--p-grid", self.GRID)
        assert code == EXIT_OK
        post_init, stacks = DensityMatrix.__post_init__, []

        def failing_on_the_third_stack(self):
            post_init(self)
            # the symmetric network checks two labelled four-qubit slices of
            # each stack after its flip, and its shared slices as stacks of one
            if len(self) > 1 and self.n == 4:
                stacks.append(len(self))
                if len(stacks) == 5:
                    raise ValueError("check forced to fail")

        monkeypatch.setattr(DensityMatrix, "__post_init__", failing_on_the_third_stack)
        path = tmp_path / "sweep.csv"
        out_flag = ["--out", str(path)] if to_file else []
        code, out, err = run_cli(capsys, "sweep", "--p-grid", self.GRID, *out_flag)
        assert code == cli.EXIT_ENGINE
        assert err == "medwit: engine error: check forced to fail\n"
        written = path.read_text(encoding="utf-8") if to_file else out
        assert out == ("" if to_file else written)
        lines = whole.splitlines(keepends=True)
        assert written == "".join(lines[:1 + 2 * _BATCH])

    def test_bad_out_path_is_refused_before_any_grid_work(self, capsys, monkeypatch, tmp_path):
        started = []
        monkeypatch.setattr(cli, "_descriptor_values", lambda *args: started.append(args))
        monkeypatch.setattr(density, "run_intensity_grid", lambda *args: started.append(args))
        path = tmp_path / "absent" / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--p-grid", self.GRID, "--out", str(path))
        assert (code, out, started) == (EXIT_CONFIG, "", [])
        assert "cannot write" in err and "No such file or directory" in err

    @staticmethod
    def _peak_bytes(grid: str) -> int:
        """tracemalloc's peak over one in-process sweep, its CSV dropped."""
        with contextlib.redirect_stdout(_Discard()):
            tracemalloc.start()
            try:
                assert main(["sweep", "--p-grid", grid]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_memory_grows_by_less_than_200_bytes_per_point(self):
        """From 1001 to 10001 points.  Holding the whole CSV, its rows and
        the columns as lists took about 334 bytes per point; the grid, its
        array and the three descriptor columns take about 100."""
        self._peak_bytes("0:1:0.1")  # the caches that any sweep fills
        small, large = self._peak_bytes("0:1:0.001"), self._peak_bytes("0:1:0.0001")
        assert (large - small) / 9000 < 200


#: settings under which ``run --p p`` and ``sweep --p-grid p`` observe one state
SHARED_SETTINGS = {
    "default": (),
    "epsilon-bits": ("--epsilon", "0.3", "--initial-bits", "1010"),
    "axes-epsilon": ("--axes", "xx-zz", "--epsilon", "0.7"),
}


@pytest.mark.parametrize("settings", SHARED_SETTINGS.values(), ids=SHARED_SETTINGS.keys())
@pytest.mark.parametrize("p", ["0", "0.1", "0.25", "0.37", "0.499999999999995", "0.5", "1"])
def test_final_run_slice_equals_sweep_row(capsys, p, settings):
    """run and sweep read the symmetric network's final state through one
    observation layer, so both engines' values agree exactly."""
    code, out, _ = run_cli(capsys, "run", "--p", p, *settings)
    assert code == EXIT_OK
    final = json.loads(out)["slices"][-1]
    code, out, _ = run_cli(capsys, "sweep", "--p-grid", p, *settings)
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    sweep = dict(zip(header.split(","), map(float, row.split(","))))
    assert sweep["p"] == float(p)
    assert sweep["witness_heisenberg"] == final["witness"]["heisenberg"]
    assert sweep["witness_density"] == final["witness"]["density"]
    assert sweep["negativity_AD"] == final["negativity_AD"]["value"]
    assert sweep["nonclassicality_B"] == final["nonclassicality"]["B"]
    assert sweep["nonclassicality_C"] == final["nonclassicality"]["C"]


class TestStagedCommand:
    def test_no_argv_takes_an_eigendecomposition(self, capsys, monkeypatch):
        """Every pinned staged argv runs with ``np.linalg.eigh`` refusing to:
        the sampled walk reads its pseudo-pure input off the diagonal."""
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh is not called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        argvs = [argv for argv in same_bytes.ARGVS
                 if argv[0] == "staged" and argv not in same_bytes.ERRORS]
        assert argvs
        for argv in argvs:
            assert run_cli(capsys, *argv)[0] == EXIT_OK, argv

    def test_non_positive_average_is_an_engine_error(self, capsys, monkeypatch):
        """An exhaustive average that is Hermitian with trace one but has
        eigenvalue -0.5, slipped past the constructor, gives exit 3 and no
        report, where reading it would give negativity_AD 0.5."""
        bad = unchecked_density(np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)[np.newaxis])
        monkeypatch.setattr(density, "exhaustive_average", lambda stages, initial: bad)
        code, out, err = run_cli(capsys, "staged", "--stages", "4", "--patterns", "exhaustive")
        assert (code, out) == (cli.EXIT_ENGINE, "")
        assert "negative eigenvalue -5.000e-01" in err

    def test_report_structure_and_seed_echo(self, capsys):
        code, out, _ = run_cli(
            capsys, "staged", "--stages", "4", "--patterns", "sampled:6", "--seed", "11"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"]["seed"] == 11
        assert "network" not in report["config"]  # staged reads no network
        assert report["config"]["initial_bits"] == "1100"
        assert set(report["variants"]) == {"undephased", "sampled"}
        sampled = report["variants"]["sampled"]
        assert sampled["seed"] == 11 and sampled["pattern_count"] == 6
        for variant in report["variants"].values():
            assert variant["witness"]["engine"] == "density"
            assert variant["negativity_AD"]["engine"] == "density"
            assert "classification" in variant["multiplet"]

    def test_exhaustive_variant(self, capsys):
        code, out, _ = run_cli(
            capsys, "staged", "--stages", "2", "--patterns", "exhaustive"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report["variants"]) == {"undephased", "sampled", "exhaustive"}
        assert report["variants"]["exhaustive"]["pattern_count"] == 4

    def test_every_variant_multiplet_reads_its_final_state(self, capsys):
        """The one multiplet read of the variants' stack gives each variant
        the report of its final state read alone."""
        code, out, _ = run_cli(capsys, "staged", "--stages", "4", "--patterns", "exhaustive",
                               "--epsilon", "0.7", "--initial-bits", "0110")
        assert code == EXIT_OK
        variants = json.loads(out)["variants"]
        initial = pseudo_pure(0.7, BasisState.from_string("0110"))
        finals = {
            "undephased": run_network_density(build_staged(4), initial)[-1],
            "sampled": temporal_average(
                4, sample_patterns(4, cli.PREVIEW_PATTERNS, seed=0), 0.7,
                BasisState.from_string("0110")
            ),
            "exhaustive": exhaustive_average(4, initial),
        }
        assert set(variants) == set(finals)
        for name, rho in finals.items():
            report, = antiphase_amplitudes(rho, readout=cli.PROBE_1)
            assert variants[name]["multiplet"] == {"engine": "density", **report}

    def test_byte_identical_reports(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "staged", "--stages", "4", "--patterns", "sampled:8",
                "--seed", "3", "--out", str(path),
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_dump_state_size(self, capsys, tmp_path):
        path = tmp_path / "state.bin"
        code, _, _ = run_cli(capsys, "staged", "--stages", "2", "--dump-state", str(path))
        assert code == EXIT_OK
        assert path.stat().st_size == 16 * 4 ** 4

    def test_oversized_sample_count_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "staged", "--stages", "2", "--patterns", "sampled:99")
        assert code == EXIT_CONFIG
        assert "population" in err

    def test_intensity_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "staged", "--p", "0.5")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("network", ["symmetric", "asymmetric"])
    def test_other_network_from_config_file_rejected(self, capsys, tmp_path, network):
        config = tmp_path / "staged.cfg"
        config.write_text(f"network = {network}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "staged", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "config key 'network' does not apply to staged" in err
        assert out == ""

    @pytest.mark.parametrize("stages", ["14", "34"])
    def test_exhaustive_runs_up_to_34_stages(self, capsys, stages):
        code, out, _ = run_cli(capsys, "staged", "--stages", stages, "--patterns", "exhaustive")
        assert code == EXIT_OK
        report = json.loads(out)
        exhaustive = report["variants"]["exhaustive"]
        assert exhaustive["pattern_count"] == math.comb(int(stages), int(stages) // 2) ** 2
        assert report["variants"]["sampled"]["pattern_count"] == 16
        # the transferred entanglement stays suppressed as the stage count grows
        assert 0 <= exhaustive["negativity_AD"]["value"] < 1e-4

    @pytest.mark.parametrize(
        "stages, patterns", [("40", "sampled:3"), ("36", "exhaustive")]
    )
    def test_population_beyond_int64_is_a_config_error(self, capsys, stages, patterns):
        code, _, err = run_cli(capsys, "staged", "--stages", stages, "--patterns", patterns)
        assert code == EXIT_CONFIG
        assert "--stages" in err


class TestRunCommand:
    def test_engine_tags_and_cross_engine_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--network", "symmetric", "--p", "0.2")
        assert code == EXIT_OK
        report = json.loads(out)
        final = report["slices"][-1]
        assert abs(final["witness"]["heisenberg"] - final["witness"]["density"]) < 1e-10
        assert abs(final["witness"]["heisenberg"] - 2 * (1 - 2 * 0.2)) < 1e-10
        assert final["nonclassicality"]["engine"] == "heisenberg"

    def test_no_intensity_reads_the_undephased_network(self, capsys):
        """Without --p both engines read p = 0, and the report echoes no p."""
        plain, zero = (json.loads(run_cli(capsys, "run", *argv)[1]) for argv in ([], ["--p", "0"]))
        assert "p" not in plain["config"] and zero["config"].pop("p") == 0.0
        assert plain == zero

    def test_asymmetric_reports_both_axes_with_note(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--network", "asymmetric")
        assert code == EXIT_OK
        report = json.loads(out)
        final = report["slices"][-1]
        assert final["witness"]["axes"] == "xx-zz"
        assert abs(final["witness"]["density"] - 2.0) < 1e-10
        assert final["witness_alt"]["axes"] == "xz-zx"
        assert abs(final["witness_alt"]["density"]) < 1e-10
        assert report["notes"]

    def test_note_reports_computed_witness_magnitude(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--network", "asymmetric", "--epsilon", "0.5")
        assert code == EXIT_OK
        notes = json.loads(out)["notes"]
        assert notes[0] == (
            "final slice: witness xx-zz = 1, witness xz-zx = 0, negativity_AD = 0.125"
        )
        assert not any("magnitude 2" in note for note in notes)

    def test_note_names_every_witness_that_misses_entanglement(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--network", "asymmetric", "--initial-bits", "0110"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        final = report["slices"][-1]
        assert abs(final["witness"]["density"]) < 1e-10
        assert abs(final["witness_alt"]["density"]) < 1e-10
        assert abs(final["negativity_AD"]["value"] - 0.5) < 1e-10
        assert report["notes"] == [
            "final slice: witness xx-zz = 0, witness xz-zx = 0, negativity_AD = 0.5",
            "the xx-zz witness reads 0 while negativity_AD is 0.5, "
            "so it misses the A-D entanglement",
            "the xz-zx witness reads 0 while negativity_AD is 0.5, "
            "so it misses the A-D entanglement",
        ]

    @pytest.mark.parametrize("stages", ["2", "4", "8", "34"])
    def test_staged_network_runs_both_engines(self, capsys, stages):
        code, out, _ = run_cli(capsys, "run", "--network", "staged", "--stages", stages)
        assert code == EXIT_OK
        report = json.loads(out)
        assert abs(abs(report["slices"][-1]["witness"]["density"]) - 2.0) < 1e-10
        assert len(report["slices"]) == 4
        for entry in report["slices"]:
            for key in ("witness", "witness_alt"):
                w = entry[key]
                assert abs(w["heisenberg"] - w["density"]) <= workloads.ENGINE_TOL
            assert entry["nonclassicality"]["engine"] == "heisenberg"
        assert workloads.check_run_json(out) is None

    @pytest.mark.parametrize("network", ["symmetric", "asymmetric"])
    def test_stages_flag_off_the_staged_network_is_named(self, capsys, network):
        code, out, err = run_cli(capsys, "run", "--network", network, "--stages", "4")
        assert code == EXIT_CONFIG
        assert "--stages applies to the staged network only" in err and out == ""

    @pytest.mark.parametrize("network", ["symmetric", "asymmetric"])
    def test_stages_file_key_off_the_staged_network_is_named(self, capsys, tmp_path, network):
        config = tmp_path / "run.cfg"
        config.write_text(f"network = {network}\nstages = 4\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "--stages applies to the staged network only" in err and out == ""

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("medwit run")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_final_state_is_checked_once(self, capsys, monkeypatch, fmt):
        """The multiplet and the --dump-state file read one final state, so
        its stack of one passes the constructor's checks once."""
        checked, stacks = [], []
        post_init, run_network = DensityMatrix.__post_init__, density.run_network_density

        def recorded_post_init(self):
            post_init(self)
            checked.append(self.entries.tobytes())

        def recorded_run_network(*args):
            stacks.append(run_network(*args))
            return stacks[-1]

        monkeypatch.setattr(DensityMatrix, "__post_init__", recorded_post_init)
        monkeypatch.setattr(density, "run_network_density", recorded_run_network)
        code, _, _ = run_cli(capsys, "run", "--p", "0.2", "--format", fmt)
        assert code == EXIT_OK and len(stacks) == 1
        assert checked.count(stacks[0].entries[-1:].tobytes()) == 1

    def test_patterns_are_rejected_from_flag_and_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--network", "staged", "--patterns", "sampled:4")
        assert code == EXIT_CONFIG
        assert "--patterns" in err
        config = tmp_path / "run.cfg"
        config.write_text("network = staged\npatterns = exhaustive\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "config key 'patterns' does not apply to run" in err


    def test_symbolic_intensity_is_a_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--p", "symbolic")
        assert code == EXIT_CONFIG
        assert "--p" in err
        config = tmp_path / "run.cfg"
        config.write_text("p = symbolic\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "--p" in err


class TestIntensityOnOtherNetworks:
    @pytest.mark.parametrize("command", ["run", "table"])
    @pytest.mark.parametrize("network", ["asymmetric", "staged"])
    def test_flag_is_named_before_any_circuit(self, capsys, monkeypatch, command, network):
        def no_circuit(cfg):
            raise AssertionError("a circuit was built before --p was checked")

        monkeypatch.setattr(cli, "_build_network", no_circuit)
        code, out, err = run_cli(capsys, command, "--network", network, "--p", "0.1")
        assert code == EXIT_CONFIG
        assert "--p 0.1" in err and f"the {network} network" in err
        assert out == ""


class TestInitialBits:
    @pytest.mark.parametrize("command", ["table", "sweep", "staged", "run"])
    @pytest.mark.parametrize("bits", ["01", "00000"])
    def test_wrong_length_flag_is_a_config_error(self, capsys, command, bits):
        code, out, err = run_cli(capsys, command, "--initial-bits", bits)
        assert code == EXIT_CONFIG
        # table reads no initial state, so its parser takes no --initial-bits
        named = "unrecognized arguments: --initial-bits" if command == "table" else "4 bits"
        assert "--initial-bits" in err and named in err
        assert out == ""

    @pytest.mark.parametrize("command", ["table", "sweep", "staged", "run"])
    def test_wrong_length_file_value_is_a_config_error(self, capsys, tmp_path, command):
        config = tmp_path / "bits.cfg"
        config.write_text("initial_bits = 011\n", encoding="utf-8")
        code, _, err = run_cli(capsys, command, "--config", str(config))
        assert code == EXIT_CONFIG
        named = "config key 'initial_bits' does not apply" if command == "table" else "4 bits"
        assert named in err


class TestSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ("staged", "--patterns", "sampled:4"),
            ("staged", "--patterns", "exhaustive"),
            ("run",),
        ],
        ids=["staged-sampled", "staged-exhaustive", "run"],
    )
    def test_negative_seed_is_a_config_error(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == EXIT_CONFIG
        assert "--seed" in err and out == ""
        config = tmp_path / "seed.cfg"
        config.write_text("seed = -1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert code == EXIT_CONFIG
        assert "--seed" in err and out == ""


class TestIntegerFlags:
    """A non-integer --stages or --seed is named alone, with the value it got."""

    CASES = [(("run", "--network", "staged"), "stages", "2x"), (("staged",), "seed", "1.5")]

    @staticmethod
    def check(err: str, key: str, value: str) -> None:
        other = "seed" if key == "stages" else "stages"
        assert f"--{key} must be an integer, got {value!r}" in err
        assert other not in err and "invalid literal" not in err

    @pytest.mark.parametrize("argv, key, value", CASES, ids=["stages", "seed"])
    def test_flag(self, capsys, argv, key, value):
        code, out, err = run_cli(capsys, *argv, f"--{key}", value)
        assert code == EXIT_CONFIG and out == ""
        self.check(err, key, value)

    @pytest.mark.parametrize("argv, key, value", CASES, ids=["stages", "seed"])
    def test_config_file_key(self, capsys, tmp_path, argv, key, value):
        config = tmp_path / "int.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        self.check(err, key, value)


class TestPatternsSpelling:
    """sampled:N takes one spelling of N, ASCII digits with no leading zero,
    since the report echoes the mode: any other spelling that ``int`` reads
    is exit 2 naming --patterns, from the flag and from the config file."""

    SPELLINGS = ["sampled: 3", "sampled:+3", "sampled:1_0", "sampled:010", "sampled:0",
                 "sampled:\uff13", "sampled:\u0663", "sampled:3 ", "sampled:"]
    IDS = ["space", "plus", "underscore", "leading-zero", "zero", "fullwidth", "arabic-indic",
           "trailing-space", "empty"]

    @pytest.mark.parametrize("value", SPELLINGS, ids=IDS)
    def test_flag(self, capsys, value):
        code, out, err = run_cli(capsys, "staged", "--stages", "4", "--patterns", value)
        assert code == EXIT_CONFIG and out == ""
        assert "--patterns must be none, sampled:N" in err and repr(value) in err

    @pytest.mark.parametrize("value", [v for v in SPELLINGS if v == v.strip()],
                             ids=[i for v, i in zip(SPELLINGS, IDS) if v == v.strip()])
    def test_config_file_key(self, capsys, tmp_path, value):
        config = tmp_path / "patterns.cfg"
        config.write_text(f"patterns = {value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "staged", "--stages", "4", "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        assert "--patterns must be none, sampled:N" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["sampled:1", "sampled:10", "sampled:36"])
    def test_canonical_spelling_is_echoed(self, capsys, value):
        code, out, _ = run_cli(capsys, "staged", "--stages", "4", "--patterns", value)
        assert code == EXIT_OK
        assert json.loads(out)["config"]["patterns"] == value


class TestNegativeZero:
    """-0 reads as 0, so every output spells it one way: the report's config,
    run's text header and the sweep's p column, from the flag and from the
    config file."""

    CASES = [(("staged", "--stages", "2"), "epsilon"), (("run",), "p"),
             (("run", "--format", "text"), "p")]
    IDS = ["staged-epsilon", "run-p", "run-text-p"]

    @pytest.mark.parametrize("argv, key", CASES, ids=IDS)
    def test_flag(self, capsys, argv, key):
        negative = run_cli(capsys, *argv, f"--{key}", "-0")
        assert negative == run_cli(capsys, *argv, f"--{key}", "0")
        assert negative[0] == EXIT_OK and "-0" not in negative[1]

    @pytest.mark.parametrize("argv, key", CASES, ids=IDS)
    def test_config_file_key(self, capsys, tmp_path, argv, key):
        config = tmp_path / "zero.cfg"
        config.write_text(f"{key} = -0\n", encoding="utf-8")
        negative = run_cli(capsys, *argv, "--config", str(config))
        assert negative == run_cli(capsys, *argv, f"--{key}", "0")
        assert negative[0] == EXIT_OK and "-0" not in negative[1]

    @pytest.mark.parametrize("grid", ["-0,0", "-0:0.1:0.1"], ids=["comma", "range"])
    def test_grid_point(self, capsys, grid):
        code, out, _ = run_cli(capsys, "sweep", f"--p-grid={grid}")
        rows = out.splitlines()[1:]
        assert code == EXIT_OK and rows[0].startswith("0,")
        assert not any(row.startswith("-") for row in rows)


def effective_config(*argv: str) -> cli.ExperimentConfig:
    """The validated config of an argv, with no engine run."""
    return cli._effective_config(cli.build_parser().parse_args(list(argv)))


class TestSizeLimits:
    """--stages above ``MAX_STAGES`` and sampled:N above
    ``MAX_SAMPLED_PATTERNS`` are config errors naming the flag, from the flag
    and from the config file, before any work starts; every argv the output
    digests and the benchmark pin lies within both limits."""

    CASES = [
        (("run", "--network", "staged"), "stages", str(cli.MAX_STAGES + 1)),
        (("run", "--network", "staged"), "stages", "100000000"),
        (("staged",), "stages", "20000"),
        (("staged", "--stages", "34"), "patterns", f"sampled:{cli.MAX_SAMPLED_PATTERNS + 1}"),
        (("staged", "--stages", "34"), "patterns", "sampled:5000000000000000000"),
        # longer than int reads from a string by default
        (("staged", "--stages", "34"), "patterns", "sampled:" + "9" * 5000),
        (("staged",), "stages", "9" * 5000),
    ]
    IDS = ["run-stages-limit", "run-stages-huge", "staged-stages", "patterns-limit",
           "patterns-huge", "patterns-5000-digits", "stages-5000-digits"]

    @pytest.mark.parametrize("argv, key, value", CASES, ids=IDS)
    def test_flag(self, argv, key, value):
        with pytest.raises(cli.ConfigError, match=f"^--{key} .*above the limit"):
            effective_config(*argv, f"--{key}", value)

    @pytest.mark.parametrize("argv, key, value", CASES, ids=IDS)
    def test_config_file_key(self, tmp_path, argv, key, value):
        config = tmp_path / "size.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=f"^--{key} .*above the limit"):
            effective_config(*argv, "--config", str(config))

    def test_each_limit_is_admitted_and_stated_in_help(self, capsys):
        cfg = effective_config("run", "--network", "staged", "--stages", str(cli.MAX_STAGES))
        assert cfg.stages == cli.MAX_STAGES
        cfg = effective_config("staged", "--stages", "34", "--patterns",
                               f"sampled:{cli.MAX_SAMPLED_PATTERNS}")
        assert cfg.count == cli.MAX_SAMPLED_PATTERNS
        for command in ("staged", "run"):
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args([command, "-h"])
            # argparse wraps the help text at the terminal's width
            text = " ".join(capsys.readouterr().out.split())
            assert f"at most {cli.MAX_STAGES} " in text
            if command == "staged":
                assert f"at most {cli.MAX_SAMPLED_PATTERNS}," in text

    def test_pinned_argvs_lie_within_the_limits(self):
        """Every pinned argv but the bad flags of ``same_bytes.ERRORS``."""
        argvs = [argv for argv in same_bytes.ARGVS if argv not in same_bytes.ERRORS] + [
            command.argv(1) for workload in workloads.WORKLOADS.values()
            for command in workload.commands]
        for argv in argvs:
            effective_config(*argv)


#: the most digits ``int`` reads from a string
INT_DIGITS = sys.get_int_max_str_digits()


class TestHugeIntegers:
    """An integer with more digits than ``int`` reads from a string: an ASCII
    --stages is above its limit, any other is named by its digit count, and
    no message echoes more than a prefix of the value, from the flag and
    from the config file.  The longest seed ``int`` reads is echoed."""

    CASES = [
        (("run", "--network", "staged"), "stages", "9" * (INT_DIGITS + 1),
         f"^--stages 9{{40}}\\.\\.\\. \\({INT_DIGITS + 1} characters\\) is above the limit of "
         f"{cli.MAX_STAGES}$"),
        (("run", "--network", "staged"), "stages", "0" * INT_DIGITS + "3",
         f"^--stages has {INT_DIGITS + 1} digits, more than the {INT_DIGITS} "),
        (("staged",), "seed", "9" * (INT_DIGITS + 1),
         f"^--seed has {INT_DIGITS + 1} digits, more than the {INT_DIGITS} "),
        (("run",), "seed", "-" + "9" * (INT_DIGITS + 1),
         f"^--seed has {INT_DIGITS + 1} digits, more than the {INT_DIGITS} "),
        (("run",), "seed", "-" + "9" * INT_DIGITS,
         f"^--seed must be an integer >= 0, "
         f"got -9{{39}}\\.\\.\\. \\({INT_DIGITS + 1} characters\\)$"),
    ]
    IDS = ["stages", "stages-leading-zeros", "seed", "seed-negative", "seed-negative-read"]

    @pytest.mark.parametrize("argv, key, value, message", CASES, ids=IDS)
    def test_flag(self, argv, key, value, message):
        with pytest.raises(cli.ConfigError, match=message) as info:
            effective_config(*argv, f"--{key}={value}")
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("argv, key, value, message", CASES, ids=IDS)
    def test_config_file_key(self, tmp_path, argv, key, value, message):
        config = tmp_path / "huge.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=message) as info:
            effective_config(*argv, "--config", str(config))
        assert len(str(info.value)) < 200

    def test_longest_seed_is_echoed(self):
        cfg = effective_config("staged", "--seed", "9" * INT_DIGITS)
        assert json.loads(json.dumps(cfg.to_dict("staged")))["seed"] == 10 ** INT_DIGITS - 1


class TestLongEchoes:
    """A bad 3000-character --p-grid, config line or config key is echoed
    cut after ``ECHO_CHARS`` characters, in an error under 300 bytes."""

    @pytest.mark.parametrize("grid", [
        "x" * 3000, "2," * 1500, ":" * 3000, "," * 3000, "0:1:" + "0" * 2992 + "1e-9",
        "0.5:0:" + "0" * 2993 + "1",
    ], ids=["no-number", "out-of-range", "fields", "no-points", "above-the-limit", "descending"])
    def test_grid(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", f"--p-grid={grid}")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "... (3002 characters)" in err and len(err.encode()) < 300

    @pytest.mark.parametrize("line, message", [
        ("x" * 3000, "expected 'key = value', got 'x"),
        ("k" * 3000 + " = 1", "config key 'k"),
    ], ids=["no-equals", "key"])
    def test_config_file(self, capsys, tmp_path, line, message):
        config = tmp_path / "c.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert (code, out) == (EXIT_CONFIG, "")
        assert message in err and "... (3002 characters)" in err and len(err.encode()) < 300

    def test_config_file_path(self, capsys, tmp_path):
        """A long path to a config file with a bad line is echoed once, cut."""
        config = tmp_path.joinpath(*["d" * 200] * 14, "c.cfg")
        config.parent.mkdir(parents=True)
        config.write_text("p = 0.3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"... ({len(str(config))} characters):1: config key 'p'" in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("flag, verb", [
        ("--config", "cannot read config file"), ("--out", "cannot write"),
        ("--dump-state", "cannot write"),
    ], ids=["config", "out", "dump-state"])
    def test_path(self, capsys, tmp_path, flag, verb):
        """A path that cannot be opened is echoed once, cut, with the OS
        error's own words, which do not repeat it."""
        path = str(tmp_path / "absent") + "/x" * 1500
        code, out, err = run_cli(capsys, "run", flag, path)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"medwit: config error: {verb} {path[:cli.ECHO_CHARS]}... "
                       f"({len(path)} characters): No such file or directory\n")

    @pytest.mark.parametrize("argv, error", [
        (["run", "--network", "x" * 3000], "medwit run: error: argument --network: invalid "
         f"choice: '{'x' * 39}... (3002 characters) (choose from 'symmetric', 'asymmetric', "
         "'staged')"),
        (["run", "--bogus", "y" * 3000],
         f"medwit: error: unrecognized arguments: --bogus {'y' * 32}... (3008 characters)"),
        (["run", "--help=" + "z" * 3000], "medwit run: error: argument -h/--help: ignored "
         f"explicit argument '{'z' * 39}... (3002 characters)"),
    ], ids=["choice", "unrecognized", "explicit-argument"])
    def test_argparse_error(self, capsys, argv, error):
        """argparse's own errors cut the value as ``_shown`` cuts it, after
        the usage lines."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("usage: medwit") and err.endswith("\n" + error + "\n")
        assert len(err.encode()) < 600


#: spellings that a config value may arrive in: valid, at a limit, malformed
SPELLINGS = [
    "0", "-0", "+3", "1_0", " 2", "2 ", "0.25", "0.2_5", "1", "-1", "1e400", "nan", "-nan",
    "inf", "", "x", "\u0663", "\uff13", "\u0660.\u0665", str(cli.MAX_STAGES),
    str(cli.MAX_STAGES + 1), "9" * INT_DIGITS, "9" * (INT_DIGITS + 1), "0" * INT_DIGITS + "4",
    "-" + "9" * (INT_DIGITS + 1), "none", "exhaustive", "sampled:3", "sampled:03", "sampled:0",
    f"sampled:{cli.MAX_SAMPLED_PATTERNS + 1}", "sampled:" + "9" * (INT_DIGITS + 1), "symbolic",
    "0000", "1100", "0110", "01", "0" * (INT_DIGITS + 1),
]
#: the keys whose flags take a fixed set of choices, which the parser checks
CHOICES = {"network": cli.NETWORKS, "axes": sorted(cli.AXES_CHOICES)}
#: the config keys each command reads, written out here so that the tests
#: check ``cli.CONFIG_KEYS`` instead of reading it
READS = {
    "table": ["network", "p", "seed"],
    "sweep": ["epsilon", "initial_bits", "axes", "seed"],
    "staged": ["epsilon", "initial_bits", "axes", "stages", "patterns", "seed"],
    "run": ["network", "p", "epsilon", "initial_bits", "axes", "stages", "seed"],
}
#: the one network each key applies on, where it does not apply on all
NETWORK_OF = {"p": "symmetric", "stages": "staged", "patterns": "staged"}


def config_file(config: dict) -> str:
    """A report's ``config`` as the lines of a config file."""
    return "".join(f"{key} = {value}\n" for key, value in config.items())


@st.composite
def command_argvs(draw):
    command = draw(st.sampled_from(sorted(READS)))
    argv = [command]
    for key in READS[command]:
        values = st.sampled_from(CHOICES[key]) if key in CHOICES else st.one_of(
            st.sampled_from(SPELLINGS), st.text(max_size=4))
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=command_argvs())
@example(argv=["staged", "--stages=01"])  # an odd stage count with no patterns is valid
def test_effective_config_is_refused_or_bounded_and_spelt_once(argv):
    """Every argv gives a ConfigError with a short message, or a config
    inside every limit whose echo holds the keys its command reads that
    apply on its network, p only where one was given, and, written as a
    config file, gives the same config: each value is echoed in one spelling."""
    try:
        cfg = effective_config(*argv)
    except cli.ConfigError as exc:
        assert len(str(exc)) < 400
        return
    assert cfg.network in cli.NETWORKS and cfg.axes in cli.AXES_CHOICES
    assert 1 <= cfg.stages <= cli.MAX_STAGES and cfg.seed >= 0
    assert re.fullmatch("[01]{4}", cfg.initial_bits)
    for value in (cfg.epsilon, cfg.p):
        if value not in (None, cli.SYMBOLIC_P):
            assert 0 <= value <= 1 and math.copysign(1, value) == 1
    assert cfg.patterns in ("none", "exhaustive") or re.fullmatch("sampled:[1-9][0-9]*",
                                                                  cfg.patterns)
    if cfg.patterns == "none":
        assert cfg.count == 0
    else:
        assert cfg.count <= min(cli.MAX_SAMPLED_PATTERNS, cli.pattern_population(cfg.stages))
    echoed = json.loads(json.dumps(cfg.to_dict(argv[0])))
    assert set(echoed) == {key for key in READS[argv[0]]
                           if NETWORK_OF.get(key, cfg.network) == cfg.network
                           and (key != "p" or cfg.p is not None)}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "echo.cfg"
        config.write_text(config_file(echoed), encoding="utf-8")
        assert effective_config(argv[0], "--config", str(config)) == cfg


KEYS = ["network", "p", "epsilon", "initial_bits", "axes", "stages", "patterns", "seed"]
VALUES = {"network": "asymmetric", "p": "0.2", "epsilon": "0.5", "initial_bits": "1010",
          "axes": "xx-zz", "stages": "4", "patterns": "sampled:4", "seed": "3"}
#: where a command does not read the key, the one value it runs anyway
IMPLIED = {("sweep", "network"): "symmetric", ("staged", "network"): "staged",
           ("run", "patterns"): "none"}
#: flags a case needs beside the key: run takes --stages on the staged network only
CONTEXT = {("run", "stages"): ("--network", "staged")}


class TestCommandKeys:
    """Every (command, config key) pair: a key the command reads gives the same
    stdout from the flag and from the config file; any other key is exit 2
    naming it, from either, with nothing on stdout."""

    @pytest.mark.parametrize("command, key", [(c, k) for c in READS for k in KEYS])
    def test_flag_and_file_key(self, capsys, tmp_path, command, key):
        value = IMPLIED.get((command, key), VALUES[key])
        context = CONTEXT.get((command, key), ())
        flag = "--" + key.replace("_", "-")
        config = tmp_path / "key.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        by_flag = run_cli(capsys, command, *context, flag, value)
        by_file = run_cli(capsys, command, *context, "--config", str(config))
        if key in READS[command]:
            assert by_flag[0] == by_file[0] == EXIT_OK
            assert by_flag[1] == by_file[1] != ""
        else:
            assert by_flag[:2] == by_file[:2] == (EXIT_CONFIG, "")
            assert f"unrecognized arguments: {flag} {value}" in by_flag[2]
            assert f"{cli._shown(str(config))}:1: config key {key!r} does not apply to {command}" in by_file[2]


@pytest.mark.parametrize(
    "argv", [argv for argv in same_bytes.ARGVS if argv[0] in ("staged", "run")
             and argv not in same_bytes.ERRORS and "text" not in argv], ids=" ".join)
def test_report_config_replays_the_run(capsys, tmp_path, argv):
    """Each JSON report of the output digests' staged and run argvs: its
    ``config``, written as a config file, gives the same stdout bytes."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    config = tmp_path / "replay.cfg"
    config.write_text(config_file(json.loads(out)["config"]), encoding="utf-8")
    assert run_cli(capsys, argv[0], "--config", str(config)) == (EXIT_OK, out, "")


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# experiment configuration\n"
            "network = symmetric\n"
            "p = 0.5\n"
            "epsilon = 1.0\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_OK
        assert json.loads(out)["config"]["p"] == 0.5
        # explicit flag wins over the file value
        code, out, _ = run_cli(capsys, "run", "--config", str(config), "--p", "0.1")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"]["p"] == 0.1
        assert abs(report["slices"][-1]["witness"]["density"] - 1.6) < 1e-10

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("networ = symmetric\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        assert f"{cli._shown(str(config))}:1: config key 'networ' does not apply to run" in err

    def test_repeated_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "twice.cfg"
        config.write_text("p = 0.1\n# a comment\np = 0.3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        assert f"{cli._shown(str(config))}:3: config key 'p' is set again, first on line 1" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--config", str(tmp_path / "absent.cfg"))
        assert code == EXIT_CONFIG

    def test_byte_order_mark_is_read_past(self, capsys, tmp_path):
        """A file saved with a UTF-8 byte-order mark reads as the same file
        without it."""
        config = tmp_path / "run.cfg"
        config.write_bytes(b"epsilon = 0.5\n")
        plain = run_cli(capsys, "run", "--config", str(config))
        assert plain[0] == EXIT_OK
        config.write_bytes(b"\xef\xbb\xbfepsilon = 0.5\n")
        assert run_cli(capsys, "run", "--config", str(config)) == plain

    def test_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"epsilon = 0.5\xff\n")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        assert f"config error: cannot read config file {cli._shown(str(config))}: 'utf-8' codec" in err


class TestOutputFiles:
    """Two of --config, --out and --dump-state that name one file, however
    it is spelt, are a config error before the config is read or any file
    is written; distinct files are read and written as before."""

    CONFIG = b"epsilon = 0.5\n"

    @pytest.mark.parametrize("first, second, spelling", [
        ("--config", "--out", "symlink"),
        ("--config", "--dump-state", "same"),
        ("--out", "--dump-state", "dot"),
    ], ids=["config-out", "config-dump-state", "out-dump-state"])
    def test_one_file_named_twice_is_refused(self, capsys, tmp_path, first, second, spelling):
        path = tmp_path / "shared"
        if first == "--config":
            path.write_bytes(self.CONFIG)
        if spelling == "symlink":
            (tmp_path / "link").symlink_to(path)
        other = {"symlink": str(tmp_path / "link"), "same": str(path),
                 "dot": os.path.join(tmp_path, ".", "shared")}[spelling]
        before = {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()}
        code, out, err = run_cli(capsys, "run", first, str(path), second, other)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"medwit: config error: {first} and {second} name the same file, "
                       f"{cli._shown(str(path))}\n")
        assert {entry.name: entry.read_bytes() for entry in tmp_path.iterdir()} == before

    def test_distinct_files_are_read_and_written(self, capsys, tmp_path):
        config, report, state = (tmp_path / name for name in ("c.cfg", "report.json", "s.bin"))
        config.write_bytes(self.CONFIG)
        code, out, err = run_cli(capsys, "run", "--config", str(config), "--out", str(report),
                                 "--dump-state", str(state))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert json.loads(report.read_text(encoding="utf-8"))["config"]["epsilon"] == 0.5
        assert state.stat().st_size == 16 * 4 ** 4
        assert config.read_bytes() == self.CONFIG


class TestArgparseBehaviour:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("medwit ")

    @pytest.mark.parametrize(
        "argv",
        [("run", "--eps", "0.5"), ("staged", "--stag", "2"), ("sweep", "--p-g", "0.1"),
         ("table", "--net", "asymmetric")],
        ids=["run", "staged", "sweep", "table"],
    )
    def test_abbreviated_flag_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("table", "--network --p --seed --format"),
            ("sweep", "--epsilon --initial-bits --axes --seed --p-grid"),
            ("staged", "--epsilon --initial-bits --axes --stages --patterns --seed "
                       "--dump-state"),
            ("run", "--network --p --epsilon --initial-bits --axes --stages --seed --format "
                    "--dump-state"),
        ],
        ids=["table", "sweep", "staged", "run"],
    )
    def test_help_lists_exactly_the_command_flags(self, capsys, command, flags):
        assert main([command, "-h"]) == EXIT_OK
        # an option line starts with two spaces, its flags before the next two
        options = [line.split("  ")[1] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  -")]
        listed = {word.rstrip(",") for option in options for word in option.split()
                  if word.startswith("-")}
        assert listed == {"-h", "--help", "--config", "--out", *flags.split()}

    @pytest.mark.parametrize("command", ["staged", "run"])
    def test_timing_is_not_an_option(self, capsys, command):
        """Every report is a function of its config and seed, so no command
        takes a flag that adds a wall-clock field."""
        code, out, err = run_cli(capsys, command, "--timing")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.endswith("medwit: error: unrecognized arguments: --timing\n")


LINE = {"antiphase": None, "inphase": None}
MULTIPLET = {
    "engine": None,
    "classification": dict.fromkeys("ABCD"),
    **{spin: {partner: LINE for partner in "ABCD" if partner != spin} for spin in "ABCD"},
}
#: the config each report echoes at its command's defaults: the keys the
#: command reads that apply on the network, with no p, since none is given
CONFIG = {
    ("run", "symmetric"): dict.fromkeys(["axes", "epsilon", "initial_bits", "network", "seed"]),
    ("run", "staged"): dict.fromkeys(
        ["axes", "epsilon", "initial_bits", "network", "seed", "stages"]),
    ("staged", "staged"): dict.fromkeys(
        ["axes", "epsilon", "initial_bits", "patterns", "seed", "stages"]),
}
NEGATIVITY = {"engine": None, "value": None}
RUN_WITNESS = dict.fromkeys(["axes", "density", "heisenberg"])
STAGED_VARIANT = {
    "witness": dict.fromkeys(["axes", "engine", "value"]),
    "negativity_AD": NEGATIVITY,
    "multiplet": MULTIPLET,
}


def key_tree(value):
    """The keys of a JSON value at every level; leaves become None."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [key_tree(item) for item in value]
    return None


RUN_SLICE = {
    "time": None,
    "witness": RUN_WITNESS,
    "witness_alt": RUN_WITNESS,
    "negativity_AD": NEGATIVITY,
    "nonclassicality": {"engine": None, "B": None, "C": None},
}


class TestDeterminismAndSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ("run",),
            ("run", "--format", "text"),
            ("run", "--network", "staged", "--stages", "4", "--epsilon", "0.5"),
            ("table",),
            ("table", "--format", "json"),
            ("table", "--p", "symbolic", "--format", "json"),
        ],
    )
    def test_repeated_runs_give_identical_bytes(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first[0] == EXIT_OK
        assert first == second

    def test_sampled_average_does_not_depend_on_blas_threads(self, tmp_path):
        """The sampled average ends in one product over 1000 pattern columns,
        where a BLAS that splits work between threads could sum differently;
        stdout and the dumped state are the same bytes on one and two."""
        def staged(threads: str) -> tuple[bytes, bytes]:
            dump = tmp_path / f"state-{threads}.bin"
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-m", "medwit", "staged", "--stages", "24", "--patterns",
                 "sampled:1000", "--seed", "3", "--dump-state", str(dump)],
                env=env, capture_output=True, check=True,
            )
            return done.stdout, dump.read_bytes()

        assert staged("1") == staged("2")

    @pytest.mark.parametrize("network", ["symmetric", "staged"])
    def test_run_report_keys(self, capsys, network):
        stages = ["--stages", "2"] if network == "staged" else []
        code, out, _ = run_cli(capsys, "run", "--network", network, *stages)
        assert code == EXIT_OK
        report = json.loads(out)
        assert key_tree(report) == {
            "version": None,
            "command": None,
            "config": CONFIG["run", network],
            "slices": [RUN_SLICE] * len(report["slices"]),
            "multiplet": MULTIPLET,
            "notes": [None] * len(report["notes"]),
        }
        assert len(report["slices"]) == 4

    def test_staged_report_keys(self, capsys):
        code, out, _ = run_cli(capsys, "staged", "--stages", "4", "--patterns", "exhaustive")
        assert code == EXIT_OK
        assert key_tree(json.loads(out)) == {
            "version": None,
            "command": None,
            "config": CONFIG["staged", "staged"],
            "variants": {
                "undephased": STAGED_VARIANT,
                "sampled": {**STAGED_VARIANT, "pattern_count": None, "seed": None},
                "exhaustive": {**STAGED_VARIANT, "pattern_count": None},
            },
        }
