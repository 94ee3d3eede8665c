"""CLI tests: commands, exit codes, determinism, config-file precedence."""

import json
import math
import os
import subprocess
import sys

import pytest

import table_data
from medwit import cli
from medwit.circuits import build_staged, sample_patterns
from medwit.cli import EXIT_CONFIG, EXIT_OK, _parse_grid, main
from medwit.density import exhaustive_average, pseudo_pure, run_network_density, temporal_average
from medwit.detect import antiphase_amplitudes
from medwit.pauli import BasisState
from test_tables import split_cells
from test_tooling import ROOT, _load

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
    def test_report_structure_and_seed_echo(self, capsys):
        code, out, _ = run_cli(
            capsys, "staged", "--stages", "4", "--patterns", "sampled:6", "--seed", "11"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"]["seed"] == 11
        assert report["config"]["network"] == "staged"
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
                4, sample_patterns(4, cli.PREVIEW_PATTERNS, seed=0), initial
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

    def test_timing_is_opt_in(self, capsys):
        code, out, _ = run_cli(capsys, "staged", "--stages", "2")
        assert "timing_seconds" not in json.loads(out)
        code, out, _ = run_cli(capsys, "staged", "--stages", "2", "--timing")
        assert "timing_seconds" in json.loads(out)

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
        assert report["engines"] == {"heisenberg": True, "density": True}
        final = report["slices"][-1]
        assert abs(final["witness"]["heisenberg"] - final["witness"]["density"]) < 1e-10
        assert abs(final["witness"]["heisenberg"] - 2 * (1 - 2 * 0.2)) < 1e-10
        assert final["nonclassicality"]["engine"] == "heisenberg"

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
        assert report["engines"] == {"heisenberg": True, "density": True}
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

    def test_timing_with_text_format_rejected(self, capsys):
        code, out, err = run_cli(capsys, "run", "--format", "text", "--timing")
        assert code == EXIT_CONFIG
        assert "--timing" in err and "--format text" in err
        assert out == ""

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


#: the config keys each command reads, written out here so that the test
#: checks ``cli.COMMAND_KEYS`` instead of reading it
READS = {
    "table": ["network", "p", "seed"],
    "sweep": ["epsilon", "initial_bits", "axes", "seed"],
    "staged": ["epsilon", "initial_bits", "axes", "stages", "patterns", "seed"],
    "run": ["network", "p", "epsilon", "initial_bits", "axes", "stages", "seed"],
}
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
            assert f"{config}:1: config key {key!r} does not apply to {command}" in by_file[2]


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
        assert f"{config}:1: config key 'networ' does not apply to run" in err

    def test_repeated_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "twice.cfg"
        config.write_text("p = 0.1\n# a comment\np = 0.3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        assert f"{config}:3: config key 'p' is set again, first on line 1" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--config", str(tmp_path / "absent.cfg"))
        assert code == EXIT_CONFIG

    def test_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"epsilon = 0.5\xff\n")
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG and out == ""
        assert f"config error: cannot read config file {config}: 'utf-8' codec" in err


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
                       "--dump-state --timing"),
            ("run", "--network --p --epsilon --initial-bits --axes --stages --seed --format "
                    "--dump-state --timing"),
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


LINE = {"antiphase": None, "inphase": None}
MULTIPLET = {
    "engine": None,
    "classification": dict.fromkeys("ABCD"),
    **{spin: {partner: LINE for partner in "ABCD" if partner != spin} for spin in "ABCD"},
}
CONFIG = dict.fromkeys(
    ["axes", "epsilon", "initial_bits", "network", "p", "patterns", "seed", "stages"]
)
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
        assert report["engines"] == {"heisenberg": True, "density": True}
        assert key_tree(report) == {
            "version": None,
            "command": None,
            "config": CONFIG,
            "engines": {"density": None, "heisenberg": None},
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
            "config": CONFIG,
            "variants": {
                "undephased": STAGED_VARIANT,
                "sampled": {**STAGED_VARIANT, "pattern_count": None, "seed": None},
                "exhaustive": {**STAGED_VARIANT, "pattern_count": None},
            },
        }
