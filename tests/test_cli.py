"""CLI tests: commands, exit codes, determinism, config-file precedence."""

import json
import math

import numpy as np
import pytest

import table_data
from medwit.cli import EXIT_CONFIG, EXIT_ENGINE, EXIT_OK, main
from test_tables import split_cells


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

    def test_staged_network_is_an_engine_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--network", "staged")
        assert code == EXIT_ENGINE
        assert "density engine" in err

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

    def test_staged_network_runs_density_only(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--network", "staged", "--stages", "4")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["engines"]["heisenberg"] is False
        assert report["slices"][-1]["witness"]["heisenberg"] is None
        assert abs(abs(report["slices"][-1]["witness"]["density"]) - 2.0) < 1e-10

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("medwit run")

    def test_patterns_are_rejected_from_flag_and_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--network", "staged", "--patterns", "sampled:4")
        assert code == EXIT_CONFIG
        assert "--patterns" in err
        config = tmp_path / "run.cfg"
        config.write_text("network = staged\npatterns = exhaustive\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "--patterns" in err


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
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == EXIT_CONFIG
        assert "unknown config key" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--config", str(tmp_path / "absent.cfg"))
        assert code == EXIT_CONFIG


class TestArgparseBehaviour:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("medwit ")
