"""Tests for the experiment CLI."""

import pytest

from repro.cli import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig14" in out

    def test_run_table3(self, capsys):
        assert main(["run", "table3", "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "QPSK" in out
        assert "finished" in out

    def test_run_table1_with_seed(self, capsys):
        assert main(["run", "table1", "--seed", "3"]) == 0
        assert "selected FFT bins" in capsys.readouterr().out

    def test_save_writes_csv_and_npz(self, tmp_path, capsys):
        directory = str(tmp_path / "results")
        assert main(["run", "table1", "--seed", "2", "--save", directory]) == 0
        csv_file = tmp_path / "results" / "table1.csv"
        npz_file = tmp_path / "results" / "table1.npz"
        assert csv_file.exists()
        assert npz_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("index,")
        import numpy as np

        data = np.load(npz_file)
        assert "selected_bins" in data

    def test_unknown_experiment_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "table42"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_json_flag_prints_machine_readable_rows(self, capsys):
        import json

        assert main(["run", "table3", "--trials", "2000", "--seed", "1",
                     "--json"]) == 0
        out = capsys.readouterr().out.strip()
        payload = json.loads(out)
        assert payload["experiment_id"] == "table3"
        assert "modulation" in payload["columns"]
        assert any(row["modulation"] == "QPSK" for row in payload["rows"])

    def test_save_writes_manifest(self, tmp_path, capsys):
        from repro.telemetry.manifest import read_manifest

        directory = str(tmp_path / "results")
        assert main(["run", "table1", "--seed", "5", "--save", directory]) == 0
        manifest = read_manifest(tmp_path / "results" / "table1.manifest.json")
        assert manifest["seed"] == 5
        assert manifest["config"]["experiment_id"] == "table1"
        assert "package_version" in manifest

    def test_telemetry_out_and_report_round_trip(self, tmp_path, capsys):
        import json

        out_file = str(tmp_path / "t.json")
        assert main(["run", "table1", "--seed", "2", "--telemetry",
                     "--telemetry-out", out_file,
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "t.json").read_text())
        assert "spans" in payload and "metrics" in payload
        assert payload["manifest"]["seed"] == 2
        names = [c["name"] for c in payload["spans"]["children"]]
        assert "experiment.table1" in names

        assert main(["report", out_file]) == 0
        rendered = capsys.readouterr().out
        assert "experiment.table1" in rendered
        assert "seed: 2" in rendered

    def test_telemetry_without_out_prints_summary(self, tmp_path, capsys):
        assert main(["run", "table1", "--seed", "1", "--telemetry",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "experiment.table1" in out
        assert "stage wall-clock" in out
        assert "[run directory:" in out

    def test_telemetry_disabled_after_run(self, tmp_path):
        from repro.telemetry import get_event_stream, get_telemetry

        assert main(["run", "table1", "--seed", "1", "--telemetry",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        assert not get_telemetry().enabled
        assert not get_event_stream().enabled


class TestFaultToleranceFlags:
    def test_resume_without_checkpoint_dir_is_an_error(self, capsys):
        assert main(["run", "table1", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_workers_rejects_non_integer_strings(self):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--workers", "many"])

    def test_workers_auto_accepted(self, capsys):
        import json

        assert main(["run", "table2", "--trials", "2", "--seed", "1",
                     "--workers", "auto", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["experiment_id"] == "table2"

    def test_on_error_flag_is_rejected(self, capsys):
        # A raising trial always fails the run; there is no policy flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table2", "--trials", "2", "--on-error", "skip"])
        assert excinfo.value.code == 2
        assert "--on-error" in capsys.readouterr().err

    def test_checkpoint_then_resume_round_trip(self, tmp_path, capsys):
        import json

        directory = str(tmp_path / "ckpt")
        base = ["run", "table2", "--trials", "2", "--seed", "4", "--json",
                "--checkpoint-dir", directory]
        assert main(base) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert main(base + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out.strip())
        assert resumed["rows"] == first["rows"]
        assert (tmp_path / "ckpt" / "table2" / "meta.json").exists()


class TestConfigurationErrors:
    """A bad engine knob or budget is a usage error: exit 2, one line."""

    @pytest.mark.parametrize("flags", [
        ["--chunk-size", "0"],
        ["--workers", "0"],
        ["--adaptive", "--rel-precision", "-1"],
        ["--trials", "0"],
        ["--trials", "-3"],
    ], ids=["chunk-size-0", "workers-0", "rel-precision-neg", "trials-0",
            "trials-neg"])
    def test_exits_2_with_one_error_line(self, flags, tmp_path, capsys):
        argv = ["run", "table2", "--trials", "2", "--seed", "1"]
        argv = argv + flags + ["--telemetry", "--runs-dir",
                               str(tmp_path / "runs")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if line.startswith("error:")]
        assert "Traceback" not in err
        from repro.telemetry import RunRegistry

        (run,) = RunRegistry(str(tmp_path / "runs")).list()
        assert run.read_manifest()["status"] == "error"

    @pytest.mark.parametrize("experiment", ["fig13", "fig14"])
    def test_zero_trials_is_rejected_before_any_trial(
        self, experiment, capsys
    ):
        assert main(["run", experiment, "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "budget" in captured.err
        assert captured.out == ""


class TestLintSubcommand:
    def test_lint_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R006" in out
