"""Tests for the declarative sweep layer (``repro.experiments.sweep``).

Three contracts are pinned here:

* **Parity** — every migrated driver reproduces its committed oracle
  rows bit-identically, fixed and adaptive, serial and parallel; the
  table2 driver additionally matches the committed
  ``benchmarks/baselines/table2-trials20-seed1`` run directory.
* **Scenarios** — a scenario JSON file round-trips through
  ``load_scenario``/``apply_scenario`` into ``run_sweep`` and through
  the CLI, with the manifest recording the applied overrides, and
  malformed files failing with exit code 2 before any trial runs.
* **Capabilities** — the CLI builds runner kwargs from each entry's
  declared capabilities, rejects undeclared flags for a named
  experiment, and records exactly one run directory for ``run all``.
"""

import json
import math
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import (
    fig12_defense,
    fig13_rssi,
    fig14_error_rates,
    table2_attack_awgn,
    table4_de2_snr,
    table5_de2_distance,
)
from repro.experiments.registry import (
    CAPABILITIES,
    experiment_ids,
    get_experiment,
)
from repro.experiments.sweep import apply_scenario, load_scenario, run_sweep

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines", "sweep-oracles")
BASELINE_RUN = os.path.join(
    REPO_ROOT, "benchmarks", "baselines", "table2-trials20-seed1"
)

DRIVERS = {
    "table2": table2_attack_awgn,
    "table4": table4_de2_snr,
    "table5": table5_de2_distance,
    "fig12": fig12_defense,
    "fig13": fig13_rssi,
    "fig14": fig14_error_rates,
}


def load_oracle(experiment_id, mode):
    """One committed oracle document (config, columns, rows)."""
    path = os.path.join(ORACLE_DIR, f"{experiment_id}-{mode}.json")
    with open(path) as handle:
        return json.load(handle)


def result_cells(result, columns):
    """Result rows as lists in oracle column order, NaN as 'NaN'."""
    cells = []
    for row in result.rows:
        cells.append([
            "NaN" if isinstance(row[c], float) and math.isnan(row[c])
            else row[c]
            for c in columns
        ])
    return cells


def run_from_oracle(experiment_id, oracle, **extra):
    """Re-run the driver with the oracle's pinned config."""
    kwargs = {
        key: (tuple(value) if isinstance(value, list) else value)
        for key, value in oracle["config"].items()
    }
    return DRIVERS[experiment_id].run(**kwargs, **extra)


class TestOracleParity:
    """Every driver's rows are bit-identical to the committed oracles."""

    @pytest.mark.parametrize("experiment_id", sorted(DRIVERS))
    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_serial_rows_match_oracle(self, experiment_id, mode):
        oracle = load_oracle(experiment_id, mode)
        extra = {"adaptive": True} if mode == "adaptive" else {}
        result = run_from_oracle(experiment_id, oracle, **extra)
        assert result.columns == oracle["columns"]
        assert result_cells(result, oracle["columns"]) == oracle["rows"]

    @pytest.mark.parametrize("experiment_id", ["table2", "table4"])
    def test_parallel_rows_match_oracle(self, experiment_id):
        oracle = load_oracle(experiment_id, "fixed")
        result = run_from_oracle(experiment_id, oracle, workers=2)
        assert result_cells(result, oracle["columns"]) == oracle["rows"]

    def test_table2_matches_committed_run_directory(self):
        with open(os.path.join(BASELINE_RUN, "rows", "table2.json")) as handle:
            baseline = json.load(handle)
        result = table2_attack_awgn.run(trials=20, rng=1)
        assert result.columns == baseline["columns"]
        assert result_cells(result, baseline["columns"]) == baseline["rows"]


SCENARIO = {
    "experiment": "table2",
    "description": "rayleigh grid",
    "overrides": {
        "snrs_db": [9, 15],
        "trials": 4,
        "include_authentic": False,
        "screen_defense": False,
    },
    "channel": {"profile": "rayleigh", "max_cfo_hz": 0.0,
                "random_phase": False},
}


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestScenarioRoundTrip:
    def test_scenario_to_spec_to_rows(self, scenario_path):
        scenario = load_scenario(scenario_path)
        overrides = apply_scenario(table2_attack_awgn.SPEC, scenario)
        assert overrides["snrs_db"] == [9, 15]
        assert overrides["channel"]["profile"] == "rayleigh"
        result = run_sweep(table2_attack_awgn.SPEC, overrides=overrides, rng=3)
        assert [row["snr_db"] for row in result.rows] == [9, 15]
        assert result.columns == ["snr_db", "success_rate",
                                  "paper_success_rate"]

    def test_scenario_changes_the_channel(self, scenario_path):
        # A lower grid than the fixture's: at 9+ dB both channels
        # saturate at success 1.0 and the rows cannot differ.
        scenario = load_scenario(scenario_path)
        scenario["overrides"].update(snrs_db=[5, 7], trials=8)
        overrides = apply_scenario(table2_attack_awgn.SPEC, scenario)
        faded = run_sweep(table2_attack_awgn.SPEC, overrides=overrides, rng=3)
        awgn = run_sweep(
            table2_attack_awgn.SPEC,
            overrides={k: v for k, v in overrides.items() if k != "channel"},
            rng=3,
        )
        assert faded.rows != awgn.rows

    def test_cli_scenario_records_overrides_in_manifest(
        self, scenario_path, tmp_path, capsys
    ):
        save_dir = str(tmp_path / "out")
        assert main(["run", "--scenario", scenario_path, "--seed", "3",
                     "--save", save_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["experiment_id"] == "table2"
        with open(os.path.join(save_dir, "table2.manifest.json")) as handle:
            manifest = json.load(handle)
        recorded = manifest["config"]["scenario"]
        assert recorded["snrs_db"] == [9, 15]
        assert recorded["channel"]["profile"] == "rayleigh"

    def test_cli_scenario_matches_direct_run_sweep(
        self, scenario_path, capsys
    ):
        assert main(["run", "--scenario", scenario_path, "--seed", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        scenario = load_scenario(scenario_path)
        overrides = apply_scenario(table2_attack_awgn.SPEC, scenario)
        direct = run_sweep(table2_attack_awgn.SPEC, overrides=overrides, rng=3)
        assert payload["rows"] == direct.rows

    def test_scenario_checkpoint_resume_and_adaptive(
        self, scenario_path, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        base = ["run", "--scenario", scenario_path, "--seed", "3",
                "--adaptive", "--checkpoint-dir", ckpt, "--json"]
        assert main(base) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert main(base + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out.strip())
        assert resumed["rows"] == first["rows"]
        assert all("trials_used" in row for row in first["rows"])

    def test_cli_trials_overrides_the_scenario_axis(
        self, scenario_path, capsys
    ):
        assert main(["run", "--scenario", scenario_path, "--seed", "3",
                     "--trials", "6", "--adaptive", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert all(row["trials_used"] >= 6 for row in payload["rows"])


class TestScenarioValidation:
    def cli_error(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "malformed scenario JSON" in err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "table2", "bogus": 1}))
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "unknown scenario keys" in err

    def test_missing_experiment_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"overrides": {"trials": 2}}))
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "experiment" in err

    def test_unknown_experiment_in_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "table42"}))
        code, err = self.cli_error(capsys, "run", "--scenario", str(path))
        assert code == 2 and "unknown experiment" in err

    def test_experiment_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"experiment": "table2"}))
        code, err = self.cli_error(
            capsys, "run", "table4", "--scenario", str(path)
        )
        assert code == 2 and "table4" in err

    def test_unsupported_axis_override_is_rejected(self):
        with pytest.raises(ConfigurationError, match="not supported"):
            apply_scenario(
                table2_attack_awgn.SPEC,
                {"experiment": "table2", "overrides": {"bogus_axis": 1}},
            )

    def test_unsupported_channel_profile_is_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_scenario(
                table2_attack_awgn.SPEC,
                {"experiment": "table2",
                 "channel": {"profile": "underwater"}},
            )

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, err = self.cli_error(
            capsys, "run", "--scenario", str(tmp_path / "nope.json")
        )
        assert code == 2 and "cannot read scenario file" in err

    def test_run_without_experiment_or_scenario_exits_2(self, capsys):
        code, err = self.cli_error(capsys, "run")
        assert code == 2 and "--scenario" in err


class TestCapabilityMetadata:
    def test_every_entry_declares_valid_capabilities(self):
        for experiment_id in experiment_ids():
            entry = get_experiment(experiment_id)
            assert entry.capabilities <= CAPABILITIES
            if "scenario" in entry.capabilities:
                assert entry.spec is not None
                assert entry.spec.experiment_id == experiment_id

    def test_sweep_drivers_expose_their_specs(self):
        for experiment_id, module in DRIVERS.items():
            entry = get_experiment(experiment_id)
            assert entry.spec is module.SPEC

    def test_undeclared_flag_exits_2_naming_capabilities(self, capsys):
        assert main(["run", "fig5", "--adaptive"]) == 2
        err = capsys.readouterr().err
        assert "--adaptive" in err and "declared capabilities" in err

    def test_undeclared_scenario_flag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"experiment": "fig5"}))
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "--scenario" in err

    def test_trials_flag_maps_to_declared_parameter(self, capsys):
        assert main(["run", "table3", "--trials", "2000", "--seed", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["experiment_id"] == "table3"

    def test_unknown_experiment_still_raises(self):
        with pytest.raises(ConfigurationError):
            main(["run", "table42"])


class TestRunAllRecordsOneRunDirectory:
    def test_run_all_uses_a_single_run_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module, "experiment_ids", lambda: ["table1", "table3"]
        )
        runs_dir = str(tmp_path / "runs")
        assert main(["run", "all", "--seed", "1", "--telemetry",
                     "--runs-dir", runs_dir]) == 0
        capsys.readouterr()
        from repro.telemetry import RunRegistry

        runs = RunRegistry(runs_dir).list()
        assert len(runs) == 1
        manifest = runs[0].read_manifest()
        assert manifest["experiments"] == ["table1", "table3"]
        assert manifest["status"] == "ok"
