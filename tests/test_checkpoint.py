"""Checkpointing: atomic JSON, the point store, and driver resume."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrialExecutionError
from repro.experiments import engine as engine_module
from repro.experiments import table2_attack_awgn, table4_de2_snr
from repro.experiments.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    open_checkpoint_store,
)
from repro.experiments.engine import FAULT_EVERY_ENV
from repro.telemetry import get_telemetry
from repro.utils.io import atomic_write_json, read_json


class TestAtomicJson:
    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "doc.json"
        payload = {"a": 0.1, "b": 1.0 / 3.0, "c": 1e-300, "nan": float("nan")}
        atomic_write_json(path, payload)
        loaded = read_json(path)
        assert loaded["a"] == payload["a"]
        assert loaded["b"] == payload["b"]
        assert loaded["c"] == payload["c"]
        assert math.isnan(loaded["nan"])

    def test_overwrite_leaves_no_staging_file(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert read_json(path) == {"v": 2}
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_preserves_existing_document(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": {1, 2}})  # sets are not JSON
        assert read_json(path) == {"v": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_read_missing_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_json(tmp_path / "absent.json")


class TestCheckpointStore:
    def test_save_completed_get_cycle(self, tmp_path):
        fingerprint = {"seed": 1, "trials": 10}
        store = CheckpointStore(tmp_path, "table2", fingerprint=fingerprint)
        assert not store.completed("snr7")
        store.save("snr7", {"snr_db": 7, "rate": 0.5})
        assert store.completed("snr7")
        # A fresh (non-resume) store never serves from disk.
        assert store.get("snr7") is None

        resumed = CheckpointStore(
            tmp_path, "table2", fingerprint=fingerprint, resume=True
        )
        assert resumed.get("snr7") == {"snr_db": 7, "rate": 0.5}
        assert resumed.get("snr9") is None
        assert resumed.resumed_keys == ["snr7"]

    def test_fingerprint_mismatch_rejected_on_resume(self, tmp_path):
        CheckpointStore(tmp_path, "table2", fingerprint={"seed": 1})
        with pytest.raises(ConfigurationError):
            CheckpointStore(
                tmp_path, "table2", fingerprint={"seed": 2}, resume=True
            )

    def test_fresh_open_invalidates_stale_points(self, tmp_path):
        first = CheckpointStore(tmp_path, "table2", fingerprint={"seed": 1})
        first.save("snr7", {"rate": 0.5})
        # Re-opening without resume (e.g. different parameters) must not
        # let a later resume serve the stale point.
        second = CheckpointStore(tmp_path, "table2", fingerprint={"seed": 2})
        assert not second.completed("snr7")

    def test_keys_with_awkward_characters(self, tmp_path):
        store = CheckpointStore(tmp_path, "fig14", fingerprint={}, resume=False)
        key = "d1.5/usrp original"
        store.save(key, [1, 2])
        assert store.completed(key)
        resumed = CheckpointStore(tmp_path, "fig14", fingerprint={}, resume=True)
        assert resumed.get(key) == [1, 2]

    def test_resume_hits_count_on_telemetry(self, tmp_path):
        store = CheckpointStore(tmp_path, "table2", fingerprint={})
        store.save("snr7", {"rate": 1.0})
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            resumed = CheckpointStore(
                tmp_path, "table2", fingerprint={}, resume=True
            )
            resumed.get("snr7")
            resumed.get("snr9")  # miss: must not count
            counters = telemetry.registry.counters
            assert counters["engine.points_resumed"].value == 1
        finally:
            telemetry.disable()
            telemetry.reset()

    def test_open_helper_disabled_and_resume_guard(self, tmp_path):
        assert open_checkpoint_store(None, "table2") is None
        with pytest.raises(ConfigurationError):
            open_checkpoint_store(None, "table2", resume=True)
        store = open_checkpoint_store(tmp_path, "table2", fingerprint={})
        assert isinstance(store, CheckpointStore)

    def test_slug_collision_on_save_raises(self, tmp_path):
        # Regression: "snr=1" and "snr:1" both slug to point_snr_1.json;
        # the second save used to silently overwrite the first point.
        store = CheckpointStore(tmp_path, "table2", fingerprint={})
        store.save("snr=1", {"rate": 0.25})
        with pytest.raises(ConfigurationError, match="collision"):
            store.save("snr:1", {"rate": 0.75})
        # The original point must be untouched.
        resumed = CheckpointStore(tmp_path, "table2", fingerprint={},
                                  resume=True)
        assert resumed.get("snr=1") == {"rate": 0.25}

    def test_slug_collision_on_get_and_completed_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, "table2", fingerprint={})
        store.save("snr=1", {"rate": 0.25})
        resumed = CheckpointStore(tmp_path, "table2", fingerprint={},
                                  resume=True)
        with pytest.raises(ConfigurationError, match="collision"):
            resumed.completed("snr:1")
        with pytest.raises(ConfigurationError, match="collision"):
            resumed.get("snr:1")
        assert resumed.resumed_keys == []

    def test_same_key_resave_is_allowed(self, tmp_path):
        store = CheckpointStore(tmp_path, "table2", fingerprint={})
        store.save("snr7", {"rate": 0.5})
        store.save("snr7", {"rate": 0.6})
        resumed = CheckpointStore(tmp_path, "table2", fingerprint={},
                                  resume=True)
        assert resumed.get("snr7") == {"rate": 0.6}

    def test_meta_records_format_version(self, tmp_path):
        CheckpointStore(tmp_path, "table2", fingerprint={"seed": 1})
        meta = json.loads((tmp_path / "table2" / "meta.json").read_text())
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION == 2
        assert meta["experiment_id"] == "table2"

    def test_resume_against_another_format_version_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, "table4", fingerprint={"seed": 1})
        store.save("snr7.zigbee", [0.1, 0.2])
        meta_path = tmp_path / "table4" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="format version"):
            CheckpointStore(tmp_path, "table4", fingerprint={"seed": 1},
                            resume=True)


class TestDriverResume:
    PARAMS = {"snrs_db": (15, 17), "trials": 3, "include_authentic": False}

    def test_table2_checkpoint_then_resume_bit_identical(self, tmp_path):
        fresh = table2_attack_awgn.run(rng=1, **self.PARAMS)
        first = table2_attack_awgn.run(
            rng=1, checkpoint_dir=str(tmp_path), **self.PARAMS
        )
        assert first.rows == fresh.rows
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            resumed = table2_attack_awgn.run(
                rng=1, checkpoint_dir=str(tmp_path), resume=True, **self.PARAMS
            )
            counters = telemetry.registry.counters
            assert counters["engine.points_resumed"].value == 2
        finally:
            telemetry.disable()
            telemetry.reset()
        assert resumed.rows == fresh.rows

    def test_resume_with_different_seed_rejected(self, tmp_path):
        table2_attack_awgn.run(rng=1, checkpoint_dir=str(tmp_path), **self.PARAMS)
        with pytest.raises(ConfigurationError):
            table2_attack_awgn.run(
                rng=2, checkpoint_dir=str(tmp_path), resume=True, **self.PARAMS
            )

    def test_numpy_integer_seed_keys_the_checkpoint(self, tmp_path):
        table2_attack_awgn.run(
            rng=np.int64(3), checkpoint_dir=str(tmp_path), **self.PARAMS
        )
        with pytest.raises(ConfigurationError):
            table2_attack_awgn.run(
                rng=np.int64(4), checkpoint_dir=str(tmp_path), resume=True,
                **self.PARAMS
            )
        resumed = table2_attack_awgn.run(
            rng=np.int64(3), checkpoint_dir=str(tmp_path), resume=True,
            **self.PARAMS
        )
        assert resumed.rows == table2_attack_awgn.run(rng=3, **self.PARAMS).rows

    @pytest.mark.parametrize("make_rng", [
        lambda: None, lambda: np.random.default_rng(3),
    ], ids=["none", "generator"])
    def test_resume_without_an_integer_seed_rejected(self, tmp_path, make_rng):
        # Both runs record no seed, so their fingerprints would match
        # although their trials differ.
        table2_attack_awgn.run(
            rng=make_rng(), checkpoint_dir=str(tmp_path), **self.PARAMS
        )
        with pytest.raises(ConfigurationError, match="integer seed"):
            table2_attack_awgn.run(
                rng=make_rng(), checkpoint_dir=str(tmp_path), resume=True,
                **self.PARAMS
            )

    def test_killed_sweep_resumes_to_the_fresh_rows(self, tmp_path, monkeypatch):
        # Simulate a run killed between sweep points: at seed 3 the
        # fault drill with N=5 leaves the first SNR point checkpointed
        # and aborts (on_error="raise") inside the second.
        monkeypatch.setenv(FAULT_EVERY_ENV, "5")
        engine_module._FAULTED_SEEDS.clear()
        with pytest.raises(TrialExecutionError):
            table2_attack_awgn.run(
                rng=3, checkpoint_dir=str(tmp_path), **self.PARAMS
            )
        assert (tmp_path / "table2" / "point_snr15.json").exists()
        assert not (tmp_path / "table2" / "point_snr17.json").exists()

        monkeypatch.delenv(FAULT_EVERY_ENV)
        engine_module._FAULTED_SEEDS.clear()
        fresh = table2_attack_awgn.run(rng=3, **self.PARAMS)
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            resumed = table2_attack_awgn.run(
                rng=3, checkpoint_dir=str(tmp_path), resume=True, **self.PARAMS
            )
            counters = telemetry.registry.counters
            assert counters["engine.points_resumed"].value == 1
        finally:
            telemetry.disable()
            telemetry.reset()
        assert resumed.rows == fresh.rows

    def test_killed_stream_unit_sweep_resumes_to_the_fresh_rows(
        self, tmp_path, monkeypatch
    ):
        # table4 checkpoints each (SNR, class) stream.  At seed 4 the
        # fault drill with N=7 aborts (on_error="raise") inside the last
        # stream, after the first three were saved.
        params = {"snrs_db": (7, 17), "waveforms_per_point": 3}
        monkeypatch.setenv(FAULT_EVERY_ENV, "7")
        engine_module._FAULTED_SEEDS.clear()
        with pytest.raises(TrialExecutionError):
            table4_de2_snr.run(
                rng=4, checkpoint_dir=str(tmp_path), on_error="raise",
                **params
            )
        saved = sorted(p.name for p in (tmp_path / "table4").glob("point_*"))
        assert saved == [
            "point_snr17.zigbee.json", "point_snr7.emulated.json",
            "point_snr7.zigbee.json",
        ]

        monkeypatch.delenv(FAULT_EVERY_ENV)
        engine_module._FAULTED_SEEDS.clear()
        fresh = table4_de2_snr.run(rng=4, **params)
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            resumed = table4_de2_snr.run(
                rng=4, checkpoint_dir=str(tmp_path), resume=True, **params
            )
            counters = telemetry.registry.counters
            assert counters["engine.points_resumed"].value == len(saved)
        finally:
            telemetry.disable()
            telemetry.reset()
        assert resumed.rows == fresh.rows

    def test_faulted_retry_run_matches_unfaulted_rows(self, tmp_path, monkeypatch):
        fresh = table2_attack_awgn.run(rng=3, **self.PARAMS)
        monkeypatch.setenv(FAULT_EVERY_ENV, "5")
        engine_module._FAULTED_SEEDS.clear()
        faulted = table2_attack_awgn.run(rng=3, on_error="retry", **self.PARAMS)
        assert faulted.rows == fresh.rows
