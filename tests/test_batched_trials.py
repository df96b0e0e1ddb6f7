"""The engine's batched calling convention, bit for bit.

A trial declared with ``batch_trial`` receives one RNG per row and
returns one row per RNG; its rows must not depend on how the engine
chunks them or on the worker count.  These tests pin that contract at
three levels: toy engine trials against a plain-calling-convention
trial, the vectorized receive/detect kernels, and the full
table2/table4/fig14 experiment drivers.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig14_error_rates,
    table2_attack_awgn,
    table4_de2_snr,
)
from repro.experiments.engine import MonteCarloEngine, batch_trial
from repro.telemetry import get_telemetry


def _scalar_draw(context, args, rng):
    (scale,) = args
    return float(rng.normal()) * scale, int(rng.integers(0, 1000))


@batch_trial
def _batched_draw(context, args, rngs):
    (scale,) = args
    return [
        (float(rng.normal()) * scale, int(rng.integers(0, 1000)))
        for rng in rngs
    ]


@batch_trial
def _wrong_row_count(context, args, rngs):
    return [0.0] * (len(rngs) + 1)


def _run(trial, workers=1, chunk_size=None, count=17):
    engine = MonteCarloEngine(workers=workers, chunk_size=chunk_size)
    with engine.session({}) as session:
        return session.run(trial, count, rng=42, static_args=(2.5,))


class TestEngineBatchedPath:
    def test_batched_matches_scalar_serial(self):
        assert _run(_batched_draw) == _run(_scalar_draw)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 3, 50])
    def test_batched_matches_scalar_across_workers_and_chunks(
        self, workers, chunk_size
    ):
        reference = _run(_scalar_draw)
        assert _run(_batched_draw, workers, chunk_size) == reference

    def test_batched_counts_batched_trials(self):
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            _run(_batched_draw, count=8)
            counters = telemetry.registry.snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert counters["engine.batched_trials"] == 8.0
        assert counters["engine.trials"] == 8.0

    def test_wrong_row_count_is_a_configuration_error(self):
        from repro.errors import TrialExecutionError

        with pytest.raises(TrialExecutionError) as excinfo:
            _run(_wrong_row_count, count=4)
        assert excinfo.value.failure.exception_type == "ConfigurationError"


class TestKernelEquivalence:
    def test_receive_batch_matches_scalar(self):
        from repro.channel.awgn import add_awgn
        from repro.experiments.common import prepare_emulated
        from repro.zigbee.receiver import ZigBeeReceiver

        prepared = prepare_emulated(rng=3)
        receiver = ZigBeeReceiver()
        rng = np.random.default_rng(11)
        stacked = np.stack([
            add_awgn(prepared.on_air.samples, 12.0, rng=rng)
            for _ in range(6)
        ])
        packets = receiver.receive_batch(
            stacked, prepared.on_air.sample_rate_hz
        )
        for row, packet in zip(stacked, packets):
            try:
                scalar = receiver.receive(prepared.on_air.with_samples(row))
            except Exception:
                assert packet is None
                continue
            assert packet is not None
            assert packet.psdu == scalar.psdu
            assert packet.fcs_ok == scalar.fcs_ok
            assert np.array_equal(
                packet.diagnostics.soft_chips,
                scalar.diagnostics.soft_chips,
            )
            assert np.array_equal(
                packet.diagnostics.quadrature_soft_chips,
                scalar.diagnostics.quadrature_soft_chips,
            )
            assert np.array_equal(
                packet.diagnostics.symbol_array,
                scalar.diagnostics.symbol_array,
            )
            assert packet.diagnostics.noise_variance == \
                scalar.diagnostics.noise_variance

    def test_detector_statistic_batch_matches_scalar(self):
        from repro.defense.detector import CumulantDetector

        rng = np.random.default_rng(5)
        rows = [
            np.tile([1.0, -1.0], n // 2) + 0.3 * rng.standard_normal(n)
            for n in (128, 256, 128, 512)
        ]
        variances = [None, 0.01, 0.002, None]
        detector = CumulantDetector()
        batched = detector.statistic_batch(rows, variances)
        for row, variance, result in zip(rows, variances, batched):
            scalar = detector.statistic(row, chip_noise_variance=variance)
            assert result.hypothesis == scalar.hypothesis
            assert result.distance_squared == scalar.distance_squared
            assert result.cumulants == scalar.cumulants

    def test_ofdm_batch_fft_matches_scalar(self):
        from repro.wifi.ofdm import (
            ofdm_demodulate_symbol,
            ofdm_demodulate_symbols,
        )

        rng = np.random.default_rng(9)
        wave = rng.standard_normal(5 * 80) + 1j * rng.standard_normal(5 * 80)
        batched = ofdm_demodulate_symbols(wave)
        for i in range(5):
            scalar = ofdm_demodulate_symbol(wave[i * 80:(i + 1) * 80])
            assert np.array_equal(batched[i], scalar)


class TestExperimentBitIdentity:
    """Driver rows are identical serial and parallel, at any chunking."""

    def test_table2_rows_identical(self):
        kwargs = {"snrs_db": (7, 17), "trials": 6, "rng": 5}
        serial = table2_attack_awgn.run(**kwargs)
        for workers, chunk in ((2, 2), (2, 4)):
            parallel = table2_attack_awgn.run(
                workers=workers, chunk_size=chunk, **kwargs
            )
            assert parallel.rows == serial.rows

    def test_table4_rows_identical(self):
        kwargs = {"snrs_db": (7,), "waveforms_per_point": 6, "rng": 2}
        serial = table4_de2_snr.run(**kwargs)
        parallel = table4_de2_snr.run(workers=2, chunk_size=2, **kwargs)
        assert parallel.rows == serial.rows

    def test_fig14_rows_identical(self):
        kwargs = {"distances_m": (3,), "trials": 4, "rng": 8}
        serial = fig14_error_rates.run(**kwargs)
        parallel = fig14_error_rates.run(workers=2, chunk_size=2, **kwargs)
        assert parallel.rows == serial.rows
