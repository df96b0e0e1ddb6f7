"""Tests for the shared experiment infrastructure."""

import math

import numpy as np
import pytest

from repro.defense.detector import CumulantDetector
from repro.experiments.common import (
    LEAD_IN_SAMPLES,
    build_observed_waveform,
    default_payload,
    packet_delivered,
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
    transmit_once,
)
from repro.experiments.defense_common import (
    chip_noise_variance_for,
    collect_statistics,
    defense_receiver,
    extract_chips,
    matched_filter_chip_noise_variance,
    mean_distance_squared,
)
from repro.hardware.usrp import gnuradio_simulation_receiver_config
from repro.utils.signal_ops import db_to_linear, normalize_power
from repro.zigbee.receiver import ZigBeeReceiver


class TestPreparedLinks:
    def test_lead_in_present(self, authentic_link):
        assert np.allclose(
            authentic_link.on_air.samples[:LEAD_IN_SAMPLES], 0.0
        )

    def test_authentic_has_no_emulation(self, authentic_link):
        assert authentic_link.emulation is None

    def test_emulated_carries_attack_internals(self, emulated_link):
        assert emulated_link.emulation is not None
        assert emulated_link.emulation.scale > 0

    def test_default_payload_stable(self):
        assert default_payload() == b"00042"

    def test_build_observed_uses_payload(self):
        sent = build_observed_waveform(b"custom")
        assert b"custom" in sent.ppdu


class TestTransmitOnce:
    def test_noiseless_delivery(self, authentic_link):
        packet = transmit_once(authentic_link, defense_receiver(), None)
        assert packet is not None
        assert packet_delivered(authentic_link, packet)

    def test_deep_noise_returns_none_or_undelivered(self, authentic_link):
        packet = transmit_once(authentic_link, defense_receiver(), -30.0, rng=0)
        assert packet is None or not packet_delivered(authentic_link, packet)

    def test_delivery_requires_exact_psdu(self, authentic_link, emulated_link):
        # A packet decoded from a different frame must not count.
        packet = transmit_once(emulated_link, defense_receiver(), None)
        assert packet_delivered(emulated_link, packet)
        assert packet_delivered(authentic_link, packet)  # same frame content


def _rows_handed_to_receiver(link, snr_db, seeds):
    """What ``transmit_batch`` hands a naive receiver's ``receive_batch``."""
    receiver = ZigBeeReceiver(gnuradio_simulation_receiver_config())
    receive_batch = receiver.receive_batch
    handed = []

    def record(samples, sample_rate_hz, known_start=None):
        handed.append((np.array(samples), sample_rate_hz))
        return receive_batch(samples, sample_rate_hz, known_start)

    receiver.receive_batch = record
    transmit_batch(
        link, receiver, snr_db, [np.random.default_rng(s) for s in seeds]
    )
    ((rows, sample_rate_hz),) = handed
    return rows, sample_rate_hz


class TestNaiveReceiverNoise:
    """A naive decimator keeps every 5th sample of the 20 Msps capture,
    so noise is drawn only there and the receiver gets 4 Msps rows."""

    SNR_DB = 7.0
    SEEDS = tuple(range(100, 164))

    @pytest.fixture(scope="class")
    def handed(self, emulated_link):
        return _rows_handed_to_receiver(emulated_link, self.SNR_DB, self.SEEDS)

    def test_rows_arrive_at_the_native_rate(self, emulated_link, handed):
        rows, sample_rate_hz = handed
        on_air = emulated_link.on_air
        assert on_air.sample_rate_hz == 20e6
        assert sample_rate_hz == 4e6
        assert rows.shape == (len(self.SEEDS), math.ceil(on_air.samples.size / 5))

    def test_noise_variance_is_the_snr(self, emulated_link, handed):
        rows, _ = handed
        clean = normalize_power(emulated_link.on_air.samples)[::5]
        noise = rows - clean
        expected = 1.0 / db_to_linear(self.SNR_DB)
        # |n|^2 of complex Gaussian noise is exponential: std = mean.
        tolerance = 5.0 * expected / math.sqrt(noise.size)
        assert abs(np.mean(np.abs(noise) ** 2) - expected) < tolerance

    @pytest.mark.parametrize("row", [0, 37, 63])
    def test_row_alone_equals_row_in_batch(self, emulated_link, handed, row):
        rows, _ = handed
        alone, _ = _rows_handed_to_receiver(
            emulated_link, self.SNR_DB, [self.SEEDS[row]]
        )
        assert np.array_equal(alone[0], rows[row])


class TestDefenseCommon:
    def test_extract_chips_sources(self, authentic_link):
        packet = transmit_once(authentic_link, defense_receiver(), None)
        quadrature = extract_chips(packet, "quadrature")
        matched = extract_chips(packet, "matched_filter")
        assert quadrature.size > 0 and matched.size > 0
        with pytest.raises(ValueError):
            extract_chips(packet, "esp")

    def test_chip_noise_conversion_value(self):
        # sps=2: pulse energy 2 -> chip noise = sigma^2 / 4.
        assert matched_filter_chip_noise_variance(0.4, 2) == pytest.approx(0.1)

    def test_chip_noise_none_for_quadrature(self, authentic_link):
        packet = transmit_once(authentic_link, defense_receiver(), 10.0, rng=1)
        assert chip_noise_variance_for(packet, "quadrature") is None
        assert chip_noise_variance_for(packet, "matched_filter") is not None

    def test_collect_statistics_counts(self, authentic_link):
        samples = collect_statistics(
            authentic_link, CumulantDetector(), 15.0, count=4, rng=2
        )
        assert 1 <= len(samples) <= 4
        assert all(s.distance_squared >= 0 for s in samples)
        assert mean_distance_squared(samples) >= 0

    def test_mean_of_empty_is_nan(self):
        assert np.isnan(mean_distance_squared([]))

    def test_noise_corrected_statistics_smaller(self, authentic_link):
        plain = collect_statistics(
            authentic_link, CumulantDetector(), 8.0, count=5, rng=3,
            chip_source="matched_filter", noise_corrected=False,
        )
        corrected = collect_statistics(
            authentic_link, CumulantDetector(), 8.0, count=5, rng=3,
            chip_source="matched_filter", noise_corrected=True,
        )
        assert mean_distance_squared(corrected) < mean_distance_squared(plain)
