"""Tests for the full emulation pipeline — the paper's core claims."""

import numpy as np
import pytest

from repro.attack.allocation import allocate_baseband_bins, allocate_rf_data_points
from repro.attack.emulator import EmulationConfig, WaveformEmulationAttack, emulate_waveform
from repro.errors import ConfigurationError, EmulationError
from repro.experiments.common import build_observed_waveform
from repro.utils.signal_ops import Waveform, frequency_shift
from repro.wifi.constants import CP_LENGTH, FFT_SIZE, NUM_DATA_SUBCARRIERS
from repro.wifi.ofdm import map_subcarriers
from repro.zigbee.receiver import ReceiverConfig, ZigBeeReceiver
from repro.zigbee.transmitter import ZigBeeTransmitter


class TestAllocation:
    def test_baseband_bins_placed(self):
        bins = allocate_baseband_bins(np.array([0, 63]), np.array([1.0, 2.0j]))
        assert bins[0] == 1.0
        assert bins[63] == 2.0j
        assert np.count_nonzero(bins) == 2

    def test_baseband_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            allocate_baseband_bins(np.array([0]), np.array([1.0, 2.0]))

    def test_rf_allocation_targets_overlap_band(self):
        indexes = np.array([0, 1, 2, 3, 61, 62, 63])
        points = np.ones(7, dtype=complex)
        allocation = allocate_rf_data_points(indexes, points, rng=0)
        assert allocation.data_points.size == NUM_DATA_SUBCARRIERS
        # The shifted logical subcarriers are -16 + {0,1,2,3,-3,-2,-1},
        # all inside the paper's [-20, -8] band.
        from repro.wifi.constants import DATA_SUBCARRIERS

        for position in allocation.zigbee_positions:
            assert -20 <= DATA_SUBCARRIERS[position] <= -8

    def test_rf_allocation_rejects_bad_offset(self):
        indexes = np.array([31])  # logical +31 shifted by -16 -> +15 is data
        points = np.ones(1, dtype=complex)
        allocation = allocate_rf_data_points(indexes, points, rng=0)
        assert allocation.zigbee_positions.size == 1
        with pytest.raises(EmulationError):
            allocate_rf_data_points(
                np.array([32]), points, rng=0  # logical -32 -> -48: not data
            )


class TestEmulationPipeline:
    def test_scale_is_optimized(self, emulation_result):
        # The optimum scale for unit-envelope ZigBee waveforms sits near
        # alpha ~ 33 for the unit-power 64-QAM table (equivalent to the
        # paper's sqrt(26) on integer levels: 33.5/sqrt(42)*7*sqrt(2) ~ 51).
        assert 25 < emulation_result.scale < 45

    def test_keeps_seven_bins(self, emulation_result):
        assert emulation_result.selection.indexes.size == 7

    def test_body_reproduced_cp_region_not(self, emulation_result):
        original = emulation_result.chunks
        emulated = emulation_result.emulated_chunks
        body_error = np.mean(
            np.abs(original[:, CP_LENGTH:] - emulated[:, CP_LENGTH:]) ** 2
        )
        cp_error = np.mean(
            np.abs(original[:, :CP_LENGTH] - emulated[:, :CP_LENGTH]) ** 2
        )
        assert body_error < 0.15
        assert cp_error > 5 * body_error

    def test_emulated_chunk_has_cyclic_prefix(self, emulation_result):
        chunk = emulation_result.emulated_chunks[0]
        assert np.allclose(chunk[:CP_LENGTH], chunk[-CP_LENGTH:])

    def test_emulated_decodes_at_zigbee_receiver(self, emulated_link):
        packet = ZigBeeReceiver().receive(emulated_link.on_air)
        assert packet.decoded and packet.fcs_ok
        assert packet.psdu == emulated_link.sent.ppdu[6:]

    def test_hamming_distances_in_paper_band(self, emulated_link):
        packet = ZigBeeReceiver().receive(emulated_link.on_air)
        distances = packet.diagnostics.hamming_distances
        assert min(distances) >= 1  # never perfect
        assert max(distances) <= 9  # inside the DSSS tolerance
        assert 2 <= np.mean(distances) <= 8  # the paper's 4-8 band

    def test_quantization_disabled_reduces_error(self, authentic_link):
        with_quant = emulate_waveform(authentic_link.sent.waveform)
        without = emulate_waveform(
            authentic_link.sent.waveform, config=EmulationConfig(quantize=False)
        )
        assert without.emulation_error() <= with_quant.emulation_error()

    def test_more_subcarriers_lower_error(self, authentic_link):
        narrow = emulate_waveform(
            authentic_link.sent.waveform, config=EmulationConfig(num_subcarriers=3)
        )
        wide = emulate_waveform(
            authentic_link.sent.waveform, config=EmulationConfig(num_subcarriers=15)
        )
        assert wide.emulation_error() < narrow.emulation_error()

    def test_transmit_waveform_prepends_zeros(self, attack, emulation_result):
        on_air = attack.transmit_waveform(emulation_result)
        assert np.allclose(on_air.samples[:10], 0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            EmulationConfig(mode="sideband")


class TestRfMode:
    def test_rf_mode_decodes_after_frequency_shift(self, authentic_link):
        """The over-the-air layout: attacker at 2440 MHz, receiver at 2435."""
        result = emulate_waveform(
            authentic_link.sent.waveform, config=EmulationConfig(mode="rf"), rng=3
        )
        # The receiver sees the WiFi baseband shifted by +5 MHz.
        received = Waveform(
            frequency_shift(result.waveform.samples, 5e6, 20e6), 20e6
        )
        packet = ZigBeeReceiver().receive(received)
        assert packet.decoded and packet.fcs_ok
        assert packet.psdu == authentic_link.sent.ppdu[6:]

    def test_rf_mode_unreadable_without_shift(self, authentic_link):
        """At the WiFi centre the ZigBee band is 5 MHz off — nothing decodes."""
        from repro.errors import SynchronizationError

        result = emulate_waveform(
            authentic_link.sent.waveform, config=EmulationConfig(mode="rf"), rng=3
        )
        receiver = ZigBeeReceiver()
        try:
            packet = receiver.receive(result.waveform)
            delivered = packet.fcs_ok
        except SynchronizationError:
            delivered = False
        assert not delivered


def _per_chunk_baseband(indexes, kept_values):
    """The reference: one IFFT per chunk, points at their own bins."""
    emulated = np.empty((kept_values.shape[0], 80), dtype=np.complex128)
    for i, values in enumerate(kept_values):
        body = np.fft.ifft(allocate_baseband_bins(indexes, values))
        emulated[i, :CP_LENGTH] = body[-CP_LENGTH:]
        emulated[i, CP_LENGTH:] = body
    return emulated


def _per_chunk_rf(indexes, unit_points, scale, rng):
    """The reference: one filler draw, pilot map and IFFT per chunk."""
    emulated = np.empty((unit_points.shape[0], 80), dtype=np.complex128)
    gain = scale / np.sqrt(FFT_SIZE)
    for i, points in enumerate(unit_points):
        allocation = allocate_rf_data_points(indexes, points, rng=rng)
        bins = map_subcarriers(allocation.data_points, symbol_index=1 + i)
        body = np.fft.ifft(bins) * np.sqrt(FFT_SIZE) * gain
        emulated[i, :CP_LENGTH] = body[-CP_LENGTH:]
        emulated[i, CP_LENGTH:] = body
    return emulated


class TestBatchedSymbols:
    """The blocked IFFT builds every symbol bit for bit as one IFFT per
    chunk did, and rf mode draws its filler in the same order."""

    @pytest.fixture(
        scope="class",
        params=[None, b"\x00", bytes(range(40)), bytes(range(99, 0, -1))],
        ids=["default", "1-byte", "40-byte", "99-byte"],
    )
    def observed(self, request):
        if request.param is None:
            return build_observed_waveform().waveform
        return ZigBeeTransmitter().transmit_payload(request.param).waveform

    def test_baseband_equals_per_chunk_loop(self, observed):
        result = emulate_waveform(observed)
        chosen = result.quantization.quantized.reshape(result.chunks.shape[0], -1)
        expected = _per_chunk_baseband(result.selection.indexes, chosen)
        assert np.array_equal(result.emulated_chunks, expected)
        assert result.emulated_chunks.shape[0] > 64  # more than one block

    def test_rf_equals_per_chunk_loop(self, observed):
        result = emulate_waveform(observed, config=EmulationConfig(mode="rf"), rng=11)
        points = result.quantization.constellation_points.reshape(
            result.chunks.shape[0], -1
        )
        expected = _per_chunk_rf(
            result.selection.indexes, points, result.scale, np.random.default_rng(11)
        )
        assert np.array_equal(result.emulated_chunks, expected)
