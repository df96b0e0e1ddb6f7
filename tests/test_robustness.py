"""Failure-injection tests: malformed inputs raise clean errors.

A library boundary should never surface a numpy shape error or a silent
wrong answer: every malformed input here must either raise a
:class:`~repro.errors.ReproError` subclass or produce an explicit
"not decoded" outcome.
"""

import numpy as np
import pytest

from repro.errors import ReproError, SynchronizationError
from repro.utils.signal_ops import Waveform
from repro.zigbee.receiver import ZigBeeReceiver
from repro.zigbee.transmitter import ZigBeeTransmitter


class TestReceiverRobustness:
    def test_silence_raises_sync_error(self):
        silence = Waveform(np.zeros(5000, dtype=complex), 4e6)
        with pytest.raises(SynchronizationError):
            ZigBeeReceiver().receive(silence)

    def test_pure_noise_raises_or_fails_cleanly(self):
        rng = np.random.default_rng(0)
        noise = Waveform(
            rng.standard_normal(8000) + 1j * rng.standard_normal(8000), 4e6
        )
        receiver = ZigBeeReceiver()
        try:
            packet = receiver.receive(noise)
        except ReproError:
            return
        assert not packet.fcs_ok

    def test_dc_waveform(self):
        dc = Waveform(np.ones(8000, dtype=complex), 4e6)
        receiver = ZigBeeReceiver()
        try:
            packet = receiver.receive(dc)
        except ReproError:
            return
        assert not packet.fcs_ok

    def test_truncated_frame_fails_cleanly(self, authentic_link):
        cut = authentic_link.on_air.samples[: len(authentic_link.on_air) // 3]
        receiver = ZigBeeReceiver()
        try:
            packet = receiver.receive(Waveform(cut, 20e6))
        except ReproError:
            return
        assert not packet.fcs_ok

    def test_wrong_technology_input(self):
        """A WiFi frame at the ZigBee receiver must not decode."""
        from repro.wifi.transmitter import WifiTransmitter

        frame = WifiTransmitter(54).transmit_psdu(bytes(32))
        receiver = ZigBeeReceiver()
        try:
            packet = receiver.receive(frame.waveform)
        except ReproError:
            return
        assert not packet.fcs_ok

    def test_extreme_gain_levels_still_decode(self, authentic_link):
        """AGC-free scaling across 8 orders of magnitude."""
        receiver = ZigBeeReceiver()
        for gain in (1e-4, 1e4):
            scaled = authentic_link.on_air.with_samples(
                authentic_link.on_air.samples * gain
            )
            packet = receiver.receive(scaled)
            assert packet.fcs_ok

    def test_concatenated_frames_decode_first(self, authentic_link):
        doubled = Waveform(
            np.concatenate(
                [authentic_link.on_air.samples, authentic_link.on_air.samples]
            ),
            20e6,
        )
        packet = ZigBeeReceiver().receive(doubled)
        assert packet.fcs_ok


class TestAttackRobustness:
    def test_emulating_noise_fails_or_is_detectable(self):
        """Emulating a garbage 'observation' must not crash."""
        from repro.attack import WaveformEmulationAttack

        rng = np.random.default_rng(1)
        garbage = Waveform(
            rng.standard_normal(640) + 1j * rng.standard_normal(640), 4e6
        )
        result = WaveformEmulationAttack().emulate(garbage)
        assert result.waveform.samples.size > 0

    def test_emulating_very_short_observation(self):
        from repro.attack import WaveformEmulationAttack

        short = ZigBeeTransmitter().transmit_symbols([5]).waveform
        result = WaveformEmulationAttack().emulate(short)
        assert result.emulated_chunks.shape[1] == 80

    def test_detector_handles_constant_chips(self):
        from repro.defense.detector import CumulantDetector
        from repro.errors import ConfigurationError

        detector = CumulantDetector()
        constant = np.ones(256)
        # All-identical points have degenerate statistics but must not
        # produce a numpy warning storm or nonsense — either a clean
        # error or a finite statistic.
        try:
            result = detector.statistic(constant)
        except ConfigurationError:
            return
        assert np.isfinite(result.distance_squared)


class TestNonFiniteInput:
    """A NaN or inf sample fails closed instead of yielding a NaN row."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sync_rejects_a_non_finite_capture(self, bad, emulated_link):
        from repro.hardware.usrp import gnuradio_simulation_receiver_config

        receiver = ZigBeeReceiver(gnuradio_simulation_receiver_config())
        clean = emulated_link.on_air.samples
        broken = clean.copy()
        broken[1000] = bad
        with pytest.raises(SynchronizationError, match="no frame detected"):
            receiver.receive(Waveform(broken, 20e6))
        packets = receiver.receive_batch(np.stack([broken, clean]), 20e6)
        assert packets[0] is None
        assert packets[1] is not None and packets[1].fcs_ok

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_detector_rejects_non_finite_chips(self, bad):
        from repro.defense.detector import CumulantDetector
        from repro.errors import ConfigurationError

        rng = np.random.default_rng(0)
        chips = np.tile([1.0, -1.0], 64) + 0.1 * rng.standard_normal(128)
        broken = chips.copy()
        broken[10] = bad
        detector = CumulantDetector()
        with pytest.raises(ConfigurationError, match="non-finite"):
            detector.statistic(broken)
        with pytest.raises(ConfigurationError, match="row 1 .*non-finite"):
            detector.statistic_batch([chips, broken])

    def test_detector_rejects_overflowing_chips(self):
        from repro.defense.constellation import ConstellationOptions
        from repro.defense.detector import CumulantDetector
        from repro.errors import ConfigurationError

        detector = CumulantDetector(
            constellation_options=ConstellationOptions(normalize=False)
        )
        with np.errstate(over="ignore"):
            with pytest.raises(ConfigurationError, match="overflows"):
                detector.statistic(np.tile([1e200, -1e200], 64))
