"""Tests for packet detection, timing, phase and CFO recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SynchronizationError
from repro.utils.signal_ops import Waveform, frequency_shift
from repro.zigbee.synchronizer import (
    Synchronizer,
    apply_corrections,
    next_fast_len,
)
from repro.zigbee.transmitter import ZigBeeTransmitter


@pytest.fixture(scope="module")
def frame_waveform():
    return ZigBeeTransmitter().transmit_payload(b"sync-test").waveform


def _padded(waveform, lead, tail=50, scale=1.0):
    samples = np.concatenate(
        [np.zeros(lead, dtype=complex), scale * waveform.samples,
         np.zeros(tail, dtype=complex)]
    )
    return Waveform(samples, waveform.sample_rate_hz)


class TestSynchronizer:
    def test_exact_timing(self, frame_waveform):
        sync = Synchronizer().synchronize(_padded(frame_waveform, 137))
        assert sync.start_index == 137
        assert sync.correlation > 0.99

    def test_phase_estimate(self, frame_waveform):
        theta = 0.9
        padded = _padded(frame_waveform, 64)
        rotated = padded.with_samples(padded.samples * np.exp(1j * theta))
        sync = Synchronizer(estimate_cfo=False).synchronize(rotated)
        assert sync.phase_rad == pytest.approx(theta, abs=0.02)

    def test_cfo_estimate(self, frame_waveform):
        cfo = 2000.0
        padded = _padded(frame_waveform, 0)
        shifted = padded.with_samples(
            frequency_shift(padded.samples, cfo, padded.sample_rate_hz)
        )
        sync = Synchronizer().synchronize(shifted)
        assert sync.cfo_hz == pytest.approx(cfo, rel=0.15)

    def test_scale_invariance(self, frame_waveform):
        sync = Synchronizer().synchronize(_padded(frame_waveform, 30, scale=0.01))
        assert sync.start_index == 30
        assert sync.correlation > 0.99

    def test_noise_only_raises(self):
        rng = np.random.default_rng(0)
        noise = 0.1 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
        with pytest.raises(SynchronizationError):
            Synchronizer().synchronize(Waveform(noise, 4e6))

    def test_short_waveform_raises(self):
        with pytest.raises(SynchronizationError):
            Synchronizer().synchronize(Waveform(np.ones(10, dtype=complex), 4e6))

    def test_rate_mismatch_raises(self, frame_waveform):
        wrong_rate = Waveform(frame_waveform.samples, 8e6)
        with pytest.raises(ConfigurationError):
            Synchronizer().synchronize(wrong_rate)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            Synchronizer(detection_threshold=1.5)


class TestApplyCorrections:
    def test_removes_phase_and_trims(self, frame_waveform):
        theta = -0.4
        padded = _padded(frame_waveform, 25)
        rotated = padded.with_samples(padded.samples * np.exp(1j * theta))
        sync = Synchronizer(estimate_cfo=False).synchronize(rotated)
        corrected = apply_corrections(rotated, sync)
        n = len(frame_waveform)
        assert np.allclose(corrected[:n], frame_waveform.samples, atol=0.05)


class TestNextFastLen:
    """The SciPy-free FFT length picks the same ``nfft`` SciPy would, so
    every correlation bit is unchanged."""

    def test_matches_scipy_for_every_length_up_to_2_17(self):
        from scipy.fft import next_fast_len as scipy_next_fast_len

        mismatches = [
            n for n in range(1, 2**17 + 1)
            if next_fast_len(n) != scipy_next_fast_len(n)
        ]
        assert mismatches == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=2**24))
    def test_matches_scipy_up_to_2_24(self, n):
        from scipy.fft import next_fast_len as scipy_next_fast_len

        assert next_fast_len(n) == scipy_next_fast_len(n)
