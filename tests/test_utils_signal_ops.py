"""Tests for waveform utilities: power, resampling, interpolation, shift."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.signal_ops import (
    Waveform,
    average_power,
    channelize_batch,
    db_to_linear,
    fft_interpolate,
    frequency_shift,
    linear_to_db,
    lowpass_filter,
    normalize_power,
    papr_db,
    polyphase_resample,
)


class TestWaveform:
    def test_duration(self):
        w = Waveform(np.zeros(400, dtype=complex), 4e6)
        assert w.duration_s == pytest.approx(1e-4)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            Waveform(np.zeros(4, dtype=complex), 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            Waveform(np.zeros((2, 2), dtype=complex), 1.0)

    def test_resampled_to_changes_length(self):
        w = Waveform(np.ones(100, dtype=complex), 4e6)
        up = w.resampled_to(20e6)
        assert len(up) == 500
        assert up.sample_rate_hz == 20e6

    def test_time_axis(self):
        w = Waveform(np.ones(3, dtype=complex), 2.0)
        assert np.allclose(w.time_axis(), [0.0, 0.5, 1.0])


class TestPower:
    def test_average_power_of_unit_tone(self):
        tone = np.exp(2j * np.pi * 0.1 * np.arange(1000))
        assert average_power(tone) == pytest.approx(1.0)

    def test_normalize_power(self):
        x = 3.0 * np.ones(10, dtype=complex)
        assert average_power(normalize_power(x)) == pytest.approx(1.0)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            normalize_power(np.zeros(4, dtype=complex))

    def test_db_roundtrip(self):
        assert linear_to_db(db_to_linear(13.0)) == pytest.approx(13.0)

    def test_papr_of_constant_envelope_is_zero(self):
        tone = np.exp(2j * np.pi * 0.05 * np.arange(256))
        assert papr_db(tone) == pytest.approx(0.0, abs=1e-9)

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_normalize_to_target(self, target):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert average_power(normalize_power(x, target)) == pytest.approx(target)


class TestResampling:
    def test_fft_interpolate_preserves_samples(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        # Band-limit so interpolation is exact at original points.
        spectrum = np.fft.fft(x)
        spectrum[16:48] = 0
        x = np.fft.ifft(spectrum)
        y = fft_interpolate(x, 5)
        assert y.size == 5 * x.size
        assert np.allclose(y[::5], x, atol=1e-9)

    def test_fft_interpolate_preserves_energy_scale(self):
        x = np.exp(2j * np.pi * 3 * np.arange(64) / 64)
        y = fft_interpolate(x, 4)
        assert average_power(y) == pytest.approx(average_power(x), rel=1e-6)

    def test_fft_interpolate_factor_one(self):
        x = np.arange(8, dtype=complex)
        assert np.allclose(fft_interpolate(x, 1), x)

    def test_polyphase_identity(self):
        x = np.arange(32, dtype=complex)
        assert np.allclose(polyphase_resample(x, 4e6, 4e6), x)

    def test_polyphase_ratio(self):
        x = np.ones(100, dtype=complex)
        y = polyphase_resample(x, 4e6, 20e6)
        assert y.size == 500

    def test_rejects_bad_factor(self):
        with pytest.raises(ConfigurationError):
            fft_interpolate(np.ones(4, dtype=complex), 0)


class TestFrequencyShift:
    def test_shift_moves_tone(self):
        n = 1024
        rate = 20e6
        tone = np.exp(2j * np.pi * 1e6 * np.arange(n) / rate)
        shifted = frequency_shift(tone, 2e6, rate)
        spectrum = np.abs(np.fft.fft(shifted))
        peak_bin = np.argmax(spectrum)
        assert peak_bin == pytest.approx(3e6 / rate * n, abs=1)

    def test_shift_preserves_power(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        y = frequency_shift(x, 123456.0, 4e6)
        assert average_power(y) == pytest.approx(average_power(x))


class TestLowpass:
    def test_passes_in_band_tone(self):
        rate = 20e6
        tone = np.exp(2j * np.pi * 0.5e6 * np.arange(4000) / rate)
        filtered = lowpass_filter(tone, 1.5e6, rate)
        # Ignore edge transients.
        assert average_power(filtered[200:-200]) == pytest.approx(1.0, rel=0.05)

    def test_rejects_out_of_band_tone(self):
        rate = 20e6
        tone = np.exp(2j * np.pi * 6e6 * np.arange(4000) / rate)
        filtered = lowpass_filter(tone, 1.5e6, rate)
        assert average_power(filtered[200:-200]) < 0.01

    def test_group_delay_removed(self):
        rate = 20e6
        impulse = np.zeros(512, dtype=complex)
        impulse[100] = 1.0
        filtered = lowpass_filter(impulse, 2e6, rate)
        assert np.argmax(np.abs(filtered)) == 100

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ConfigurationError):
            lowpass_filter(np.ones(16, dtype=complex), 11e6, 20e6)


class TestChannelize:
    """The one-pass channelizer against SciPy's two-stage chain."""

    @staticmethod
    def _scipy_chain(rows, cutoff_hz, rate_hz, up, down):
        from scipy import signal

        taps = signal.firwin(129, cutoff_hz, fs=rate_hz)
        padded = np.concatenate([rows, np.zeros((len(rows), 64))], axis=1)
        filtered = signal.lfilter(taps, [1.0], padded, axis=-1)[:, 64:]
        return signal.resample_poly(filtered, up, down, axis=-1)

    @pytest.mark.parametrize("length", [1, 2, 3, 64, 128, 129, 130, 1003, 14_670])
    @pytest.mark.parametrize(
        "rates", [(20e6, 4e6, 1, 5), (8e6, 4e6, 1, 2), (6e6, 4e6, 2, 3)]
    )
    def test_matches_filter_then_resample(self, length, rates):
        rate_hz, native_hz, up, down = rates
        rng = np.random.default_rng(length)
        rows = rng.standard_normal((3, length)) + 1j * rng.standard_normal((3, length))
        expected = self._scipy_chain(rows, 1.5e6, rate_hz, up, down)
        got = channelize_batch(rows, 1.5e6, rate_hz, native_hz)
        assert got.shape == expected.shape
        peak = np.max(np.abs(expected), axis=-1, keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-13 * peak)

    def test_taps_are_scipy_designs(self):
        from scipy import signal

        from repro.utils.signal_ops import _resample_taps, lowpass_taps

        assert np.array_equal(
            lowpass_taps(2e6, 20e6), signal.firwin(129, 2e6, fs=20e6)
        )
        assert np.array_equal(
            _resample_taps(1, 5), signal.firwin(101, 0.2, window=("kaiser", 5.0))
        )

    def test_empty_rows_and_bad_rates(self):
        assert channelize_batch(np.zeros((3, 0)), 2e6, 20e6, 4e6).shape == (3, 0)
        with pytest.raises(ConfigurationError):
            channelize_batch(np.zeros((1, 10)), 2e6, 4e6, 20e6)
        with pytest.raises(ConfigurationError):
            channelize_batch(np.zeros(10), 2e6, 20e6, 4e6)
