"""Spectral analysis helpers: Welch PSD, band power, occupied bandwidth.

Used to verify the spectral claims the paper's setup rests on — the
ZigBee signal occupying 2 MHz, the WiFi emulation concentrating its
energy on the 7 selected subcarriers, and the 2434-2436 MHz overlap
band between ZigBee channel 17 and a WiFi carrier at 2440 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.signal_ops import Waveform


@dataclass(frozen=True)
class PowerSpectrum:
    """A two-sided power spectral density estimate.

    Attributes:
        frequencies_hz: frequency axis, ascending, centred on 0.
        psd: power spectral density (power per Hz) per bin.
    """

    frequencies_hz: np.ndarray
    psd: np.ndarray

    @property
    def total_power(self) -> float:
        """Integrated power over the whole estimate."""
        if self.frequencies_hz.size < 2:
            raise ConfigurationError("spectrum too short to integrate")
        df = float(self.frequencies_hz[1] - self.frequencies_hz[0])
        return float(np.sum(self.psd) * df)

    def band_power(self, low_hz: float, high_hz: float) -> float:
        """Integrated power between two frequencies."""
        if high_hz <= low_hz:
            raise ConfigurationError("band must satisfy high > low")
        df = float(self.frequencies_hz[1] - self.frequencies_hz[0])
        mask = (self.frequencies_hz >= low_hz) & (self.frequencies_hz < high_hz)
        return float(np.sum(self.psd[mask]) * df)

    def occupied_bandwidth(self, fraction: float = 0.99) -> float:
        """Width of the symmetric-percentile band holding ``fraction`` power."""
        if not 0 < fraction < 1:
            raise ConfigurationError("fraction must be in (0, 1)")
        df = float(self.frequencies_hz[1] - self.frequencies_hz[0])
        cumulative = np.cumsum(self.psd) * df
        total = cumulative[-1]
        if total <= 0:
            raise ConfigurationError("spectrum has no power")
        tail = (1.0 - fraction) / 2.0
        low_index = int(np.searchsorted(cumulative, tail * total))
        high_index = int(np.searchsorted(cumulative, (1.0 - tail) * total))
        high_index = min(high_index, self.frequencies_hz.size - 1)
        return float(
            self.frequencies_hz[high_index] - self.frequencies_hz[low_index]
        )


def welch_psd(waveform: Waveform, segment_length: int = 256) -> PowerSpectrum:
    """Welch PSD of a complex baseband waveform, two-sided and centred."""
    if segment_length < 8:
        raise ConfigurationError("segment_length must be >= 8")
    samples = waveform.samples
    if samples.size < segment_length:
        raise ConfigurationError(
            f"waveform of {samples.size} samples shorter than one "
            f"{segment_length}-sample segment"
        )
    from scipy import signal as sp_signal
    frequencies, psd = sp_signal.welch(
        samples,
        fs=waveform.sample_rate_hz,
        nperseg=segment_length,
        return_onesided=False,
        detrend=False,
    )
    order = np.argsort(frequencies)
    return PowerSpectrum(
        frequencies_hz=frequencies[order], psd=np.abs(psd[order])
    )


def band_power_ratio(
    waveform: Waveform, band: Tuple[float, float], segment_length: int = 256
) -> float:
    """Fraction of total power inside ``band`` (low, high) in Hz."""
    spectrum = welch_psd(waveform, segment_length)
    return spectrum.band_power(*band) / spectrum.total_power
