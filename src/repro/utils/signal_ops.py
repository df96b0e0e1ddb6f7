"""Complex-baseband signal helpers shared by every PHY and channel model.

A waveform in this package is a 1-D ``numpy.complex128`` array together with
its sample rate.  :class:`Waveform` bundles the two so that rate mismatches
become explicit errors instead of silent corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import signal as sp_signal

from repro.errors import ConfigurationError

ArrayLike = Union[np.ndarray, list, tuple]


def _as_complex_array(samples: ArrayLike) -> np.ndarray:
    array = np.asarray(samples, dtype=np.complex128)
    if array.ndim != 1:
        raise ConfigurationError(f"waveform must be 1-D, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class Waveform:
    """A complex-baseband waveform with an explicit sample rate.

    Attributes:
        samples: 1-D complex128 array of baseband samples.
        sample_rate_hz: sampling rate in Hz.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _as_complex_array(self.samples))
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        """Duration of the waveform in seconds."""
        return len(self) / self.sample_rate_hz

    @property
    def power(self) -> float:
        """Average sample power of the waveform."""
        return average_power(self.samples)

    def with_samples(self, samples: ArrayLike) -> "Waveform":
        """A new waveform with the same rate and different samples."""
        return Waveform(np.asarray(samples, dtype=np.complex128), self.sample_rate_hz)

    def resampled_to(self, target_rate_hz: float) -> "Waveform":
        """Polyphase resample to ``target_rate_hz``."""
        resampled = polyphase_resample(
            self.samples, self.sample_rate_hz, target_rate_hz
        )
        return Waveform(resampled, target_rate_hz)

    def time_axis(self) -> np.ndarray:
        """Sample times in seconds, starting at zero."""
        return np.arange(len(self)) / self.sample_rate_hz


def average_power(samples: ArrayLike) -> float:
    """Mean of |x|^2; zero for an empty waveform."""
    array = _as_complex_array(samples)
    if array.size == 0:
        return 0.0
    return float(np.mean(np.abs(array) ** 2))


def normalize_power(samples: ArrayLike, target_power: float = 1.0) -> np.ndarray:
    """Scale a waveform to the requested average power.

    The paper normalizes the transmitted waveform power to one so that
    ``SNR = 1 / sigma^2``; this helper enforces that convention.
    """
    if target_power <= 0:
        raise ConfigurationError("target_power must be positive")
    array = _as_complex_array(samples)
    current = average_power(array)
    if current == 0.0:
        raise ConfigurationError("cannot normalize an all-zero waveform")
    return array * np.sqrt(target_power / current)


def db_to_linear(value_db: float) -> float:
    """Convert a power ratio from dB to linear."""
    return float(10.0 ** (value_db / 10.0))


def linear_to_db(value: float, floor_db: float = -300.0) -> float:
    """Convert a linear power ratio to dB with a floor for zero input."""
    if value <= 0:
        return floor_db
    return float(10.0 * np.log10(value))


def papr_db(samples: ArrayLike) -> float:
    """Peak-to-average power ratio in dB."""
    array = _as_complex_array(samples)
    if array.size == 0:
        raise ConfigurationError("cannot compute PAPR of an empty waveform")
    peak = float(np.max(np.abs(array) ** 2))
    return linear_to_db(peak / average_power(array))


def polyphase_resample(
    samples: ArrayLike, input_rate_hz: float, output_rate_hz: float
) -> np.ndarray:
    """Rational-rate polyphase resampling (anti-aliased).

    Used to move between the ZigBee native 4 Msps and the shared 20 Msps
    "air" rate.  Rates must form a rational ratio with small terms.
    """
    array = _as_complex_array(samples)
    return polyphase_resample_batch(
        array[np.newaxis, :], input_rate_hz, output_rate_hz
    )[0]


def fft_interpolate(samples: ArrayLike, factor: int) -> np.ndarray:
    """Integer-factor band-limited interpolation via zero-padding in frequency.

    This mirrors the paper's "interpolate the ZigBee waveform with parameter
    5" step: the spectrum is preserved exactly and ``factor - 1`` new samples
    are inserted between every pair of originals.
    """
    if factor < 1:
        raise ConfigurationError("interpolation factor must be >= 1")
    array = _as_complex_array(samples)
    if factor == 1 or array.size == 0:
        return array.copy()
    n = array.size
    spectrum = np.fft.fft(array)
    padded = np.zeros(n * factor, dtype=np.complex128)
    half = n // 2
    padded[:half] = spectrum[:half]
    padded[-(n - half):] = spectrum[half:]
    # Split the Nyquist bin when n is even to keep the signal's energy exact.
    if n % 2 == 0:
        padded[half] = spectrum[half] / 2.0
        padded[n * factor - half] = spectrum[half] / 2.0
    return np.fft.ifft(padded) * factor


def frequency_shift(
    samples: ArrayLike, shift_hz: float, sample_rate_hz: float, phase0: float = 0.0
) -> np.ndarray:
    """Multiply by a complex exponential to move the signal in frequency.

    Models the 5 MHz offset between the WiFi attacker's centre frequency
    (2440 MHz) and the ZigBee channel 17 centre (2435 MHz).
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample_rate_hz must be positive")
    array = _as_complex_array(samples)
    n = np.arange(array.size)
    return array * np.exp(1j * (2.0 * np.pi * shift_hz * n / sample_rate_hz + phase0))


@lru_cache(maxsize=8)
def lowpass_taps(
    cutoff_hz: float, sample_rate_hz: float, num_taps: int = 129
) -> np.ndarray:
    """Cached FIR low-pass tap design (read-only).

    ``firwin`` dominates the cost of a short filter call; the receive
    chain uses a handful of (cutoff, rate) pairs, so the designs are
    process-invariant and cached once instead of rebuilt per packet.
    """
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ConfigurationError(
            f"cutoff {cutoff_hz} Hz must be in (0, {sample_rate_hz / 2}) Hz"
        )
    if num_taps < 3 or num_taps % 2 == 0:
        raise ConfigurationError("num_taps must be an odd integer >= 3")
    taps = sp_signal.firwin(num_taps, cutoff_hz, fs=sample_rate_hz)
    taps.setflags(write=False)
    return taps


def lowpass_filter(
    samples: ArrayLike,
    cutoff_hz: float,
    sample_rate_hz: float,
    num_taps: int = 129,
) -> np.ndarray:
    """Linear-phase FIR low-pass with group delay removed.

    Models the ZigBee receiver's 2 MHz channel-select filter in front of the
    decimator.
    """
    array = _as_complex_array(samples)
    return lowpass_filter_batch(
        array[np.newaxis, :], cutoff_hz, sample_rate_hz, num_taps
    )[0]


def lowpass_filter_batch(
    samples: np.ndarray,
    cutoff_hz: float,
    sample_rate_hz: float,
    num_taps: int = 129,
) -> np.ndarray:
    """Row-wise :func:`lowpass_filter` over a (batch, n) stack.

    ``lfilter`` along ``axis=-1`` produces per-row output bit-identical
    to filtering each row alone, so the scalar path simply delegates
    here with a single-row batch.
    """
    taps = lowpass_taps(cutoff_hz, sample_rate_hz, num_taps)
    array = np.asarray(samples, dtype=np.complex128)
    if array.ndim != 2:
        raise ConfigurationError(
            f"batch waveforms must be 2-D, got shape {array.shape}"
        )
    padded = np.concatenate(
        [array, np.zeros((array.shape[0], num_taps // 2), dtype=np.complex128)],
        axis=1,
    )
    filtered = sp_signal.lfilter(taps, [1.0], padded, axis=-1)
    return filtered[:, num_taps // 2:]


def polyphase_resample_batch(
    samples: np.ndarray, input_rate_hz: float, output_rate_hz: float
) -> np.ndarray:
    """Row-wise :func:`polyphase_resample` over a (batch, n) stack.

    ``resample_poly`` along ``axis=-1`` filters each row on its own, so
    the scalar path delegates here with a single-row batch.
    """
    if input_rate_hz <= 0 or output_rate_hz <= 0:
        raise ConfigurationError("sample rates must be positive")
    array = np.asarray(samples, dtype=np.complex128)
    if array.ndim != 2:
        raise ConfigurationError(
            f"batch waveforms must be 2-D, got shape {array.shape}"
        )
    if input_rate_hz == output_rate_hz:
        return array.copy()
    from fractions import Fraction

    ratio = Fraction(output_rate_hz / input_rate_hz).limit_denominator(1000)
    if ratio.numerator > 10_000 or ratio.denominator > 10_000:
        raise ConfigurationError(
            f"rate ratio {output_rate_hz}/{input_rate_hz} is not a small rational"
        )
    return sp_signal.resample_poly(
        array, ratio.numerator, ratio.denominator, axis=-1
    )
