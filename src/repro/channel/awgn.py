"""Additive white Gaussian noise.

The paper's convention: the transmitted waveform is normalized to unit
average power and ``SNR = 1 / sigma^2`` where ``sigma^2`` is the total
complex noise variance.  :class:`AwgnChannel` implements exactly that;
:func:`add_awgn` is the functional form used by quick scripts.

Given a :class:`~repro.utils.signal_ops.ReceiverBand`, the channel adds
the noise where a receiver reads it instead: the capture's white noise
after the receiver's channel filter and decimation, drawn directly at
the receiver's rate, so a sweep never builds the full-rate capture.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.base import Channel
from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.signal_ops import (
    ReceiverBand,
    Waveform,
    db_to_linear,
    normalize_power,
)


def add_awgn(
    samples: np.ndarray,
    snr_db: float,
    rng: RngLike = None,
    signal_power: Optional[float] = None,
) -> np.ndarray:
    """Add complex AWGN at the requested SNR.

    Args:
        samples: complex waveform.
        snr_db: signal-to-noise ratio in dB.
        rng: seed or generator.
        signal_power: reference signal power; measured from ``samples``
            when omitted.
    """
    generator = ensure_rng(rng)
    array = np.asarray(samples, dtype=np.complex128)
    noise_variance = _noise_variance(array, snr_db, signal_power)
    scale = np.sqrt(noise_variance / 2.0)
    noise = scale * (
        generator.standard_normal(array.size)
        + 1j * generator.standard_normal(array.size)
    )
    return array + noise


def _noise_variance(
    array: np.ndarray, snr_db: float, signal_power: Optional[float]
) -> float:
    if signal_power is None:
        signal_power = float(np.mean(np.abs(array) ** 2)) if array.size else 0.0
    if signal_power <= 0:
        raise ConfigurationError("signal power must be positive to define SNR")
    return signal_power / db_to_linear(snr_db)


class AwgnChannel(Channel):
    """AWGN channel with paper-convention power normalization.

    Attributes:
        snr_db: target signal-to-noise ratio.
        normalize: when True (default) the input is first normalized to
            unit power so that ``SNR = 1/sigma^2`` exactly as in Sec. VII-B.
        noise_bandwidth_hz: when set, ``snr_db`` is interpreted as the SNR
            *within this bandwidth* (e.g. the ZigBee receiver's 2 MHz
            channel): the total injected noise power is scaled up by
            ``sample_rate / noise_bandwidth`` so that a receiver filtering
            to that band sees the requested SNR.  When ``None`` (the
            paper's simulation convention) the SNR is over the full
            sampling bandwidth.
        signal_power: the SNR's reference power when not normalizing;
            measured from the input when omitted.  Channel chains pass
            1.0: their input is (a receiver's view of) the unit-power
            transmit frame, so fading ahead of the noise moves the SNR.
        band: when set, the input is at the receiver's rate
            (``band.rate_hz``) and the noise is the capture-rate white
            noise as that receiver reads it; rates and ``noise_bandwidth_hz``
            refer to the capture.  ``None`` adds white noise at the input's
            own rate.
    """

    def __init__(
        self,
        snr_db: float,
        rng: RngLike = None,
        normalize: bool = True,
        noise_bandwidth_hz: Optional[float] = None,
        signal_power: Optional[float] = None,
        band: Optional[ReceiverBand] = None,
    ):
        if noise_bandwidth_hz is not None and noise_bandwidth_hz <= 0:
            raise ConfigurationError("noise_bandwidth_hz must be positive")
        self.snr_db = float(snr_db)
        self.normalize = normalize
        self.noise_bandwidth_hz = noise_bandwidth_hz
        self.signal_power = signal_power
        self.band = band
        self._rng = ensure_rng(rng)

    def effective_snr_db(self, sample_rate_hz: float) -> float:
        """The full-band SNR actually injected for a given sample rate."""
        if self.noise_bandwidth_hz is None:
            return self.snr_db
        from repro.utils.signal_ops import linear_to_db

        excess = sample_rate_hz / self.noise_bandwidth_hz
        return self.snr_db - linear_to_db(excess)

    def apply(self, waveform: Waveform) -> Waveform:
        samples = waveform.samples
        signal_power = self.signal_power
        if self.normalize:
            samples = normalize_power(samples)
            signal_power = 1.0
        band = self.band
        if band is None:
            noisy = add_awgn(
                samples,
                self.effective_snr_db(waveform.sample_rate_hz),
                rng=self._rng,
                signal_power=signal_power,
            )
            return waveform.with_samples(noisy)
        if (samples.size != band.samples
                or abs(waveform.sample_rate_hz - band.rate_hz) > 1e-6):
            raise ConfigurationError(
                f"band expects {band.samples} samples at {band.rate_hz} Hz, "
                f"got {samples.size} at {waveform.sample_rate_hz} Hz"
            )
        variance = _noise_variance(
            samples, self.effective_snr_db(band.capture_rate_hz), signal_power
        )
        return waveform.with_samples(samples + band.noise(self._rng, variance))
