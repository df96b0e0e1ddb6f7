"""Small-scale fading models.

The paper's "real environment" has line-of-sight links at 1-8 m with
human activity, which we model as Rician block fading (strong LoS
component plus scattered energy) with an optional short multipath tail.
Rayleigh fading is provided for non-LoS experiments and ablations.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.base import Channel
from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.signal_ops import Waveform


def rician_gain(k_factor_db: float, rng: RngLike = None) -> complex:
    """Draw one unit-mean-power Rician block-fading gain.

    Args:
        k_factor_db: ratio of LoS power to scattered power in dB.  Large K
            approaches a pure phase rotation; ``K -> -inf`` is Rayleigh.
    """
    generator = ensure_rng(rng)
    k = 10.0 ** (k_factor_db / 10.0)
    los_power = k / (k + 1.0)
    scatter_power = 1.0 / (k + 1.0)
    los_phase = generator.uniform(-np.pi, np.pi)
    los = np.sqrt(los_power) * np.exp(1j * los_phase)
    scatter = np.sqrt(scatter_power / 2.0) * (
        generator.standard_normal() + 1j * generator.standard_normal()
    )
    return complex(los + scatter)


def rayleigh_gain(rng: RngLike = None) -> complex:
    """Draw one unit-mean-power Rayleigh block-fading gain."""
    generator = ensure_rng(rng)
    return complex(
        (generator.standard_normal() + 1j * generator.standard_normal()) / np.sqrt(2.0)
    )


class BlockFadingChannel(Channel):
    """Constant complex gain per packet (block fading).

    Args:
        k_factor_db: Rician K-factor; ``None`` selects Rayleigh fading.
    """

    def __init__(self, k_factor_db: Optional[float] = 12.0, rng: RngLike = None):
        self.k_factor_db = k_factor_db
        self._rng = ensure_rng(rng)

    def draw_gain(self) -> complex:
        """One block gain (exposed for tests and diagnostics)."""
        if self.k_factor_db is None:
            return rayleigh_gain(self._rng)
        return rician_gain(self.k_factor_db, self._rng)

    def apply(self, waveform: Waveform) -> Waveform:
        return waveform.with_samples(waveform.samples * self.draw_gain())


class MultipathChannel(Channel):
    """Static frequency-selective channel as a complex FIR filter.

    Args:
        taps: explicit complex tap vector, or ``None`` to draw an
            exponentially decaying random profile.
        num_taps: number of taps for the random profile.
        decay: per-tap power decay factor of the random profile, in (0, 1].
    """

    def __init__(
        self,
        taps: Optional[Sequence[complex]] = None,
        num_taps: int = 3,
        decay: float = 0.3,
        rng: RngLike = None,
    ):
        generator = ensure_rng(rng)
        if taps is not None:
            tap_array = np.asarray(taps, dtype=np.complex128)
            if tap_array.ndim != 1 or tap_array.size == 0:
                raise ConfigurationError("taps must be a non-empty 1-D sequence")
        else:
            if num_taps < 1:
                raise ConfigurationError("num_taps must be >= 1")
            if not 0 < decay <= 1:
                raise ConfigurationError("decay must be in (0, 1]")
            powers = decay ** np.arange(num_taps)
            tap_array = np.sqrt(powers / 2.0) * (
                generator.standard_normal(num_taps)
                + 1j * generator.standard_normal(num_taps)
            )
            # Keep the direct path dominant and unit-ish so decoding survives.
            tap_array[0] = 1.0
        self.taps = tap_array / np.sqrt(np.sum(np.abs(tap_array) ** 2))

    def apply(self, waveform: Waveform) -> Waveform:
        from scipy import signal as sp_signal
        convolved = sp_signal.lfilter(self.taps, [1.0], waveform.samples)
        return waveform.with_samples(convolved)
