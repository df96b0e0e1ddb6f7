"""Small-scale fading models.

The paper's "real environment" has line-of-sight links at 1-8 m with
human activity, which we model as Rician block fading (strong LoS
component plus scattered energy).  Rayleigh fading is provided for
non-LoS experiments and ablations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.base import Channel
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
