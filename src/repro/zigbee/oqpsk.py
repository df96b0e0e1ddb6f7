"""O-QPSK modulation and matched-filter demodulation.

Chips are split between rails exactly as the standard specifies: even-
indexed chips modulate the in-phase rail, odd-indexed chips the quadrature
rail, and the quadrature rail is delayed by one chip period.  The
demodulator is the corresponding matched filter sampled at the (known or
recovered) chip timing, producing one *soft chip sample* per chip.  Those
soft samples are both the input to DSSS hard decisions and — crucially for
the paper's defense — the raw material of the reconstructed QPSK
constellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DecodingError
from repro.zigbee.constants import CHIP_RATE_HZ, DEFAULT_SAMPLES_PER_CHIP
from repro.zigbee.halfsine import half_sine_pulse, pulse_energy, shape_rail


class OqpskModulator:
    """Shapes a chip stream into a complex baseband O-QPSK waveform."""

    def __init__(self, samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP):
        if samples_per_chip < 1:
            raise ConfigurationError("samples_per_chip must be >= 1")
        self.samples_per_chip = samples_per_chip

    @property
    def sample_rate_hz(self) -> float:
        """Baseband sample rate implied by the oversampling factor."""
        return CHIP_RATE_HZ * self.samples_per_chip

    def modulate(self, chips: Sequence[int]) -> np.ndarray:
        """Modulate binary chips (0/1) into a complex waveform.

        The chip count must be even (it always is for whole symbols: 32
        chips each).  Output length is ``len(chips) * samples_per_chip +
        samples_per_chip``; the extra tail carries the delayed quadrature
        rail's final pulse.
        """
        chip_array = np.asarray(chips, dtype=np.int64)
        if chip_array.ndim != 1:
            raise ConfigurationError("chips must be a 1-D sequence")
        if chip_array.size % 2 != 0:
            raise ConfigurationError("chip count must be even for O-QPSK")
        if chip_array.size == 0:
            return np.zeros(0, dtype=np.complex128)
        if chip_array.min() < 0 or chip_array.max() > 1:
            raise ConfigurationError("chips must be binary 0/1")
        antipodal = 2.0 * chip_array.astype(np.float64) - 1.0

        sps = self.samples_per_chip
        i_rail = shape_rail(antipodal[0::2], sps)
        q_rail = shape_rail(antipodal[1::2], sps)

        total = chip_array.size * sps + sps
        waveform = np.zeros(total, dtype=np.complex128)
        waveform[: i_rail.size] += i_rail
        waveform[sps : sps + q_rail.size] += 1j * q_rail
        # Normalize so the steady-state envelope (hence average power of a
        # long waveform) is 1, matching the paper's unit-power convention.
        return waveform / np.abs(waveform[sps])


@dataclass(frozen=True)
class ChipSamples:
    """Soft and hard chip decisions produced by the demodulator.

    Attributes:
        soft: real-valued matched-filter outputs, one per chip, normalized
            so an undistorted noiseless chip yields exactly +/-1.
        hard: binary 0/1 decisions, ``(soft > 0)``.
    """

    soft: np.ndarray
    hard: np.ndarray

    def __len__(self) -> int:
        return int(self.soft.size)


class OqpskDemodulator:
    """Matched filter + chip-rate sampler for O-QPSK.

    The demodulator assumes the waveform is already time- and phase-
    aligned (see :mod:`repro.zigbee.synchronizer`); its first sample must
    be the start of the first in-phase chip pulse.
    """

    def __init__(self, samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP):
        if samples_per_chip < 1:
            raise ConfigurationError("samples_per_chip must be >= 1")
        self.samples_per_chip = samples_per_chip
        self._pulse = half_sine_pulse(samples_per_chip)
        self._pulse_energy = pulse_energy(samples_per_chip)

    def capacity(self, num_samples: int) -> int:
        """How many whole chips fit in a waveform of ``num_samples``."""
        sps = self.samples_per_chip
        if num_samples < 3 * sps:
            return 0
        # The q rail of chip pair m ends at (2m + 3) * sps samples.
        pairs = (num_samples - sps) // (2 * sps)
        return 2 * pairs

    def demodulate(
        self,
        samples: Sequence[complex],
        num_chips: int,
        phase_tracking: bool = True,
        loop_gain: float = 0.05,
    ) -> ChipSamples:
        """Recover ``num_chips`` soft chip values from an aligned waveform.

        Args:
            samples: time/phase-aligned complex baseband.
            num_chips: how many chips to extract (even).
            phase_tracking: run a first-order decision-directed phase loop
                that removes residual carrier rotation.  Preamble-only CFO
                estimates leave tens of hertz of residual, which integrates
                into large phase errors over millisecond-long frames; every
                practical receiver tracks.  Disable only to *observe* a
                rotation (e.g. the constellation of Fig. 6b).
            loop_gain: phase-loop gain per chip pair.
        """
        waveform = np.asarray(samples, dtype=np.complex128)
        if waveform.ndim != 1:
            raise ConfigurationError("waveform must be 1-D")
        soft, hard = self.demodulate_batch(
            waveform[np.newaxis, :],
            num_chips,
            phase_tracking=phase_tracking,
            loop_gain=loop_gain,
        )
        return ChipSamples(soft=soft[0], hard=hard[0])

    def demodulate_batch(
        self,
        waveforms: np.ndarray,
        num_chips: int,
        phase_tracking: bool = True,
        loop_gain: float = 0.05,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-wise :meth:`demodulate` over a (batch, n) aligned stack.

        Returns ``(soft, hard)`` arrays of shape (batch, num_chips).  The
        matched-filter pair products accumulate column-by-column in index
        order and the phase loop runs each row's recursion on its own, so
        each row is bit-identical to demodulating that row alone — the
        scalar path delegates here with one row.  With phase tracking, a
        non-finite matched-filter output fails closed: its own soft chip
        and every soft chip of the pairs after it are non-finite.
        """
        waveforms = np.asarray(waveforms, dtype=np.complex128)
        if waveforms.ndim != 2:
            raise ConfigurationError(
                f"batch waveforms must be 2-D, got shape {waveforms.shape}"
            )
        if num_chips < 0 or num_chips % 2 != 0:
            raise ConfigurationError("num_chips must be even and non-negative")
        batch, n = waveforms.shape
        if num_chips > self.capacity(n):
            raise DecodingError(
                f"waveform of {n} samples holds only "
                f"{self.capacity(n)} chips, {num_chips} requested"
            )
        if not 0.0 < loop_gain < 1.0:
            raise ConfigurationError("loop_gain must be in (0, 1)")
        sps = self.samples_per_chip
        pulse = self._pulse
        window = 2 * sps
        pairs = num_chips // 2
        soft = np.zeros((batch, num_chips), dtype=np.float64)
        if pairs == 0:
            return soft, soft.astype(np.uint8)

        # Matched-filter outputs for every chip pair at once: the w-th
        # sample of each same-rail window is a strided column slice, so
        # the dot products accumulate sample-by-sample in index order —
        # an order independent of the batch and pair counts.
        z_i = np.zeros((batch, pairs), dtype=np.complex128)
        z_q = np.zeros((batch, pairs), dtype=np.complex128)
        for w in range(window):
            z_i = z_i + waveforms[:, w::window][:, :pairs] * pulse[w]
            z_q = z_q + waveforms[:, sps + w :: window][:, :pairs] * pulse[w]

        if not phase_tracking:
            soft[:, 0::2] = z_i.real
            soft[:, 1::2] = z_q.imag
            soft = soft / self._pulse_energy
            return soft, (soft > 0).astype(np.uint8)

        # Decision-directed phase loop.  Rotating a rail by exp(-j*theta),
        # folding it by its decision sign and taking its angle is the same
        # as wrapping (decision angle - theta) into [-pi/2, pi/2), where
        # the decision angle is angle(z_i) on the in-phase rail and
        # angle(z_q) - pi/2 on the quadrature rail (ideal value +/-jE).
        # Both are stored shifted by +pi/2, so the wrap of x is x % pi less
        # pi/2.  A rail is used when it carries signal (|z| > 1e-12) or is
        # non-finite; a non-finite rail has angle NaN and so poisons theta
        # and every chip pair after it.  A pair with one used rail takes
        # that rail's angle for both, so every step is theta +=
        # g/2 * (e_i + e_q), and a pair with none has gain 0.
        finite_i = np.isfinite(z_i)
        finite_q = np.isfinite(z_q)
        use_i = (np.abs(z_i) > 1e-12) | ~finite_i
        use_q = (np.abs(z_q) > 1e-12) | ~finite_q
        angle_i = np.where(finite_i, np.angle(z_i) + 0.5 * np.pi, np.nan)
        angle_q = np.where(finite_q, np.angle(z_q), np.nan)
        angle_i, angle_q = (
            np.where(use_i, angle_i, angle_q),
            np.where(use_q, angle_q, angle_i),
        )
        gain = np.where(use_i | use_q, 0.5 * loop_gain, 0.0)
        # The recursion is sequential in the pairs, so it runs one row at
        # a time in plain Python floats (IEEE arithmetic and fmod, the
        # same on every host); each row's theta depends on that row alone.
        # Iterating a row's memoryview yields Python floats one at a time,
        # so no per-row list is built for the inputs.
        theta = np.empty((batch, pairs), dtype=np.float64)
        pi = np.pi
        for row in range(batch):
            step = 0.0
            steps = []
            for a, b, g in zip(
                memoryview(angle_i[row]),
                memoryview(angle_q[row]),
                memoryview(gain[row]),
            ):
                steps.append(step)
                step += g * ((a - step) % pi + (b - step) % pi - pi)
            theta[row] = steps
        del angle_i, angle_q, gain  # freed before the rotation's temporaries
        # A zero theta rotates by exactly 1+0j, not exp(-0j) = 1-0j, so
        # chips before theta first moves are the plain matched filter's.
        rotation = np.where(theta == 0.0, 1.0 + 0.0j, np.exp(-1j * theta))
        soft[:, 0::2] = (z_i * rotation).real
        soft[:, 1::2] = (z_q * rotation).imag
        soft = soft / self._pulse_energy
        return soft, (soft > 0).astype(np.uint8)


def chips_to_constellation(soft_chips: Sequence[float]) -> np.ndarray:
    """Pair consecutive soft chips into complex points (odd->I, even->Q).

    This is the constellation-construction step of the paper's defense
    (Sec. VI-A2): the chip-rate soft samples are split into alternating
    halves and combined into complex values.  See
    :mod:`repro.defense.constellation` for the full normalized pipeline.
    """
    soft = np.asarray(soft_chips, dtype=np.float64)
    if soft.size % 2 != 0:
        raise ConfigurationError("need an even number of soft chips to pair")
    return soft[0::2] + 1j * soft[1::2]
