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
        order and the phase loop iterates over chip pairs operating on
        whole-batch vectors, so each row is bit-identical to demodulating
        that row alone — the scalar path delegates here with one row.
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

        # Decision-directed phase loop: the recursion over chip pairs is
        # inherently sequential, so each step works on both rails of the
        # whole batch at once, in buffers allocated up front.  Keep each
        # floating-point operation the ufunc, operand order and memory
        # layout it is: the sweep oracles pin numpy's kernels, NaN signs
        # included (strided and contiguous complex multiplies differ
        # there), and tests compare bits against a reference loop.
        rails = np.stack((z_i, z_q))
        chips = np.empty((pairs, 2, batch), dtype=np.float64)
        pair_rails = np.empty((2, batch), dtype=np.complex128)
        real_i = pair_rails[0].real
        imag_q = pair_rails[1].imag
        theta = np.zeros(batch, dtype=np.float64)
        unrotated = np.ones(batch, dtype=np.complex128)
        for pair in range(pairs):
            # A zero theta rotates by exactly 1+0j, not exp(-0j) = 1-0j.
            moved = np.count_nonzero(theta)
            if moved == 0:
                rotation = unrotated
            elif moved == batch:
                rotation = np.exp(-1j * theta)
            else:
                rotation = np.where(
                    theta == 0.0, 1.0 + 0.0j, np.exp(-1j * theta)
                )
            np.multiply(rails[:, :, pair], rotation, out=pair_rails)
            soft_pair = chips[pair]
            soft_pair[0] = real_i
            soft_pair[1] = imag_q
            # Ideal pair_i is +/-E on the real axis; ideal pair_q is
            # +/-jE and is rotated onto the real axis first.  Each is
            # folded by its decision sign (+1 for a zero) as a complex
            # multiply, which turns an infinite part into NaN; folding
            # the parts by a real sign would leave it finite.
            sign = np.where(soft_pair < 0.0, -1.0 + 0.0j, 1.0 + 0.0j)
            use = np.abs(pair_rails) > 1e-12
            pair_rails[1] *= -1j
            pair_rails *= sign
            error = np.where(
                use, np.arctan2(pair_rails.imag, pair_rails.real), 0.0
            )
            # With no usable rail the error is +0.0 and theta (never
            # -0.0) stays put, so no final select is needed.
            theta = theta + loop_gain * (error[0] + error[1]) / np.where(
                use[0] & use[1], 2.0, 1.0
            )
        soft = chips.transpose(2, 0, 1).reshape(batch, num_chips)
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
