"""Packet detection, timing, phase, and coarse CFO recovery.

The synchronizer cross-correlates the received baseband against the known
synchronization-header (preamble + SFD) template.  The correlation peak
gives the frame start and carrier phase; the phase difference between the
two template halves gives a coarse carrier-frequency-offset estimate that
is removed before demodulation, mimicking the clock/carrier recovery block
of Fig. 1 (right).

The correlation runs in the frequency domain: one FFT of the received
block against a cached conjugate template spectrum, batched over many
noise realizations at once.  The scalar :meth:`Synchronizer.synchronize`
delegates to the same kernel with a single-row batch, so batched and
scalar synchronization are bit-identical by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from scipy.fft import next_fast_len

from repro.errors import ConfigurationError, SynchronizationError
from repro.utils.signal_ops import Waveform
from repro.zigbee.constants import DEFAULT_SAMPLES_PER_CHIP, PREAMBLE_BYTES, SFD_BYTE
from repro.zigbee.frame import bytes_to_symbols


@lru_cache(maxsize=4)
def shr_template(samples_per_chip: int) -> Tuple[np.ndarray, float, float]:
    """The SHR correlation template, its energy, and its sample rate.

    The template only depends on ``samples_per_chip``, so it is built
    once per process and shared read-only — pool workers unpickling a
    fresh receiver per context no longer re-modulate the preamble.
    """
    from repro.zigbee.oqpsk import OqpskModulator
    from repro.zigbee.spreading import spread_symbols

    modulator = OqpskModulator(samples_per_chip)
    shr_symbols = bytes_to_symbols(PREAMBLE_BYTES + bytes([SFD_BYTE]))
    template = modulator.modulate(spread_symbols(shr_symbols))
    # Trim the quadrature tail so the template length is a whole number
    # of chips; keeps the correlation peak exactly at the frame start.
    template = np.ascontiguousarray(template[: template.size - samples_per_chip])
    template.setflags(write=False)
    energy = float(np.sum(np.abs(template) ** 2))
    return template, energy, modulator.sample_rate_hz


@lru_cache(maxsize=16)
def _template_spectrum(samples_per_chip: int, nfft: int) -> np.ndarray:
    """Conjugate FFT of the SHR template at the given transform size."""
    template, _, _ = shr_template(samples_per_chip)
    spectrum = np.conj(np.fft.fft(template, nfft))
    spectrum.setflags(write=False)
    return spectrum


@dataclass(frozen=True)
class SyncResult:
    """Outcome of synchronizing on one received waveform.

    Attributes:
        start_index: sample index of the first chip of the preamble.
        phase_rad: estimated carrier phase at ``start_index``.
        cfo_hz: estimated carrier frequency offset (0 when estimation is
            disabled).
        correlation: normalized correlation magnitude in [0, 1]; values
            near 1 indicate a clean template match.
    """

    start_index: int
    phase_rad: float
    cfo_hz: float
    correlation: float


class Synchronizer:
    """Template-correlation synchronizer for 802.15.4 frames."""

    def __init__(
        self,
        samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP,
        detection_threshold: float = 0.35,
        estimate_cfo: bool = True,
    ):
        if not 0.0 < detection_threshold < 1.0:
            raise ConfigurationError("detection_threshold must be in (0, 1)")
        self.samples_per_chip = samples_per_chip
        self.detection_threshold = detection_threshold
        self.estimate_cfo = estimate_cfo
        template, energy, rate = shr_template(samples_per_chip)
        self._template = template
        self._template_energy = energy
        self.sample_rate_hz = rate

    @property
    def template_length(self) -> int:
        """Length of the SHR correlation template in samples."""
        return int(self._template.size)

    def _correlate_batch(self, samples: np.ndarray) -> np.ndarray:
        """FFT cross-correlation of each row against the SHR template.

        Equivalent to ``np.correlate(row, template, mode="valid")`` per
        row: the zero-padded circular correlation is exact for lags in
        ``[0, n - template_length]``, which covers the valid region.
        """
        batch, n = samples.shape
        m = self._template.size
        nfft = next_fast_len(n)
        spectrum = _template_spectrum(self.samples_per_chip, nfft)
        correlation = np.fft.ifft(
            np.fft.fft(samples, nfft, axis=-1) * spectrum[np.newaxis, :],
            axis=-1,
        )
        return correlation[:, : n - m + 1]

    def synchronize(self, waveform: Waveform) -> SyncResult:
        """Locate the frame start in ``waveform`` and estimate phase/CFO."""
        if abs(waveform.sample_rate_hz - self.sample_rate_hz) > 1e-6:
            raise ConfigurationError(
                f"synchronizer built for {self.sample_rate_hz} Hz, "
                f"waveform is {waveform.sample_rate_hz} Hz"
            )
        samples = waveform.samples
        result, reason = self._synchronize_rows(samples[np.newaxis, :])[0]
        if result is None:
            raise SynchronizationError(reason)
        return result

    def synchronize_batch(
        self, samples: np.ndarray
    ) -> List[Optional[SyncResult]]:
        """Synchronize each row of a (batch, n) sample stack.

        Rows that fail detection return ``None`` instead of raising, so
        callers can keep the surviving realizations batched.
        """
        return [result for result, _ in self._synchronize_rows(samples)]

    def _synchronize_rows(
        self, samples: np.ndarray
    ) -> List[Tuple[Optional[SyncResult], Optional[str]]]:
        """Per-row sync outcome plus the failure reason for ``None`` rows."""
        if samples.ndim != 2:
            raise ConfigurationError(
                f"batch waveforms must be 2-D, got shape {samples.shape}"
            )
        batch, n = samples.shape
        m = self._template.size
        if n < m:
            reason = (
                f"waveform of {n} samples is shorter than the "
                f"{m}-sample SHR template"
            )
            return [(None, reason)] * batch
        magnitudes = np.abs(self._correlate_batch(samples))
        peaks = np.argmax(magnitudes, axis=-1)
        peak_mags = np.take_along_axis(
            magnitudes, peaks[:, np.newaxis], axis=-1
        )[:, 0]

        # Normalize by local received energy so the metric is scale-free.
        offsets = peaks[:, np.newaxis] + np.arange(m)[np.newaxis, :]
        windows = np.take_along_axis(samples, offsets, axis=-1)
        local_energy = np.sum(np.abs(windows) ** 2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = peak_mags / np.sqrt(
                local_energy * self._template_energy
            )

        cfo = np.zeros(batch, dtype=np.float64)
        if self.estimate_cfo:
            cfo = self._estimate_cfo_batch(samples, peaks)
            steps = np.arange(m)[np.newaxis, :]
            corrected = windows * np.exp(
                -2j * np.pi * cfo[:, np.newaxis] * steps / self.sample_rate_hz
            )
        else:
            corrected = windows
        phases = np.angle(
            np.sum(np.conj(self._template)[np.newaxis, :] * corrected, axis=-1)
        )

        outcomes: List[Tuple[Optional[SyncResult], Optional[str]]] = []
        for row in range(batch):
            energy = float(local_energy[row])
            if energy <= 0.0:
                outcomes.append((None, "received waveform has no energy"))
                continue
            score = float(normalized[row])
            if not (math.isfinite(score) and math.isfinite(energy)):
                # One NaN or inf sample spreads over the whole FFT
                # correlation; such a capture must not pass as a frame.
                outcomes.append(
                    (None, "no frame detected: non-finite correlation")
                )
                continue
            if score < self.detection_threshold:
                outcomes.append(
                    (
                        None,
                        f"no frame detected: best correlation {score:.3f} "
                        f"below threshold {self.detection_threshold:.3f}",
                    )
                )
                continue
            outcomes.append(
                (
                    SyncResult(
                        start_index=int(peaks[row]),
                        phase_rad=float(phases[row]),
                        cfo_hz=float(cfo[row]),
                        correlation=min(score, 1.0),
                    ),
                    None,
                )
            )
        return outcomes

    def _estimate_cfo_batch(
        self, samples: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Row-wise two-halves CFO estimate at the given start indexes."""
        half = self._template.size // 2
        batch, n = samples.shape
        cfo = np.zeros(batch, dtype=np.float64)
        usable = starts + 2 * half <= n
        if not np.any(usable):
            return cfo
        offsets = starts[:, np.newaxis] + np.arange(2 * half)[np.newaxis, :]
        received = np.take_along_axis(
            samples, np.minimum(offsets, n - 1), axis=-1
        )
        head = np.conj(self._template[:half])[np.newaxis, :]
        tail = np.conj(self._template[half : 2 * half])[np.newaxis, :]
        first = np.sum(head * received[:, :half], axis=-1)
        second = np.sum(tail * received[:, half : 2 * half], axis=-1)
        valid = usable & (np.abs(first) != 0.0) & (np.abs(second) != 0.0)
        phase_step = np.angle(second * np.conj(first))
        estimate = phase_step / (2.0 * np.pi * half / self.sample_rate_hz)
        cfo[valid] = estimate[valid]
        return cfo


def apply_corrections(
    waveform: Waveform, sync: SyncResult, sample_rate_hz: Optional[float] = None
) -> np.ndarray:
    """Trim to the frame start and remove the estimated phase and CFO."""
    rate = sample_rate_hz if sample_rate_hz is not None else waveform.sample_rate_hz
    aligned = waveform.samples[sync.start_index :]
    n = np.arange(aligned.size)
    correction = np.exp(
        -1j * (2.0 * np.pi * sync.cfo_hz * n / rate + sync.phase_rad)
    )
    return aligned * correction
