"""The complete ZigBee receiver chain of Fig. 1 (right).

``waveform -> channel filter -> sync -> O-QPSK matched filter ->
chip hard decisions -> DSSS despread -> PPDU parse -> MAC FCS check``

The receiver keeps every intermediate product in
:class:`ReceiveDiagnostics` because the paper's defense taps the *input*
of the DSSS demodulation (the chip-rate soft samples) and its failed
baseline strategies tap the phase trajectory and chip amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import (
    ConfigurationError,
    DecodingError,
    FramingError,
    SynchronizationError,
)
from repro.telemetry import get_telemetry
from repro.utils.signal_ops import (
    Waveform,
    lowpass_filter_batch,
    polyphase_resample_batch,
)
from repro.zigbee.constants import (
    CHIPS_PER_SYMBOL,
    DEFAULT_CORRELATION_THRESHOLD,
    DEFAULT_SAMPLES_PER_CHIP,
    MAX_PSDU_BYTES,
)
from repro.zigbee.frame import MacFrame, PhyFrame
from repro.zigbee.msk import MskDespreader
from repro.zigbee.oqpsk import ChipSamples, OqpskDemodulator
from repro.zigbee.quadrature import QuadratureDemodulator
from repro.zigbee.spreading import DespreadDecision, DsssDespreader
from repro.zigbee.synchronizer import SyncResult, Synchronizer, apply_corrections

#: preamble (8) + SFD (2) + PHR (2) symbols precede the PSDU.
HEADER_SYMBOLS = 12


@dataclass(frozen=True)
class ReceiverConfig:
    """Tunable parameters of the ZigBee receiver.

    Attributes:
        samples_per_chip: oversampling of the native baseband (2 -> 4 Msps).
        correlation_threshold: DSSS Hamming-distance tolerance (paper: 10).
        sync_detection_threshold: minimum normalized SHR correlation.
        estimate_cfo: enable coarse CFO recovery from the preamble.
        channel_filter_cutoff_hz: cutoff of the 2 MHz channel-select filter
            applied when the input arrives faster than the native rate.
        implementation_loss_db: extra SNR penalty modelling analog/digital
            imperfections of a given platform (0 for an ideal receiver; the
            USRP profile uses a positive value, see ``repro.hardware``).
        demodulation: ``"matched_filter"`` decodes coherent matched-filter
            chips against the standard chip table; ``"quadrature"`` decodes
            frequency-sign chips against the masked MSK table — the GNU
            Radio approach the paper's USRP receiver uses, noticeably less
            noise-robust.
        decimation: ``"filtered"`` applies the anti-aliasing channel filter
            before downsampling off-rate input; ``"naive"`` takes every
            N-th sample, folding the full 20 MHz of noise into the 2 MHz
            band — this matches the paper's simulated receiver, whose SNR
            axis only lines up with ours under naive decimation.
    """

    samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP
    correlation_threshold: int = DEFAULT_CORRELATION_THRESHOLD
    sync_detection_threshold: float = 0.35
    estimate_cfo: bool = True
    channel_filter_cutoff_hz: float = 1.5e6
    implementation_loss_db: float = 0.0
    demodulation: str = "matched_filter"
    decimation: str = "filtered"
    phase_tracking: bool = True

    def __post_init__(self) -> None:
        if self.demodulation not in ("matched_filter", "quadrature"):
            raise ConfigurationError(
                f"unknown demodulation {self.demodulation!r}"
            )
        if self.decimation not in ("filtered", "naive"):
            raise ConfigurationError(f"unknown decimation {self.decimation!r}")


@dataclass
class ReceiveDiagnostics:
    """Every intermediate product of one reception.

    Per-symbol decode outcomes are stored as flat int64 arrays (symbol
    ``-1`` marks a dropped chip sequence) so the hot receive path never
    builds per-symbol objects; the list views the rest of the codebase
    consumes (``decisions``/``symbols``/``hamming_distances``) are
    materialized lazily from those arrays.
    """

    sync: Optional[SyncResult]
    soft_chips: np.ndarray
    hard_chips: np.ndarray
    quadrature_soft_chips: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    noise_variance: Optional[float] = None
    symbol_array: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    distance_array: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    runner_distance_array: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    psdu_symbol_offset: int = HEADER_SYMBOLS

    @property
    def decisions(self) -> List[DespreadDecision]:
        """Per-symbol despread outcomes as decision objects (lazy)."""
        return [
            DespreadDecision(
                symbol=int(self.symbol_array[i])
                if self.symbol_array[i] >= 0
                else None,
                hamming_distance=int(self.distance_array[i]),
                runner_up_distance=int(self.runner_distance_array[i]),
            )
            for i in range(self.symbol_array.size)
        ]

    @property
    def symbols(self) -> List[Optional[int]]:
        """Decoded symbols (``None`` marks a dropped chip sequence)."""
        return [int(s) if s >= 0 else None for s in self.symbol_array]

    @property
    def hamming_distances(self) -> List[int]:
        """Best-match Hamming distance per decoded symbol."""
        return [int(d) for d in self.distance_array]

    @property
    def psdu_soft_chips(self) -> np.ndarray:
        """Chip-rate soft samples belonging to the PSDU only."""
        start = self.psdu_symbol_offset * CHIPS_PER_SYMBOL
        return self.soft_chips[start:]

    @property
    def psdu_quadrature_soft_chips(self) -> np.ndarray:
        """Frequency-discriminator soft samples of the PSDU only."""
        start = self.psdu_symbol_offset * CHIPS_PER_SYMBOL
        return self.quadrature_soft_chips[start:]

    @property
    def psdu_symbols(self) -> List[Optional[int]]:
        """Decoded PSDU symbols (``None`` marks a dropped chip sequence)."""
        return self.symbols[self.psdu_symbol_offset :]


@dataclass
class ReceivedPacket:
    """Result of one reception attempt."""

    psdu: Optional[bytes]
    mac_frame: Optional[MacFrame]
    fcs_ok: bool
    diagnostics: ReceiveDiagnostics

    @property
    def decoded(self) -> bool:
        """Whether a PSDU was recovered (regardless of FCS)."""
        return self.psdu is not None


class ZigBeeReceiver:
    """IEEE 802.15.4 O-QPSK receiver operating on complex baseband."""

    def __init__(self, config: Optional[ReceiverConfig] = None):
        self.config = config or ReceiverConfig()
        self._demodulator = OqpskDemodulator(self.config.samples_per_chip)
        self._quadrature = QuadratureDemodulator(self.config.samples_per_chip)
        self._despreader = DsssDespreader(self.config.correlation_threshold)
        self._msk_despreader = MskDespreader(
            min(self.config.correlation_threshold, 31)
        )
        self._synchronizer = Synchronizer(
            samples_per_chip=self.config.samples_per_chip,
            detection_threshold=self.config.sync_detection_threshold,
            estimate_cfo=self.config.estimate_cfo,
        )

    @property
    def sample_rate_hz(self) -> float:
        """Native baseband rate the receiver demodulates at."""
        return self._synchronizer.sample_rate_hz

    def channelize(self, waveform: Waveform) -> Waveform:
        """Filter and resample an off-rate input to the native rate.

        Models the receiver's 2 MHz channel-select filter followed by
        decimation — e.g. a 20 Msps "air" capture becomes 4 Msps baseband.
        """
        baseband = self._channelize_batch(
            waveform.samples[np.newaxis, :], waveform.sample_rate_hz
        )
        return Waveform(baseband[0], self.sample_rate_hz)

    def demodulate_chips(
        self, waveform: Waveform, num_chips: Optional[int] = None,
        known_start: Optional[int] = None,
    ) -> ReceiveDiagnostics:
        """Synchronize and demodulate chips without any frame parsing.

        Args:
            waveform: received baseband (any rate >= native).
            num_chips: chips to demodulate; defaults to every whole symbol
                that fits after the frame start.
            known_start: genie timing — skip packet detection and use this
                sample index (at the native rate) as the frame start.
        """
        telemetry = get_telemetry()
        with telemetry.span("zigbee.channelize"):
            baseband = self.channelize(waveform)
        with telemetry.span("zigbee.sync"):
            if known_start is not None:
                sync = SyncResult(
                    start_index=known_start, phase_rad=0.0, cfo_hz=0.0,
                    correlation=1.0,
                )
            else:
                sync = self._synchronizer.synchronize(baseband)
            aligned = apply_corrections(baseband, sync, self.sample_rate_hz)

        capacity = self._demodulator.capacity(aligned.size)
        available = (capacity // CHIPS_PER_SYMBOL) * CHIPS_PER_SYMBOL
        target = available if num_chips is None else num_chips
        if target > available:
            raise DecodingError(
                f"requested {target} chips but only {available} are available"
            )
        with telemetry.span("zigbee.demodulate"):
            chip_samples = self._demodulator.demodulate(
                aligned, target, phase_tracking=self.config.phase_tracking
            )
            quad_target = min(target, self._quadrature.capacity(aligned.size))
            quadrature = self._quadrature.demodulate(aligned, quad_target)
        with telemetry.span("zigbee.despread"):
            if self.config.demodulation == "quadrature":
                whole = (quad_target // CHIPS_PER_SYMBOL) * CHIPS_PER_SYMBOL
                symbols, distances, runners = self._msk_despreader.despread_arrays(
                    quadrature.hard[:whole]
                )
            else:
                symbols, distances, runners = self._despreader.despread_arrays(
                    chip_samples.hard
                )
        return ReceiveDiagnostics(
            sync=sync,
            soft_chips=chip_samples.soft,
            hard_chips=chip_samples.hard,
            quadrature_soft_chips=quadrature.soft,
            noise_variance=self._estimate_noise_floor(baseband, sync.start_index),
            symbol_array=symbols,
            distance_array=distances,
            runner_distance_array=runners,
        )

    @staticmethod
    def _estimate_noise_floor(
        baseband: Waveform, start_index: int, min_samples: int = 32
    ) -> Optional[float]:
        """Per-sample noise power from the signal-free head of the capture.

        The defense's cumulant estimator subtracts "a local estimate of the
        noise variance" (Sec. VI-B2); a receiver obtains it for free from
        the samples it captured before the frame arrived.
        """
        head = baseband.samples[:start_index]
        if head.size < min_samples:
            return None
        return float(np.mean(np.abs(head) ** 2))

    def receive(
        self, waveform: Waveform, known_start: Optional[int] = None
    ) -> ReceivedPacket:
        """Full packet reception: sync, demodulate, despread, parse, FCS."""
        telemetry = get_telemetry()
        try:
            with telemetry.span("zigbee.receive"):
                packet = self._receive_packet(waveform, known_start)
        except SynchronizationError:
            telemetry.count("zigbee.packets", outcome="sync_lost")
            raise
        if telemetry.enabled:
            outcome = ("fcs_ok" if packet.fcs_ok
                       else "decoded" if packet.decoded else "undecoded")
            telemetry.count("zigbee.packets", outcome=outcome)
            telemetry.count(
                "zigbee.chip_errors",
                float(sum(packet.diagnostics.hamming_distances)),
            )
        return packet

    def _receive_packet(
        self, waveform: Waveform, known_start: Optional[int]
    ) -> ReceivedPacket:
        diagnostics = self.demodulate_chips(waveform, known_start=known_start)
        return self._parse_packet(diagnostics)

    def _parse_packet(self, diagnostics: ReceiveDiagnostics) -> ReceivedPacket:
        """PHR parse, PSDU assembly, and FCS check on decode arrays."""
        symbol_array = diagnostics.symbol_array
        if symbol_array.size < HEADER_SYMBOLS:
            return ReceivedPacket(None, None, False, diagnostics)

        phr_low = int(symbol_array[10])
        phr_high = int(symbol_array[11])
        if phr_low < 0 or phr_high < 0:
            return ReceivedPacket(None, None, False, diagnostics)
        length = phr_low | (phr_high << 4)
        if not 0 < length <= MAX_PSDU_BYTES:
            return ReceivedPacket(None, None, False, diagnostics)

        psdu_symbols = symbol_array[HEADER_SYMBOLS : HEADER_SYMBOLS + 2 * length]
        self._trim_diagnostics(diagnostics, HEADER_SYMBOLS + 2 * length)
        if psdu_symbols.size < 2 * length or np.any(psdu_symbols < 0):
            return ReceivedPacket(None, None, False, diagnostics)
        # Vectorized nibble-pair combine: even symbols are low nibbles.
        psdu = (
            (psdu_symbols[0::2] | (psdu_symbols[1::2] << 4))
            .astype(np.uint8)
            .tobytes()
        )

        mac_frame: Optional[MacFrame] = None
        fcs_ok = False
        try:
            mac_frame = MacFrame.from_bytes(psdu)
            fcs_ok = True
        except FramingError:
            mac_frame = None
        return ReceivedPacket(psdu, mac_frame, fcs_ok, diagnostics)

    @staticmethod
    def _trim_diagnostics(diagnostics: ReceiveDiagnostics, num_symbols: int) -> None:
        """Drop demodulated content beyond the frame's actual symbol count.

        The demodulator decodes every whole symbol that fits in the capture,
        so padding after the frame would otherwise pollute chip/Hamming
        statistics with garbage "symbols".
        """
        num_chips = num_symbols * CHIPS_PER_SYMBOL
        diagnostics.soft_chips = diagnostics.soft_chips[:num_chips]
        diagnostics.hard_chips = diagnostics.hard_chips[:num_chips]
        diagnostics.quadrature_soft_chips = diagnostics.quadrature_soft_chips[
            :num_chips
        ]
        diagnostics.symbol_array = diagnostics.symbol_array[:num_symbols]
        diagnostics.distance_array = diagnostics.distance_array[:num_symbols]
        diagnostics.runner_distance_array = diagnostics.runner_distance_array[
            :num_symbols
        ]

    def receive_batch(
        self,
        samples: np.ndarray,
        sample_rate_hz: float,
        known_start: Optional[int] = None,
    ) -> List[Optional[ReceivedPacket]]:
        """Full packet reception over a (batch, n) stack of captures.

        Every row is one independent noise realization at the same rate;
        rows that fail packet detection yield ``None`` (the batched
        analogue of :class:`SynchronizationError`).  Per-row results and
        telemetry counters are bit-identical to calling :meth:`receive`
        on each row alone: all kernels reduce along the sample axis only,
        and rows are regrouped by detected frame start so every aligned
        stack stays rectangular.
        """
        telemetry = get_telemetry()
        with telemetry.span("zigbee.receive_batch"):
            packets = self._receive_rows(samples, sample_rate_hz, known_start)
        for packet in packets:
            if packet is None:
                telemetry.count("zigbee.packets", outcome="sync_lost")
        if telemetry.enabled:
            for packet in packets:
                if packet is None:
                    continue
                outcome = ("fcs_ok" if packet.fcs_ok
                           else "decoded" if packet.decoded else "undecoded")
                telemetry.count("zigbee.packets", outcome=outcome)
                telemetry.count(
                    "zigbee.chip_errors",
                    float(packet.diagnostics.distance_array.sum()),
                )
        return packets

    def _receive_rows(
        self,
        samples: np.ndarray,
        sample_rate_hz: float,
        known_start: Optional[int],
    ) -> List[Optional[ReceivedPacket]]:
        telemetry = get_telemetry()
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ConfigurationError(
                f"batch waveforms must be 2-D, got shape {samples.shape}"
            )
        batch = samples.shape[0]
        if samples.size == 0:
            return [None] * batch
        with telemetry.span("zigbee.channelize"):
            baseband = self._channelize_batch(samples, sample_rate_hz)
        with telemetry.span("zigbee.sync"):
            if known_start is not None:
                syncs: List[Optional[SyncResult]] = [
                    SyncResult(
                        start_index=known_start, phase_rad=0.0, cfo_hz=0.0,
                        correlation=1.0,
                    )
                ] * batch
            else:
                syncs = self._synchronizer.synchronize_batch(baseband)
        packets: List[Optional[ReceivedPacket]] = [None] * batch
        # Rows synchronize at (nearly always) the same frame start; group
        # them so each aligned stack is rectangular and demodulates in
        # one batched pass.
        groups: dict = {}
        for row, sync in enumerate(syncs):
            if sync is not None:
                groups.setdefault(sync.start_index, []).append(row)
        for start, rows in groups.items():
            self._receive_group(baseband, syncs, start, rows, packets)
        return packets

    def _receive_group(
        self,
        baseband: np.ndarray,
        syncs: List[Optional[SyncResult]],
        start: int,
        rows: List[int],
        packets: List[Optional[ReceivedPacket]],
    ) -> None:
        """Demodulate, despread, and parse one equal-start row group."""
        telemetry = get_telemetry()
        idx = np.asarray(rows, dtype=np.intp)
        group = baseband[idx]
        aligned_len = group.shape[1] - start
        cfo = np.asarray([syncs[row].cfo_hz for row in rows])
        phase = np.asarray([syncs[row].phase_rad for row in rows])
        steps = np.arange(aligned_len)
        rate = self.sample_rate_hz
        correction = np.exp(
            -1j
            * (
                2.0 * np.pi * cfo[:, np.newaxis] * steps[np.newaxis, :] / rate
                + phase[:, np.newaxis]
            )
        )
        # Non-finite rows are dropped below, after demodulation.
        with np.errstate(invalid="ignore", over="ignore"):
            aligned = group[:, start:] * correction

        capacity = self._demodulator.capacity(aligned_len)
        target = (capacity // CHIPS_PER_SYMBOL) * CHIPS_PER_SYMBOL
        with telemetry.span("zigbee.demodulate"):
            soft, hard = self._demodulator.demodulate_batch(
                aligned, target, phase_tracking=self.config.phase_tracking
            )
            quad_target = min(target, self._quadrature.capacity(aligned_len))
            quad_soft, quad_hard = self._quadrature.demodulate_batch(
                aligned, quad_target
            )
        with telemetry.span("zigbee.despread"):
            if self.config.demodulation == "quadrature":
                whole = (quad_target // CHIPS_PER_SYMBOL) * CHIPS_PER_SYMBOL
                symbols, distances, runners = (
                    self._msk_despreader.despread_arrays(quad_hard[:, :whole])
                )
            else:
                symbols, distances, runners = self._despreader.despread_arrays(
                    hard
                )
        min_noise_samples = 32
        noise: Optional[np.ndarray] = None
        if start >= min_noise_samples:
            noise = np.mean(np.abs(group[:, :start]) ** 2, axis=-1)
        # Non-finite chips or noise floor (NaN samples, overflow) fail closed.
        finite = np.isfinite(soft).all(axis=-1) & np.isfinite(quad_soft).all(axis=-1)
        finite &= np.isfinite(noise) if noise is not None else True
        for position, row in enumerate(rows):
            if not finite[position]:
                continue
            diagnostics = ReceiveDiagnostics(
                sync=syncs[row],
                soft_chips=soft[position],
                hard_chips=hard[position],
                quadrature_soft_chips=quad_soft[position],
                noise_variance=(
                    float(noise[position]) if noise is not None else None
                ),
                symbol_array=symbols[position],
                distance_array=distances[position],
                runner_distance_array=runners[position],
            )
            packets[row] = self._parse_packet(diagnostics)

    def _channelize_batch(
        self, samples: np.ndarray, sample_rate_hz: float
    ) -> np.ndarray:
        """Row-wise :meth:`channelize` of a (batch, n) stack."""
        if abs(sample_rate_hz - self.sample_rate_hz) < 1e-6:
            return samples
        if sample_rate_hz < self.sample_rate_hz:
            raise ConfigurationError(
                "input sample rate is below the receiver's native rate"
            )
        if self.config.decimation == "naive":
            ratio = sample_rate_hz / self.sample_rate_hz
            step = int(round(ratio))
            if abs(ratio - step) > 1e-9:
                raise ConfigurationError(
                    "naive decimation needs an integer rate ratio"
                )
            return np.ascontiguousarray(samples[:, ::step])
        filtered = lowpass_filter_batch(
            samples,
            cutoff_hz=self.config.channel_filter_cutoff_hz,
            sample_rate_hz=sample_rate_hz,
        )
        return polyphase_resample_batch(
            filtered, sample_rate_hz, self.sample_rate_hz
        )
