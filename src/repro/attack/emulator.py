"""The CTC waveform emulation attack pipeline (Sec. V).

``observe -> interpolate x5 -> segment into WiFi symbols -> drop the CP
portion -> 64-FFT -> keep the 7 strongest subcarriers -> QAM-quantize
with an optimized scale -> re-allocate carriers -> 64-IFFT -> cyclic
prefix -> emulated waveform``

Each 80-sample output chunk is a legitimate WiFi symbol whose occupied
band reproduces a quarter of one ZigBee symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.attack.allocation import allocate_baseband_bins, allocate_rf_data_points
from repro.attack.interpolate import (
    segment_into_wifi_symbols,
    spectrum_table,
    to_wifi_rate,
)
from repro.attack.quantize import QuantizationResult, quantize_points
from repro.attack.selection import (
    DEFAULT_COARSE_THRESHOLD,
    DEFAULT_NUM_SUBCARRIERS,
    SelectionResult,
    select_subcarriers,
)
from repro.errors import ConfigurationError, EmulationError
from repro.telemetry import get_telemetry
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.signal_ops import Waveform
from repro.wifi.constants import CP_LENGTH, FFT_SIZE, SAMPLE_RATE_HZ, SYMBOL_LENGTH
from repro.wifi.ofdm import map_subcarriers
from repro.wifi.qam import modulation_for_name


@dataclass(frozen=True)
class EmulationConfig:
    """Knobs of the emulation attack.

    Attributes:
        num_subcarriers: frequency points kept per symbol (7 = ZigBee BW).
        coarse_threshold: magnitude threshold of the coarse estimation.
        modulation_name: constellation for quantization (paper: 64-QAM).
        scale: fixed constellation scale alpha; optimized when ``None``.
        quantize: disable to skip QAM quantization entirely (an ablation
            that isolates the FFT-truncation distortion).
        mode: ``"baseband"`` (paper's simulation: points return to their
            own bins) or ``"rf"`` (points ride -16 subcarriers inside a
            standard 48-point data allocation, with pilots).
        interpolation_method: ``"fft"`` or ``"polyphase"``.
        leading_zero_samples: zero samples prepended by
            :meth:`WaveformEmulationAttack.transmit_waveform` ("we add 10
            zero points at the beginning of each emulated packet").
    """

    num_subcarriers: int = DEFAULT_NUM_SUBCARRIERS
    coarse_threshold: float = DEFAULT_COARSE_THRESHOLD
    modulation_name: str = "64qam"
    scale: Optional[float] = None
    quantize: bool = True
    mode: str = "baseband"
    interpolation_method: str = "fft"
    leading_zero_samples: int = 10

    def __post_init__(self) -> None:
        if self.mode not in ("baseband", "rf"):
            raise ConfigurationError(f"unknown emulation mode {self.mode!r}")
        if self.leading_zero_samples < 0:
            raise ConfigurationError("leading_zero_samples must be >= 0")


@dataclass
class EmulationResult:
    """Everything the attack produced for one observed waveform."""

    waveform: Waveform
    interpolated: Waveform
    chunks: np.ndarray
    emulated_chunks: np.ndarray
    selection: SelectionResult
    quantization: Optional[QuantizationResult]
    config: EmulationConfig

    @property
    def scale(self) -> float:
        """The constellation scale used (0 when quantization was skipped)."""
        return self.quantization.scale if self.quantization else 0.0

    def emulation_error(self) -> float:
        """Mean squared emulation error over the non-CP portions."""
        original = self.chunks[:, CP_LENGTH:]
        emulated = self.emulated_chunks[:, CP_LENGTH:]
        return float(np.mean(np.abs(original - emulated) ** 2))


class WaveformEmulationAttack:
    """A WiFi attacker that turns observed ZigBee waveforms into WiFi frames."""

    def __init__(self, config: Optional[EmulationConfig] = None, rng: RngLike = None):
        self.config = config or EmulationConfig()
        self._modulation = modulation_for_name(self.config.modulation_name)
        self._rng = ensure_rng(rng)

    def emulate(self, observed: Waveform) -> EmulationResult:
        """Run the full pipeline of Fig. 4 on an observed ZigBee waveform."""
        config = self.config
        telemetry = get_telemetry()
        with telemetry.span("attack.emulate"):
            with telemetry.span("attack.interpolate"):
                interpolated = to_wifi_rate(
                    observed, method=config.interpolation_method
                )
            with telemetry.span("attack.segment_fft"):
                chunks = segment_into_wifi_symbols(interpolated)
                spectra = spectrum_table(chunks)
            with telemetry.span("attack.select_subcarriers"):
                selection = select_subcarriers(
                    spectra,
                    num_subcarriers=config.num_subcarriers,
                    coarse_threshold=config.coarse_threshold,
                )

            chosen = spectra[:, selection.indexes]  # chunks x kept-subcarriers
            quantization: Optional[QuantizationResult] = None
            if config.quantize:
                with telemetry.span("attack.quantize"):
                    quantization = quantize_points(
                        chosen.reshape(-1),
                        modulation=self._modulation,
                        scale=config.scale,
                    )
                kept_values = quantization.quantized.reshape(chosen.shape)
                unit_points = quantization.constellation_points.reshape(
                    chosen.shape
                )
            else:
                kept_values = chosen
                unit_points = chosen

            with telemetry.span("attack.allocate_ifft"):
                if config.mode == "baseband":
                    emulated_chunks = self._build_baseband(
                        selection.indexes, kept_values
                    )
                else:
                    scale = quantization.scale if quantization else 1.0
                    emulated_chunks = self._build_rf(
                        selection.indexes, unit_points, scale
                    )

        waveform = Waveform(emulated_chunks.reshape(-1), SAMPLE_RATE_HZ)
        result = EmulationResult(
            waveform=waveform,
            interpolated=interpolated,
            chunks=chunks,
            emulated_chunks=emulated_chunks,
            selection=selection,
            quantization=quantization,
            config=config,
        )
        if telemetry.enabled:
            telemetry.count("attack.emulations", mode=config.mode)
            telemetry.observe("attack.emulation_error", result.emulation_error())
            if quantization is not None:
                telemetry.observe("attack.quantization_scale", quantization.scale)
        return result

    def transmit_waveform(self, result: EmulationResult) -> Waveform:
        """The on-air waveform: leading zeros plus the emulated chunks."""
        zeros = np.zeros(self.config.leading_zero_samples, dtype=np.complex128)
        return Waveform(
            np.concatenate([zeros, result.waveform.samples]), SAMPLE_RATE_HZ
        )

    def _build_baseband(
        self, indexes: np.ndarray, kept_values: np.ndarray
    ) -> np.ndarray:
        """IFFT + CP per chunk with points at their original bins."""
        return _ofdm_symbols(
            kept_values.shape[0],
            lambda start, stop: allocate_baseband_bins(indexes, kept_values[start:stop]),
        )

    def _build_rf(
        self, indexes: np.ndarray, unit_points: np.ndarray, scale: float
    ) -> np.ndarray:
        """Standards-style symbols: data grid + pilots, shifted -16 bins."""

        def bins(start: int, stop: int) -> np.ndarray:
            block = np.empty((stop - start, FFT_SIZE), dtype=np.complex128)
            for i in range(start, stop):  # filler draws in chunk order
                allocation = allocate_rf_data_points(
                    indexes, unit_points[i], rng=self._rng
                )
                block[i - start] = map_subcarriers(
                    allocation.data_points, symbol_index=1 + i, include_pilots=True
                )
            return block

        emulated = _ofdm_symbols(unit_points.shape[0], bins)
        # ofdm bins carry unit constellation points; the IFFT in
        # map/modulate scales by sqrt(N), so a digital gain of
        # scale / sqrt(N) reproduces bin amplitude `scale * c` exactly.
        emulated *= np.sqrt(FFT_SIZE)
        emulated *= scale / np.sqrt(FFT_SIZE)
        return emulated


#: Symbols per batched IFFT: the (symbols, 64) work arrays stay at 64 KiB,
#: small enough for the allocator to serve from its heap (a 183-symbol
#: frame in one batch raised the sweeps' peak RSS by 0.3 MiB).
_IFFT_SYMBOLS = 64


def _ofdm_symbols(
    count: int, bins: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """IFFT + cyclic prefix of ``count`` symbols, a block at a time.

    ``bins(start, stop)`` gives the 64 bins of symbols ``start:stop``.
    """
    symbols = np.empty((count, SYMBOL_LENGTH), dtype=np.complex128)
    for start in range(0, count, _IFFT_SYMBOLS):
        stop = min(start + _IFFT_SYMBOLS, count)
        body = np.fft.ifft(bins(start, stop))
        symbols[start:stop, :CP_LENGTH] = body[:, -CP_LENGTH:]
        symbols[start:stop, CP_LENGTH:] = body
    return symbols


def emulate_waveform(
    observed: Waveform, config: Optional[EmulationConfig] = None, rng: RngLike = None
) -> EmulationResult:
    """Functional one-shot wrapper around :class:`WaveformEmulationAttack`."""
    return WaveformEmulationAttack(config=config, rng=rng).emulate(observed)
