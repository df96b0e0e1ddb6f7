"""Carrier allocation (Sec. V-A4).

Two deployment modes:

* **baseband** — the paper's simulation: quantized points go back to the
  same FFT bins they came from and everything stays at one centre
  frequency.  Used for the AWGN experiments (Table II, Figs. 5-12).
* **rf** — the over-the-air layout: the attacker transmits at 2440 MHz
  while the ZigBee receiver listens at 2435 MHz, so the ZigBee-carrying
  points must ride 5 MHz *below* the WiFi centre — a shift of -16
  subcarriers, which lands them inside the standard data allocation
  [-20, -8] exactly as the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, EmulationError
from repro.utils.rng import RngLike, ensure_rng
from repro.wifi.constants import (
    DATA_SUBCARRIERS,
    FFT_SIZE,
    ZIGBEE_OFFSET_SUBCARRIERS,
    logical_to_fft_index,
)
from repro.attack.selection import indexes_to_logical


def allocate_baseband_bins(
    indexes: np.ndarray, quantized: np.ndarray
) -> np.ndarray:
    """Place quantized points back at their own FFT bins; zero elsewhere.

    ``quantized`` holds one point per index along its last axis; a stack
    of symbols gives a stack of 64-bin vectors.
    """
    index_array = np.asarray(indexes, dtype=np.int64).reshape(-1)
    values = np.atleast_1d(np.asarray(quantized, dtype=np.complex128))
    if index_array.size != values.shape[-1]:
        raise ConfigurationError("indexes and quantized points must align")
    if index_array.size and (index_array.min() < 0 or index_array.max() >= FFT_SIZE):
        raise ConfigurationError("FFT bin indexes must be in [0, 63]")
    bins = np.zeros(values.shape[:-1] + (FFT_SIZE,), dtype=np.complex128)
    bins[..., index_array] = values
    return bins


@dataclass(frozen=True)
class RfAllocation:
    """Mapping of ZigBee-band points into the WiFi data subcarrier grid.

    Attributes:
        data_points: full 48-point data vector for one OFDM symbol, with
            the ZigBee information embedded and the remaining subcarriers
            carrying filler points.
        zigbee_positions: positions within the 48-point vector that carry
            ZigBee information.
    """

    data_points: np.ndarray
    zigbee_positions: np.ndarray


def allocate_rf_data_points(
    indexes: np.ndarray,
    constellation_points: np.ndarray,
    filler: Optional[np.ndarray] = None,
    rng: RngLike = None,
    offset_subcarriers: int = ZIGBEE_OFFSET_SUBCARRIERS,
) -> RfAllocation:
    """Embed quantized points into a standard 48-subcarrier data vector.

    Args:
        indexes: FFT bin indexes of the kept ZigBee frequency points (at
            the ZigBee centre).
        constellation_points: unit-scale QAM points for those bins.
        filler: points for the remaining data subcarriers (random QAM
            noise is drawn when omitted — the attacker must put *something*
            on the out-of-band subcarriers of a standards-compliant frame).
        rng: randomness for the default filler.
        offset_subcarriers: carrier offset in subcarrier units (-16 for
            the paper's 2440 -> 2435 MHz layout).
    """
    logical = indexes_to_logical(np.asarray(indexes, dtype=np.int64))
    shifted = logical + offset_subcarriers
    values = np.asarray(constellation_points, dtype=np.complex128)
    if shifted.size != values.size:
        raise ConfigurationError("indexes and points must align")

    data_order = {subcarrier: i for i, subcarrier in enumerate(DATA_SUBCARRIERS)}
    positions = []
    for subcarrier in shifted:
        if int(subcarrier) not in data_order:
            raise EmulationError(
                f"shifted subcarrier {int(subcarrier)} is not a data "
                "subcarrier; adjust the centre-frequency offset"
            )
        positions.append(data_order[int(subcarrier)])
    position_array = np.asarray(positions, dtype=np.int64)

    if filler is None:
        generator = ensure_rng(rng)
        from repro.wifi.qam import modulation_for_name

        table = modulation_for_name("64qam").constellation()
        filler = table[generator.integers(0, table.size, size=len(DATA_SUBCARRIERS))]
    filler_array = np.asarray(filler, dtype=np.complex128)
    if filler_array.size != len(DATA_SUBCARRIERS):
        raise ConfigurationError(
            f"filler must provide {len(DATA_SUBCARRIERS)} points"
        )

    data_points = filler_array.copy()
    data_points[position_array] = values
    return RfAllocation(data_points=data_points, zigbee_positions=position_array)
