"""IEEE 802.11g (ERP-OFDM) PHY implementation.

The package implements the complete transmitter of Fig. 2 — scrambling,
convolutional coding, puncturing, interleaving, QAM mapping, pilot/null
subcarrier allocation, 64-IFFT and cyclic prefixing — plus a reference
receiver for round-trip validation.

The package re-exports only what the emulation attack uses: constants,
QAM, OFDM mapping and the scrambler.  The full TX/RX chain is imported
from its own modules (:mod:`repro.wifi.transmitter`,
:mod:`repro.wifi.receiver`, :mod:`repro.wifi.convcode`,
:mod:`repro.wifi.interleaver`, :mod:`repro.wifi.preamble`,
:mod:`repro.wifi.softdemap`, :mod:`repro.wifi.sync`), so importing the
attack does not load it.
"""

from repro.wifi.constants import (
    CP_LENGTH,
    DATA_SUBCARRIERS,
    DEFAULT_RATE_MBPS,
    FFT_SIZE,
    NUM_DATA_SUBCARRIERS,
    PILOT_SUBCARRIERS,
    RATES,
    RateParams,
    SAMPLE_RATE_HZ,
    SUBCARRIER_SPACING_HZ,
    SYMBOL_LENGTH,
    ZIGBEE_OFFSET_SUBCARRIERS,
    logical_to_fft_index,
)
from repro.wifi.ofdm import (
    assemble_symbols,
    extract_data_subcarriers,
    map_subcarriers,
    ofdm_demodulate_symbol,
    ofdm_modulate_bins,
    split_symbols,
)
from repro.wifi.qam import QamModulation, modulation_for_name
from repro.wifi.scrambler import (
    descramble,
    pilot_polarity_sequence,
    scramble,
    scrambler_sequence,
)

__all__ = [
    "CP_LENGTH",
    "DATA_SUBCARRIERS",
    "DEFAULT_RATE_MBPS",
    "FFT_SIZE",
    "NUM_DATA_SUBCARRIERS",
    "PILOT_SUBCARRIERS",
    "QamModulation",
    "RATES",
    "RateParams",
    "SAMPLE_RATE_HZ",
    "SUBCARRIER_SPACING_HZ",
    "SYMBOL_LENGTH",
    "ZIGBEE_OFFSET_SUBCARRIERS",
    "assemble_symbols",
    "descramble",
    "extract_data_subcarriers",
    "logical_to_fft_index",
    "map_subcarriers",
    "modulation_for_name",
    "ofdm_demodulate_symbol",
    "ofdm_modulate_bins",
    "pilot_polarity_sequence",
    "scramble",
    "scrambler_sequence",
    "split_symbols",
]
