"""Shared low-level utilities: bit manipulation, CRC, DSP helpers, RNG.

Terminal plotting is imported from :mod:`repro.utils.terminal_plot`.
"""

from repro.utils.bitops import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
    hamming_distance,
    pack_nibbles,
    unpack_nibbles,
)
from repro.utils.crc import crc16_802154, verify_fcs, append_fcs
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.signal_ops import (
    Waveform,
    average_power,
    db_to_linear,
    linear_to_db,
    fft_interpolate,
    normalize_power,
    papr_db,
    polyphase_resample,
    frequency_shift,
)

__all__ = [
    "Waveform",
    "append_fcs",
    "average_power",
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "crc16_802154",
    "db_to_linear",
    "ensure_rng",
    "fft_interpolate",
    "frequency_shift",
    "hamming_distance",
    "int_to_bits",
    "linear_to_db",
    "normalize_power",
    "pack_nibbles",
    "papr_db",
    "polyphase_resample",
    "spawn_rngs",
    "unpack_nibbles",
    "verify_fcs",
]
