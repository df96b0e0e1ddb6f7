"""DSSS spreading and despreading (Fig. 1 of the paper).

Spreading multiplies each 4-bit symbol into its 32-chip PN sequence.
Despreading performs hard-decision minimum-Hamming-distance decoding
against the chip table with a configurable *correlation threshold*: if the
best distance exceeds the threshold the sequence is dropped, which is how
the paper's receiver rejects noise while still accepting the emulated
waveform's 4-8 chip errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DecodingError
from repro.zigbee.chips import chip_table, chip_table_antipodal, chip_table_int64
from repro.zigbee.constants import (
    CHIPS_PER_SYMBOL,
    DEFAULT_CORRELATION_THRESHOLD,
    NUM_SYMBOLS,
)


#: Set bits of every byte value.  ``np.bitwise_count`` needs numpy 2;
#: the package supports numpy 1.21.
_POPCOUNT8 = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.int64
)

#: Bytes in one packed 32-chip block.
_BLOCK_BYTES = CHIPS_PER_SYMBOL // 8


def _pack_chip_blocks(blocks: np.ndarray) -> np.ndarray:
    """Pack ``(n, 32)`` hard chips into ``(n, 4)`` bytes.

    Chip ``j`` of a block is bit ``j % 8`` of byte ``j // 8``, so the
    four bytes read as a little-endian ``uint32`` hold the block.

    Raises:
        ConfigurationError: a chip is not 0 or 1 (packing would read
            any nonzero chip as 1).
    """
    if not np.all((blocks == 0) | (blocks == 1)):
        raise ConfigurationError("hard-decision chips must be 0 or 1")
    return np.packbits(blocks.astype(np.uint8), axis=-1, bitorder="little")


def byte_distance_tables(
    codewords: np.ndarray, care: Optional[np.ndarray] = None
) -> np.ndarray:
    """Hamming distances from every chip byte to every codeword's byte.

    ``tables[k, v, s]`` is the popcount of ``v XOR`` byte ``k`` of packed
    codeword ``s``, counting only chips where ``care`` (32 chips, default
    all ones) is 1.  A packed block's distance to codeword ``s`` is the
    sum of ``tables[k, block[k], s]`` over its four bytes: the popcount
    of the XOR of the two packed blocks, looked up one byte at a time.
    """
    code_bytes = _pack_chip_blocks(codewords)
    if care is None:
        care = np.ones(CHIPS_PER_SYMBOL, dtype=np.uint8)
    care_bytes = _pack_chip_blocks(care)
    values = np.arange(256)[None, :, None]
    tables = _POPCOUNT8[
        (values ^ code_bytes.T[:, None, :]) & care_bytes[:, None, None]
    ]
    tables.setflags(write=False)
    return tables


def despread_packed(
    chips: np.ndarray, tables: np.ndarray, threshold: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-Hamming-distance decoding of a (..., chips) 0/1 stream.

    The last axis must be whole 32-chip blocks.  Each block is packed
    into four bytes and its distance to every codeword summed from
    :func:`byte_distance_tables`.  Returns ``(symbols, distances,
    runner_up_distances)`` int64 arrays, one entry per block (leading
    axes kept); a block whose best distance exceeds ``threshold`` gets
    symbol ``-1``.  Ties keep the stable order: the best codeword is the
    first at the minimum distance, the runner-up the first of the rest.

    Raises:
        DecodingError: the last axis is not whole blocks.
        ConfigurationError: a chip is not 0 or 1.
    """
    chip_array = np.asarray(chips)
    if chip_array.shape[-1] % CHIPS_PER_SYMBOL != 0:
        raise DecodingError(
            f"chip stream of {chip_array.shape[-1]} is not a whole "
            f"number of symbols"
        )
    out_shape = chip_array.shape[:-1] + (
        chip_array.shape[-1] // CHIPS_PER_SYMBOL,
    )
    packed = _pack_chip_blocks(chip_array.reshape(-1, CHIPS_PER_SYMBOL))
    distances = tables[0][packed[:, 0]]
    for k in range(1, _BLOCK_BYTES):
        distances += tables[k][packed[:, k]]
    rows = np.arange(distances.shape[0])
    best = distances.argmin(axis=1)
    best_distances = distances[rows, best]
    distances[rows, best] = CHIPS_PER_SYMBOL + 1
    runner_up = distances.argmin(axis=1)
    runner_distances = distances[rows, runner_up]
    symbols = np.where(best_distances <= threshold, best, -1)
    return (
        symbols.reshape(out_shape),
        best_distances.reshape(out_shape),
        runner_distances.reshape(out_shape),
    )


@lru_cache(maxsize=1)
def _dsss_distance_tables() -> np.ndarray:
    return byte_distance_tables(chip_table())


def spread_symbols(symbols: Iterable[int]) -> np.ndarray:
    """Map data symbols (0-15) to their concatenated chip sequences."""
    table = chip_table()
    symbol_array = np.asarray(list(symbols), dtype=np.int64)
    if symbol_array.size and (symbol_array.min() < 0 or symbol_array.max() >= NUM_SYMBOLS):
        raise ConfigurationError("data symbols must be in [0, 15]")
    if symbol_array.size == 0:
        return np.zeros(0, dtype=np.uint8)
    return table[symbol_array].reshape(-1).astype(np.uint8)


@dataclass(frozen=True)
class DespreadDecision:
    """Outcome of despreading one 32-chip sequence.

    Attributes:
        symbol: the decoded data symbol, or ``None`` when the sequence was
            dropped because the best Hamming distance exceeded the threshold.
        hamming_distance: distance between the received chips and the chip
            sequence of the best-matching symbol.
        runner_up_distance: distance to the second-best symbol, a confidence
            margin used by diagnostics.
    """

    symbol: Optional[int]
    hamming_distance: int
    runner_up_distance: int

    @property
    def accepted(self) -> bool:
        """Whether the chip sequence decoded to a symbol."""
        return self.symbol is not None


class DsssDespreader:
    """Hard-decision DSSS decoder with a Hamming-distance threshold."""

    def __init__(self, correlation_threshold: int = DEFAULT_CORRELATION_THRESHOLD):
        if not 0 <= correlation_threshold <= CHIPS_PER_SYMBOL:
            raise ConfigurationError(
                f"correlation threshold must be in [0, {CHIPS_PER_SYMBOL}]"
            )
        self.correlation_threshold = correlation_threshold
        self._table = chip_table_int64()
        self._tables = _dsss_distance_tables()

    def despread_sequence(self, chips: Sequence[int]) -> DespreadDecision:
        """Decode exactly one 32-chip hard-decision sequence."""
        chip_array = np.asarray(chips, dtype=np.int64)
        if chip_array.size != CHIPS_PER_SYMBOL:
            raise ConfigurationError(
                f"expected {CHIPS_PER_SYMBOL} chips, got {chip_array.size}"
            )
        distances = np.count_nonzero(self._table != chip_array[None, :], axis=1)
        order = np.argsort(distances, kind="stable")
        best, runner_up = int(order[0]), int(order[1])
        best_distance = int(distances[best])
        decision_symbol = best if best_distance <= self.correlation_threshold else None
        return DespreadDecision(
            symbol=decision_symbol,
            hamming_distance=best_distance,
            runner_up_distance=int(distances[runner_up]),
        )

    def despread_arrays(
        self, chips: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-form despreading of a (..., chips) hard-decision stream.

        Accepts a 1-D chip stream or any stack whose last axis is a whole
        number of 32-chip sequences, and returns ``(symbols, distances,
        runner_up_distances)`` int64 arrays with one entry per sequence
        (leading axes preserved).  Rejected sequences carry symbol ``-1``
        instead of ``None`` so the hot receive path never materializes
        per-symbol :class:`DespreadDecision` objects.  Runs on packed
        chips (:func:`despread_packed`); integer-exact, so it agrees with
        :meth:`despread_sequence` and batched and scalar calls agree
        bit-for-bit.
        """
        return despread_packed(chips, self._tables, self.correlation_threshold)

    def despread(self, chips: Sequence[int]) -> List[DespreadDecision]:
        """Decode a chip stream; length must be a multiple of 32.

        Vectorized: one packed pass over all symbols
        (:meth:`despread_arrays`) rather than a Python loop per symbol.
        """
        symbols, best_distances, runner_distances = self.despread_arrays(chips)
        return [
            DespreadDecision(
                symbol=int(symbols[i]) if symbols[i] >= 0 else None,
                hamming_distance=int(best_distances[i]),
                runner_up_distance=int(runner_distances[i]),
            )
            for i in range(symbols.size)
        ]

    def decode_symbols(self, chips: Sequence[int]) -> Tuple[List[Optional[int]], List[int]]:
        """Convenience wrapper returning (symbols, hamming distances)."""
        decisions = self.despread(chips)
        return (
            [decision.symbol for decision in decisions],
            [decision.hamming_distance for decision in decisions],
        )


class SoftDsssDespreader:
    """Soft-decision DSSS decoding: maximum correlation over codewords.

    Instead of slicing chips to bits and counting disagreements, the
    soft despreader correlates the real-valued chip samples against the
    antipodal (+/-1) chip sequences and picks the largest correlation —
    the matched-filter-optimal rule, worth ~1-2 dB over hard decisions.
    A normalized-margin threshold replaces the Hamming threshold: the
    winning correlation must exceed ``acceptance`` times the maximum
    possible (the received energy projected on the codeword).
    """

    def __init__(self, acceptance: float = 0.2):
        if not 0.0 <= acceptance <= 1.0:
            raise ConfigurationError("acceptance must be in [0, 1]")
        self.acceptance = acceptance
        self._antipodal = chip_table_antipodal()

    def despread_sequence(self, soft_chips: Sequence[float]) -> DespreadDecision:
        """Decode one 32-sample soft chip block."""
        block = np.asarray(soft_chips, dtype=np.float64)
        if block.size != CHIPS_PER_SYMBOL:
            raise ConfigurationError(
                f"expected {CHIPS_PER_SYMBOL} soft chips, got {block.size}"
            )
        correlations = self._antipodal @ block
        order = np.argsort(-correlations, kind="stable")
        best, runner_up = int(order[0]), int(order[1])
        scale = float(np.sum(np.abs(block)))
        accepted = scale > 0 and correlations[best] >= self.acceptance * scale
        # Report an equivalent hard Hamming distance for diagnostics.
        hard = (block > 0).astype(np.int64)
        reference = chip_table()[best].astype(np.int64)
        distance = int(np.count_nonzero(hard != reference))
        runner_reference = chip_table()[runner_up].astype(np.int64)
        runner_distance = int(np.count_nonzero(hard != runner_reference))
        return DespreadDecision(
            symbol=best if accepted else None,
            hamming_distance=distance,
            runner_up_distance=runner_distance,
        )

    def despread(self, soft_chips: Sequence[float]) -> List[DespreadDecision]:
        """Decode a soft chip stream; length must be whole symbols."""
        stream = np.asarray(soft_chips, dtype=np.float64)
        if stream.size % CHIPS_PER_SYMBOL != 0:
            raise DecodingError(
                f"chip stream of {stream.size} is not a whole number of symbols"
            )
        return [
            self.despread_sequence(stream[i : i + CHIPS_PER_SYMBOL])
            for i in range(0, stream.size, CHIPS_PER_SYMBOL)
        ]
