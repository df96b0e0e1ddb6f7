"""MSK-view despreading for the quadrature (frequency-sign) receive path.

GNU Radio's 802.15.4 receiver — the paper's software stack — treats
half-sine O-QPSK as MSK: the per-chip frequency sign carries a
differentially encoded chip stream.  Empirically (and analytically, from
the continuous-phase trellis) the relation between transmitted chips
``a`` and frequency signs ``b`` is::

    b[n] = a[n] XOR a[n-1] XOR (n mod 2)

Because 32 divides every symbol boundary, the parity term depends only on
the within-symbol chip index; but ``b[0]`` of every symbol depends on the
*previous* symbol's last chip, so the MSK chip table masks chip 0 and
correlates over the remaining 31 chips — the 0x7FFFFFFE mask of the
well-known GNU Radio implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.zigbee.chips import chip_table
from repro.zigbee.constants import CHIPS_PER_SYMBOL, NUM_SYMBOLS
from repro.zigbee.spreading import (
    DespreadDecision,
    byte_distance_tables,
    despread_packed,
)

#: Number of unmasked chips the MSK correlator uses per symbol.
MSK_USABLE_CHIPS = CHIPS_PER_SYMBOL - 1

#: Default Hamming tolerance over the 31 usable chips, mirroring the
#: paper's threshold of 10 (out of 32) for the coherent path.
DEFAULT_MSK_THRESHOLD = 10


@lru_cache(maxsize=1)
def msk_chip_table() -> np.ndarray:
    """Frequency-sign sequences for all 16 symbols (chip 0 is a dummy).

    Entry ``[s, j]`` for j >= 1 is ``a[j] ^ a[j-1] ^ (j % 2)`` of symbol
    s's chip sequence; entry ``[s, 0]`` assumes a previous chip of 0 and
    must be masked during correlation.
    """
    base = chip_table().astype(np.int64)
    table = np.zeros((NUM_SYMBOLS, CHIPS_PER_SYMBOL), dtype=np.uint8)
    parity = np.arange(CHIPS_PER_SYMBOL) % 2
    for symbol in range(NUM_SYMBOLS):
        chips = base[symbol]
        previous = np.concatenate([[0], chips[:-1]])
        table[symbol] = (chips ^ previous ^ parity).astype(np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def msk_usable_table_int64() -> np.ndarray:
    """The masked (chip 0 dropped) MSK table as read-only int64.

    Cached so despreader construction — once per unpickled context in
    every pool worker — stops re-slicing and re-casting the table.
    """
    table = np.ascontiguousarray(msk_chip_table()[:, 1:].astype(np.int64))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def _msk_distance_tables() -> np.ndarray:
    # Chip 0 depends on the previous symbol, so it never counts.
    care = np.ones(CHIPS_PER_SYMBOL, dtype=np.uint8)
    care[0] = 0
    return byte_distance_tables(msk_chip_table(), care)


class MskDespreader:
    """Masked minimum-Hamming-distance decoder over frequency signs."""

    def __init__(self, correlation_threshold: int = DEFAULT_MSK_THRESHOLD):
        if not 0 <= correlation_threshold <= MSK_USABLE_CHIPS:
            raise ConfigurationError(
                f"MSK correlation threshold must be in [0, {MSK_USABLE_CHIPS}]"
            )
        self.correlation_threshold = correlation_threshold
        self._table = msk_usable_table_int64()
        self._tables = _msk_distance_tables()

    def despread_sequence(self, freq_chips: Sequence[int]) -> DespreadDecision:
        """Decode one 32-chip frequency-sign block (chip 0 ignored)."""
        block = np.asarray(freq_chips, dtype=np.int64)
        if block.size != CHIPS_PER_SYMBOL:
            raise ConfigurationError(
                f"expected {CHIPS_PER_SYMBOL} chips, got {block.size}"
            )
        usable = block[1:]
        distances = np.count_nonzero(self._table != usable[None, :], axis=1)
        order = np.argsort(distances, kind="stable")
        best, runner_up = int(order[0]), int(order[1])
        best_distance = int(distances[best])
        symbol = best if best_distance <= self.correlation_threshold else None
        return DespreadDecision(
            symbol=symbol,
            hamming_distance=best_distance,
            runner_up_distance=int(distances[runner_up]),
        )

    def despread_arrays(
        self, freq_chips: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-form masked despreading of a (..., chips) sign stream.

        Mirrors :meth:`DsssDespreader.despread_arrays`: the last axis
        must be whole 32-chip sequences (chip 0 of each is masked) and
        rejected sequences carry symbol ``-1``.  Runs on packed chips;
        integer-exact, so it agrees with :meth:`despread_sequence`.
        """
        return despread_packed(
            freq_chips, self._tables, self.correlation_threshold
        )

    def despread(self, freq_chips: Sequence[int]) -> List[DespreadDecision]:
        """Decode a frequency-sign stream; length must be whole symbols.

        Vectorized like :meth:`DsssDespreader.despread`: one packed pass
        over all symbols (masked chip 0 excluded).
        """
        symbols, best_distances, runner_distances = self.despread_arrays(
            freq_chips
        )
        return [
            DespreadDecision(
                symbol=int(symbols[i]) if symbols[i] >= 0 else None,
                hamming_distance=int(best_distances[i]),
                runner_up_distance=int(runner_distances[i]),
            )
            for i in range(symbols.size)
        ]
