"""Tests for DSSS spreading and threshold despreading."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DecodingError
from repro.zigbee.chips import chips_for_symbol
from repro.zigbee.spreading import DsssDespreader, spread_symbols


class TestSpreading:
    def test_single_symbol(self):
        chips = spread_symbols([5])
        assert np.array_equal(chips, chips_for_symbol(5))

    def test_concatenation(self):
        chips = spread_symbols([1, 2])
        assert chips.size == 64
        assert np.array_equal(chips[:32], chips_for_symbol(1))
        assert np.array_equal(chips[32:], chips_for_symbol(2))

    def test_empty(self):
        assert spread_symbols([]).size == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            spread_symbols([16])


class TestDespreading:
    def test_perfect_roundtrip(self):
        despreader = DsssDespreader()
        symbols = list(range(16))
        decoded, distances = despreader.decode_symbols(spread_symbols(symbols))
        assert decoded == symbols
        assert distances == [0] * 16

    def test_tolerates_errors_within_threshold(self):
        despreader = DsssDespreader(correlation_threshold=5)
        chips = spread_symbols([7]).copy()
        chips[[0, 5, 9, 20, 31]] ^= 1  # five chip errors
        decision = despreader.despread_sequence(chips)
        assert decision.symbol == 7
        assert decision.hamming_distance == 5
        assert decision.accepted

    def test_drops_beyond_threshold(self):
        despreader = DsssDespreader(correlation_threshold=3)
        chips = spread_symbols([7]).copy()
        chips[:5] ^= 1
        decision = despreader.despread_sequence(chips)
        assert decision.symbol is None
        assert not decision.accepted

    def test_runner_up_distance_exceeds_best(self):
        despreader = DsssDespreader()
        decision = despreader.despread_sequence(spread_symbols([3]))
        assert decision.runner_up_distance >= decision.hamming_distance
        assert decision.runner_up_distance >= 12  # table min distance

    def test_rejects_partial_sequence(self):
        despreader = DsssDespreader()
        with pytest.raises(ConfigurationError):
            despreader.despread_sequence(np.zeros(31, dtype=np.uint8))

    def test_rejects_ragged_stream(self):
        despreader = DsssDespreader()
        with pytest.raises(DecodingError):
            despreader.despread(np.zeros(33, dtype=np.uint8))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            DsssDespreader(correlation_threshold=33)

    @given(
        st.integers(0, 15),
        st.lists(st.integers(0, 31), min_size=0, max_size=5, unique=True),
    )
    def test_decodes_with_up_to_five_errors(self, symbol, error_positions):
        """min distance 12 -> up to 5 errors always decode correctly."""
        despreader = DsssDespreader(correlation_threshold=10)
        chips = spread_symbols([symbol]).copy()
        for position in error_positions:
            chips[position] ^= 1
        decision = despreader.despread_sequence(chips)
        assert decision.symbol == symbol
        assert decision.hamming_distance == len(error_positions)


def _tied_block(table, first, second, data):
    """A block halfway between codewords ``first`` and ``second``.

    It takes ``first``'s chips, then ``second``'s at half of the chips
    where the two differ (rounded down), so an even distance between
    them leaves the block tied, and an odd one one chip short of a tie.
    """
    block = table[first].copy()
    differ = np.flatnonzero(table[first] != table[second])
    take = data.draw(
        st.lists(st.sampled_from(list(differ)), unique=True,
                 min_size=len(differ) // 2, max_size=len(differ) // 2)
    )
    block[take] = table[second][take]
    return block


def _reference_rows(despreader, blocks):
    decisions = [despreader.despread_sequence(block) for block in blocks]
    return (
        [-1 if d.symbol is None else d.symbol for d in decisions],
        [d.hamming_distance for d in decisions],
        [d.runner_up_distance for d in decisions],
    )


class TestPackedDespread:
    """``despread_arrays`` (packed chips) against ``despread_sequence``."""

    @staticmethod
    def _despreaders():
        from repro.zigbee.msk import MskDespreader, msk_chip_table

        return (
            (DsssDespreader(), np.array([chips_for_symbol(s) for s in range(16)])),
            (MskDespreader(), msk_chip_table()),
        )

    @given(
        st.data(),
        st.lists(st.lists(st.integers(0, 1), min_size=32, max_size=32),
                 max_size=6),
        st.integers(0, 12),
    )
    def test_rows_match_the_reference_including_ties(
        self, data, random_blocks, threshold
    ):
        for despreader, table in self._despreaders():
            despreader.correlation_threshold = threshold
            tied = []
            for _ in range(data.draw(st.integers(1, 4))):
                first, second = data.draw(
                    st.lists(st.integers(0, 15), min_size=2, max_size=2,
                             unique=True)
                )
                block = _tied_block(table, first, second, data)
                block[0] = data.draw(st.integers(0, 1))
                tied.append(block)
            blocks = np.array(
                [np.asarray(b, dtype=np.uint8) for b in random_blocks] + tied,
                dtype=np.uint8,
            )
            symbols, distances, runners = despreader.despread_arrays(
                blocks.reshape(-1)
            )
            assert [symbols.tolist(), distances.tolist(), runners.tolist()] \
                == list(_reference_rows(despreader, blocks))
            stacked = despreader.despread_arrays(blocks.reshape(1, -1))
            assert stacked[0].shape == (1, len(blocks))
            assert stacked[0][0].tolist() == symbols.tolist()

    def test_a_tie_keeps_the_stable_order(self):
        despreader, table = self._despreaders()[0]
        differ = np.flatnonzero(table[2] != table[9])
        block = table[9].copy()
        block[differ[: len(differ) // 2]] = table[2][differ[: len(differ) // 2]]
        assert len(differ) % 2 == 0
        symbols, distances, runners = despreader.despread_arrays(block)
        # Tied at equal distance: the lower index wins, the other is runner-up.
        assert distances[0] == runners[0] == len(differ) // 2
        assert symbols[0] == despreader.despread_sequence(block).symbol == 2

    @pytest.mark.parametrize("chip", [2, -1, 0.5])
    def test_non_binary_chips_raise(self, chip):
        from repro.zigbee.msk import MskDespreader

        block = np.zeros(32)
        block[5] = chip
        for despreader in (DsssDespreader(), MskDespreader()):
            with pytest.raises(ConfigurationError, match="0 or 1"):
                despreader.despread_arrays(block)

    def test_empty_stream_gives_empty_rows(self):
        for despreader, _ in self._despreaders():
            for result in despreader.despread_arrays(np.zeros((3, 0), np.uint8)):
                assert result.shape == (3, 0) and result.dtype == np.int64
