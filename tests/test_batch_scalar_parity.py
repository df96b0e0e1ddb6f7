"""Row independence of every batched receive/defense kernel.

Each scalar kernel is a one-row call of its ``*_batch`` form, so the
property that keeps batched Monte Carlo rows reproducible is row
independence: an N-row batch equals N one-row calls, bit for bit.  The
sweep oracles rely on it whenever the chunking changes.  Each
test pins one kernel, so a regression names the kernel that broke.
"""

import numpy as np
import pytest

from repro.defense.constellation import (
    ConstellationOptions,
    reconstruct_constellation,
    reconstruct_constellation_batch,
)
from repro.defense.moments import (
    estimate_cumulants,
    estimate_cumulants_batch,
)
from repro.experiments.common import (
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
    transmit_once,
)
from repro.hardware.usrp import gnuradio_simulation_receiver_config
from repro.utils.signal_ops import Waveform
from repro.zigbee.receiver import ZigBeeReceiver


def _complex_rows(rng, count, length):
    return [
        rng.standard_normal(length) + 1j * rng.standard_normal(length)
        for _ in range(count)
    ]


class TestDefenseKernelParity:
    def test_reconstruct_constellation_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        soft = rng.standard_normal((5, 64))
        for options in (None, ConstellationOptions(drop_header_chips=8)):
            batched = reconstruct_constellation_batch(soft, options)
            for row, points in zip(soft, batched):
                assert np.array_equal(
                    points, reconstruct_constellation(row, options)
                )

    def test_estimate_cumulants_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        variances = [0.0, 0.01, 0.25, 0.0]
        batched = estimate_cumulants_batch(samples, variances)
        for row, variance, estimate in zip(samples, variances, batched):
            assert estimate == estimate_cumulants(row, variance)


class TestZigbeeChainParity:
    def test_channelize_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        rows = _complex_rows(rng, 3, 2000)
        # The default profile filters and resamples; the GNU Radio
        # profile decimates naively.
        for config in (None, gnuradio_simulation_receiver_config()):
            receiver = ZigBeeReceiver(config)
            batched = receiver._channelize_batch(np.stack(rows), 20e6)
            for row, baseband in zip(rows, batched):
                scalar = receiver.channelize(Waveform(row, 20e6))
                assert scalar.sample_rate_hz == receiver.sample_rate_hz
                assert np.array_equal(baseband, scalar.samples)

    @pytest.mark.parametrize("length", [1, 2, 64, 128, 129, 1003, 14_671])
    def test_channelize_rows_match_one_row_calls(self, length):
        """Every batch size, lengths that are not multiples of 5, and
        captures no longer than the channel filter's 129 taps."""
        rng = np.random.default_rng(length)
        rows = np.stack(_complex_rows(rng, 33, length))
        receiver = ZigBeeReceiver()
        alone = [
            receiver.channelize(Waveform(row, 20e6)).samples for row in rows
        ]
        for batch in (1, 2, 8, 33):
            batched = receiver._channelize_batch(rows[:batch], 20e6)
            for row, baseband in zip(alone, batched):
                assert np.array_equal(baseband, row)

    def test_synchronize_batch_matches_scalar(self):
        receiver = ZigBeeReceiver()
        prepared = prepare_authentic()
        baseband = receiver.channelize(prepared.on_air)
        rng = np.random.default_rng(7)
        rows = [
            baseband.samples + 0.01 * (
                rng.standard_normal(baseband.samples.size)
                + 1j * rng.standard_normal(baseband.samples.size)
            )
            for _ in range(3)
        ]
        synchronizer = receiver._synchronizer
        batched = synchronizer.synchronize_batch(np.stack(rows))
        for row, result in zip(rows, batched):
            scalar = synchronizer.synchronize(baseband.with_samples(row))
            assert result == scalar

    def test_oqpsk_demodulate_batch_matches_scalar(self):
        from repro.zigbee.oqpsk import OqpskDemodulator

        demod = OqpskDemodulator()
        rng = np.random.default_rng(8)
        rows = _complex_rows(rng, 4, 130)
        num_chips = demod.capacity(130) - demod.capacity(130) % 2
        for phase_tracking in (False, True):
            soft, hard = demod.demodulate_batch(
                np.stack(rows), num_chips, phase_tracking=phase_tracking
            )
            for i, row in enumerate(rows):
                scalar = demod.demodulate(
                    row, num_chips, phase_tracking=phase_tracking
                )
                assert np.array_equal(soft[i], scalar.soft)
                assert np.array_equal(hard[i], scalar.hard)

    def test_quadrature_demodulate_batch_matches_scalar(self):
        from repro.zigbee.quadrature import QuadratureDemodulator

        demod = QuadratureDemodulator()
        rng = np.random.default_rng(9)
        rows = _complex_rows(rng, 4, 101)
        num_chips = demod.capacity(101)
        soft, hard = demod.demodulate_batch(np.stack(rows), num_chips)
        for i, row in enumerate(rows):
            scalar = demod.demodulate(row, num_chips)
            assert np.array_equal(soft[i], scalar.soft)
            assert np.array_equal(hard[i], scalar.hard)


class TestTransmitParity:
    def test_transmit_batch_matches_transmit_once(self):
        prepared = prepare_emulated(rng=3)
        receiver = ZigBeeReceiver()
        seeds = (21, 22, 23)
        batched = transmit_batch(
            prepared, receiver, 12.0,
            [np.random.default_rng(seed) for seed in seeds],
        )
        for seed, packet in zip(seeds, batched):
            scalar = transmit_once(
                prepared, receiver, 12.0, np.random.default_rng(seed)
            )
            if scalar is None:
                assert packet is None
                continue
            assert packet is not None
            assert packet.psdu == scalar.psdu
            assert packet.fcs_ok == scalar.fcs_ok
            assert np.array_equal(
                packet.diagnostics.soft_chips, scalar.diagnostics.soft_chips
            )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
