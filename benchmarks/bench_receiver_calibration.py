"""Receiver calibration: SER/PER waterfalls of the two demodulation paths.

Not a paper artifact but the measurement the whole reproduction stands
on: where each receiver's decoding cliff sits versus in-band SNR.  The
coherent matched-filter path must outperform the quadrature
(discriminator) path by several dB — the mechanism behind Fig. 14's
USRP-vs-CC26x2 gap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import AwgnChannel
from repro.experiments.common import packet_delivered, prepare_authentic
from repro.utils.rng import spawn_rngs
from repro.zigbee.receiver import ReceiverConfig, ZigBeeReceiver


def _per(prepared, receiver, snr_db, trials, rng_seed):
    from repro.errors import SynchronizationError

    failures = 0
    clean, band = prepared.at_receiver(receiver)
    for generator in spawn_rngs(rng_seed, trials):
        # The SNR inside the 2 MHz channel, drawn where the receiver reads.
        channel = AwgnChannel(
            snr_db, rng=generator, normalize=False, signal_power=1.0,
            noise_bandwidth_hz=2e6, band=band,
        )
        try:
            packet = receiver.receive(channel.apply(clean))
        except SynchronizationError:
            failures += 1
            continue
        failures += not packet_delivered(prepared, packet)
    return failures / trials


def test_bench_demodulation_waterfalls(benchmark, capsys):
    prepared = prepare_authentic()
    matched = ZigBeeReceiver(ReceiverConfig(demodulation="matched_filter"))
    quadrature = ZigBeeReceiver(ReceiverConfig(demodulation="quadrature"))

    def run():
        rows = []
        for snr in (-2.0, 1.0, 4.0, 7.0, 10.0):
            rows.append(
                (
                    snr,
                    _per(prepared, matched, snr, 10, 10 + int(snr)),
                    _per(prepared, quadrature, snr, 10, 60 + int(snr)),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\ncalibration: packet error rate vs in-band SNR")
        print(f"{'snr':>5} {'matched filter':>15} {'quadrature':>11}")
        for snr, mf, quad in rows:
            print(f"{snr:>5.0f} {mf:>15.2f} {quad:>11.2f}")

    by_snr = {snr: (mf, quad) for snr, mf, quad in rows}
    # Both decode cleanly at 10 dB in-band.
    assert by_snr[10.0] == (0.0, 0.0)
    # The coherent path survives SNRs where the discriminator fails.
    assert by_snr[1.0][0] < by_snr[1.0][1]
    # And everything fails somewhere below.
    assert by_snr[-2.0][1] > 0.5
