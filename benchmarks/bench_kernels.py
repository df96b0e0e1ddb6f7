"""Micro-benchmarks of the hot kernels.

These back the paper's complexity analysis (Sec. VII-A): the attack is
O(M) in the number of observed samples and the defense is O(N) in the
number of chip samples — both fast enough to run per-packet.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import EmulationConfig, WaveformEmulationAttack, optimize_scale
from repro.attack.interpolate import spectrum_table
from repro.defense import CumulantDetector
from repro.channel.environment import RealEnvironment
from repro.experiments.common import (
    build_observed_waveform,
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.sweep import untracked_if_quadrature
from repro.hardware.usrp import gnuradio_simulation_receiver_config
from repro.telemetry import stopwatch
from repro.utils.signal_ops import channelize_batch, normalize_power
from repro.wifi.qam import modulation_for_name
from repro.wifi.convcode import decode_with_rate, encode_with_rate
from repro.zigbee.oqpsk import OqpskDemodulator
from repro.zigbee.receiver import ZigBeeReceiver
from repro.zigbee.transmitter import ZigBeeTransmitter


@pytest.fixture(scope="module")
def observed():
    return build_observed_waveform(b"kernel-bench")


def test_bench_zigbee_transmit(benchmark):
    transmitter = ZigBeeTransmitter()
    result = benchmark(lambda: transmitter.transmit_payload(b"kernel-bench"))
    assert result.waveform.power > 0


def test_bench_zigbee_receive(benchmark, observed):
    receiver = ZigBeeReceiver()
    waveform = observed.waveform
    packet = benchmark(lambda: receiver.receive(waveform, known_start=0))
    assert packet.fcs_ok


def test_bench_emulation_attack(benchmark, observed):
    attack = WaveformEmulationAttack()
    result = benchmark(lambda: attack.emulate(observed.waveform))
    assert result.scale > 0


def test_bench_optimize_scale(benchmark):
    """The global search for the 64-QAM scale alpha (Sec. V-A3) at its
    pinned input: the 1,239 frequency points of the default frame."""
    emulation = WaveformEmulationAttack(EmulationConfig(quantize=False)).emulate(
        build_observed_waveform().waveform
    )
    points = spectrum_table(emulation.chunks)[:, emulation.selection.indexes]
    points = points.reshape(-1)
    assert points.size == 1239
    modulation = modulation_for_name("64qam")
    scale = benchmark(lambda: optimize_scale(points, modulation))
    assert scale == 33.573709006115735


def test_bench_detector_statistic(benchmark):
    rng = np.random.default_rng(0)
    chips = 2.0 * rng.integers(0, 2, 4096) - 1.0 + 0.05 * rng.standard_normal(4096)
    detector = CumulantDetector()
    result = benchmark(lambda: detector.statistic(chips))
    assert result.distance_squared < 0.5


def test_bench_zigbee_receive_batch(benchmark, observed):
    """Batched receive over a 32-row stack; compare per-row cost with
    ``test_bench_zigbee_receive`` for the vectorization win."""
    receiver = ZigBeeReceiver()
    waveform = observed.waveform
    stacked = np.tile(waveform.samples, (32, 1))
    packets = benchmark(
        lambda: receiver.receive_batch(
            stacked, waveform.sample_rate_hz, known_start=0
        )
    )
    assert all(packet is not None and packet.fcs_ok for packet in packets)


@pytest.mark.parametrize("rows", [1, 8])
def test_bench_channelize(benchmark, rows):
    """The receiver's 2 MHz channel filter and 20 -> 4 Msps decimation at
    the emulated frame's on-air length, 14,670 samples at 20 Msps."""
    rng = np.random.default_rng(0)
    stacked = rng.standard_normal((rows, 14_670)) + 1j * rng.standard_normal(
        (rows, 14_670)
    )
    baseband = benchmark(lambda: channelize_batch(stacked, 1.5e6, 20e6, 4e6))
    assert baseband.shape == (rows, 2934)


@pytest.mark.parametrize("rate", ["air", "receiver"])
def test_bench_row_channel(benchmark, capsys, rate):
    """Table V's channel for 16 rows of the 14,590-sample authentic frame
    at 6 m, up to the defense receiver's 4 Msps input.

    ``air``: each row's ``RealEnvironment.channel_at(...).apply`` at
    20 Msps, then ``channelize_batch`` over the stack (the full-rate
    reference).  ``receiver``: the same chain at 4 Msps on the frame
    channelized once, with the noise drawn in the receiver's band.
    Prints milliseconds per row.
    """
    prepared = prepare_authentic()
    assert prepared.on_air.samples.size == 14_590
    env = RealEnvironment(rng=0)
    generators = [np.random.default_rng(seed) for seed in range(16)]
    if rate == "air":
        frame = prepared.on_air.with_samples(
            normalize_power(prepared.on_air.samples)
        )

        def rows():
            stacked = np.stack([
                env.channel_at(6.0, rng=g).apply(frame).samples
                for g in generators
            ])
            return channelize_batch(stacked, 1.5e6, 20e6, 4e6)
    else:
        clean, band = prepared.at_receiver(ZigBeeReceiver())

        def rows():
            return np.stack([
                env.channel_at(6.0, rng=g, band=band).apply(clean).samples
                for g in generators
            ])

    baseband = benchmark(rows)
    assert baseband.shape == (16, 2918)
    if benchmark.stats is not None:
        with capsys.disabled():
            print(f"\n{rate} rate: "
                  f"{benchmark.stats.stats.median / 16 * 1e3:.3f} ms per row")


@pytest.mark.parametrize("phase_tracking", [True, False])
def test_bench_demodulate_batch(benchmark, phase_tracking):
    """The O-QPSK matched filter on Table II's aligned rows: 8 rows of
    2,934 samples at 4 Msps, 1,440 chips each.  With tracking, each row
    runs the decision-directed phase loop's per-pair recursion."""
    rng = np.random.default_rng(0)
    aligned = rng.standard_normal((8, 2934)) + 1j * rng.standard_normal(
        (8, 2934)
    )
    demodulator = OqpskDemodulator()
    soft, _ = benchmark(
        lambda: demodulator.demodulate_batch(
            aligned, 1440, phase_tracking=phase_tracking
        )
    )
    assert soft.shape == (8, 1440)


def test_bench_transmit_batch(benchmark):
    """Table II's channel and receive step: 8 noisy copies of the
    emulated frame (14,670 samples at 20 Msps) at 7 dB into Table II's
    receiver (naive, without matched-filter phase tracking), which reads
    2,934 samples of each."""
    prepared = prepare_emulated(rng=1)
    assert prepared.on_air.samples.size == 14_670
    receiver = untracked_if_quadrature(
        ZigBeeReceiver(gnuradio_simulation_receiver_config())
    )
    packets = benchmark(
        lambda: transmit_batch(
            prepared, receiver, 7.0,
            [np.random.default_rng(seed) for seed in range(8)],
        )
    )
    assert len(packets) == 8


def test_bench_detector_statistic_batch(benchmark):
    rng = np.random.default_rng(0)
    rows = [
        2.0 * rng.integers(0, 2, 4096) - 1.0
        + 0.05 * rng.standard_normal(4096)
        for _ in range(32)
    ]
    detector = CumulantDetector()
    results = benchmark(lambda: detector.statistic_batch(rows))
    assert all(result.distance_squared < 0.5 for result in results)


def test_bench_batched_receive_matches_scalar(benchmark, observed):
    """The batched chain's rows equal scalar receptions bit-for-bit."""
    from repro.channel.awgn import add_awgn

    receiver = ZigBeeReceiver()
    waveform = observed.waveform
    rng = np.random.default_rng(7)
    stacked = np.stack(
        [add_awgn(waveform.samples, 15.0, rng=rng) for _ in range(8)]
    )
    scalars = [
        receiver.receive(waveform.with_samples(row), known_start=0)
        for row in stacked
    ]
    packets = benchmark(
        lambda: receiver.receive_batch(
            stacked, waveform.sample_rate_hz, known_start=0
        )
    )
    for packet, scalar in zip(packets, scalars):
        assert packet is not None
        assert packet.psdu == scalar.psdu
        assert np.array_equal(
            packet.diagnostics.soft_chips, scalar.diagnostics.soft_chips
        )


def test_bench_viterbi(benchmark):
    rng = np.random.default_rng(1)
    bits = np.concatenate(
        [rng.integers(0, 2, 210).astype(np.uint8), np.zeros(6, dtype=np.uint8)]
    )
    coded = encode_with_rate(bits, (3, 4))
    decoded = benchmark(lambda: decode_with_rate(coded, (3, 4), bits.size))
    assert np.array_equal(decoded, bits)


def test_bench_attack_complexity_is_linear(benchmark, capsys):
    """Doubling the observed samples ~doubles the attack's work (Sec. VII-A)."""
    attack = WaveformEmulationAttack()
    timings = {}
    for size in (10, 40):
        sent = ZigBeeTransmitter().transmit_payload(bytes(size))
        with stopwatch() as timer:
            for _ in range(3):
                attack.emulate(sent.waveform)
        timings[size] = timer.seconds / 3

    ratio = timings[40] / timings[10]
    with capsys.disabled():
        print(f"\nattack runtime scaling (4x samples): {ratio:.2f}x")
    # Linear-ish: well below quadratic scaling (16x) with headroom.
    assert ratio < 9.0

    # Keep pytest-benchmark satisfied with a representative measurement.
    sent = ZigBeeTransmitter().transmit_payload(bytes(10))
    benchmark(lambda: attack.emulate(sent.waveform))
